"""Computations made apart from cnpkit, used to check its reports.

Nothing here imports cnpkit. Grams come from each kernel's closed form,
spectra from ``scipy.linalg.eigvalsh``, connectivity from
``scipy.sparse.csgraph.connected_components`` and scalar extension disks
from an ``mpmath`` Schur complement in extended precision. The conventions
are the ones cnpkit documents: ``K[i, j] = k(x_i, x_j)`` with the kernel
conjugate-linear in its first argument, ``<x, y> = sum_l conj(x_l) y_l``.
"""

from __future__ import annotations

import mpmath
import numpy as np
import scipy.linalg as sl
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

#: cnpkit's documented default thresholds, which the benchmark never overrides.
ZERO_EIG_REL = 1e-9
KERNEL_ZERO_ABS = 1e-12
#: An eigenvalue within this factor of a threshold counts as a hairline: the
#: generator draws such a sample again, and the checks accept either side.
BAND = 100.0
#: Relative error allowed when an embedding rebuilds the closed-form Gram.
GRAM_RTOL = 1e-6
#: Relative floor for "stays PSD" on Pick matrices that include committed
#: values, ten times cnpkit's slack to absorb rounding over many steps.
PICK_FLOOR = 1e-8
#: Greedy values on extremal (Blaschke) data must match the Blaschke product.
VALUE_TOL = 1e-6
#: Relative step off the disk boundary.
DISK_EPS = 1e-3
#: Decimal digits of the exact disk; it is recomputed with twice as many
#: until two precisions agree to ``DISK_AGREE`` of the radius.
DISK_DPS = 40
DISK_AGREE = 1e-9


class CheckFailed(Exception):
    """A report disagrees with the independent computation."""


def require(cond, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# kernels


def _w(x, y):
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    return np.conj(x)[:, None] * y[None, :]


def szego(x, y) -> np.ndarray:
    return 1.0 / (1.0 - _w(x, y))


def dirichlet(x, y) -> np.ndarray:
    """``-log1p(-w) / w``, with its Taylor polynomial where ``|w|`` is tiny."""
    w = _w(x, y)
    tiny = np.abs(w) < 1e-8
    safe = np.where(tiny, 0.5, w)
    return np.where(tiny, 1.0 + w / 2.0 + w * w / 3.0, -np.log1p(-safe) / safe)


def sobolev(s, t) -> np.ndarray:
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    lo = np.minimum.outer(s, t)
    hi = np.maximum.outer(s, t)
    return (np.cosh(lo) * np.cosh(1.0 - hi) / np.sinh(1.0)).astype(complex)


def ball(X, Y) -> np.ndarray:
    X = np.asarray(X, dtype=complex)
    Y = np.asarray(Y, dtype=complex)
    return 1.0 / (1.0 - X.conj() @ Y.T)


KERNELS = {
    "szego": szego,
    "dirichlet": dirichlet,
    "sobolev": sobolev,
    "ball": ball,
}


def gram(kind: str, pts) -> np.ndarray:
    return KERNELS[kind](pts, pts)


def reciprocal_gram(kind: str, pts) -> np.ndarray:
    """``1/K`` straight from the kernel formula where one exists."""
    if kind == "szego":
        return 1.0 - _w(pts, pts)
    if kind == "bergman":
        return (1.0 - _w(pts, pts)) ** 2
    if kind == "ball":
        X = np.asarray(pts, dtype=complex)
        return 1.0 - X.conj() @ X.T
    return 1.0 / gram(kind, pts)


def blaschke(zeros, z, scale: float = 1.0):
    z = np.asarray(z, dtype=complex)
    out = np.full(z.shape, scale, dtype=complex)
    for a in zeros:
        out *= (z - a) / (1.0 - np.conj(a) * z)
    return out


# ---------------------------------------------------------------------------
# spectra


def eigvalsh(A) -> np.ndarray:
    A = np.asarray(A, dtype=complex)
    return sl.eigvalsh((A + A.conj().T) / 2.0)


def scale_of(w) -> float:
    return max(1.0, float(np.max(np.abs(w)))) if len(w) else 1.0


def inertia_bounds(w) -> tuple[tuple[int, int], tuple[int, int]]:
    """Allowed ``(min, max)`` counts of positive and of negative eigenvalues.

    Eigenvalues beyond ``BAND`` times the zero threshold are decided; those
    inside the band may be counted either way.
    """
    thr = ZERO_EIG_REL * scale_of(w)
    hi, lo = thr * BAND, thr / BAND
    pos = (int(np.sum(w > hi)), int(np.sum(w > lo)))
    neg = (int(np.sum(w < -hi)), int(np.sum(w < -lo)))
    return pos, neg


def deciding_margin_ok(w, n_pos: int) -> bool:
    """True when the ``n_pos``-th and ``n_pos+1``-th largest eigenvalues
    lie clearly on their sides of the zero threshold."""
    thr = ZERO_EIG_REL * scale_of(w)
    w = np.sort(w)[::-1]
    ok = w[n_pos - 1] > thr * BAND
    if n_pos < len(w):
        ok = ok and w[n_pos] < thr / BAND
    return bool(ok)


def min_eig_rel(P) -> float:
    w = eigvalsh(P)
    return float(w[0]) / scale_of(w)


# ---------------------------------------------------------------------------
# zero pattern


def nonzero_pattern(K) -> np.ndarray:
    K = np.asarray(K)
    amax = float(np.max(np.abs(K))) or 1.0
    return np.abs(K) > KERNEL_ZERO_ABS * amax


def components(K) -> list[tuple[int, ...]]:
    """Connected components of the nonzero graph, sorted by least index."""
    nz = nonzero_pattern(K)
    _, labels = connected_components(csr_matrix(nz), directed=False)
    groups: dict[int, list[int]] = {}
    for i, lab in enumerate(labels):
        groups.setdefault(int(lab), []).append(i)
    return sorted((tuple(g) for g in groups.values()), key=min)


def zero_pairs_inside(K) -> set[tuple[int, int]]:
    nz = nonzero_pattern(K)
    out = set()
    for block in components(K):
        for a, i in enumerate(block):
            for j in block[a + 1 :]:
                if not nz[i, j]:
                    out.add((i, j))
    return out


# ---------------------------------------------------------------------------
# Pick matrices


def pick_scalar(K, lam) -> np.ndarray:
    lam = np.asarray(lam, dtype=complex)
    return (1.0 - np.outer(lam.conj(), lam)) * K


def pick_block(K, targets) -> np.ndarray:
    """Block ``(i, j)`` is ``K[i, j] (I - conj(L_i) L_j^T)``, built block by block."""
    n, mu, _ = targets.shape
    P = np.empty((n * mu, n * mu), dtype=complex)
    eye = np.eye(mu)
    for i in range(n):
        for j in range(n):
            P[i * mu : (i + 1) * mu, j * mu : (j + 1) * mu] = K[i, j] * (
                eye - targets[i].conj() @ targets[j].T
            )
    return P


def rep_norm(K, targets) -> float:
    """Norm of ``k_i (x) e -> k_i (x) L_i^* e`` by a generalized eigensolve."""
    targets = np.asarray(targets, dtype=complex)
    if targets.ndim == 1:
        targets = targets[:, None, None]
    mu = targets.shape[1]
    G = np.kron(K, np.eye(mu))
    S = G - pick_block(K, targets)
    top = sl.eigh((S + S.conj().T) / 2.0, (G + G.conj().T) / 2.0, eigvals_only=True)[-1]
    return float(np.sqrt(max(top, 0.0)))


# ---------------------------------------------------------------------------
# exact scalar extension disk


def _mp_kernel(kind: str, x, y):
    if kind == "szego":
        return 1 / (1 - mpmath.conj(x) * y)
    if kind == "sobolev":
        lo, hi = min(x, y), max(x, y)
        return mpmath.cosh(lo) * mpmath.cosh(1 - hi) / mpmath.sinh(1)
    raise ValueError(f"no extended-precision {kind} kernel")


def _disk_at(kind: str, pts, lam, q, dps: int):
    """Center and radius of ``{w : P(lam + [w]) >= 0}`` at ``dps`` digits.

    With ``P`` the data's Pick matrix (positive definite), ``k_i = K(x_i, q)``
    and ``m_i = conj(lam_i) k_i``, the Schur complement of the extended Pick
    matrix is ``K(q, q) - a - A |w|^2 + 2 Re(w b)`` with ``a = k* P^-1 k``,
    ``b = k* P^-1 m`` and ``A = K(q, q) + m* P^-1 m``: a disk with center
    ``conj(b) / A`` and squared radius ``(K(q, q) - a) / A + |b|^2 / A^2``.
    """
    with mpmath.workdps(dps):
        mp = (lambda v: mpmath.mpf(float(v))) if kind == "sobolev" else (lambda v: mpmath.mpc(complex(v)))
        x, l, q = [mp(p) for p in pts], [mpmath.mpc(complex(v)) for v in lam], mp(q)
        n = len(x)
        P = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                P[i, j] = _mp_kernel(kind, x[i], x[j]) * (1 - mpmath.conj(l[i]) * l[j])
        L = mpmath.cholesky(P)
        k = [_mp_kernel(kind, xi, q) for xi in x]
        m = [mpmath.conj(li) * ki for li, ki in zip(l, k)]

        def forward(v):  # L^-1 v
            y = []
            for i in range(n):
                y.append((v[i] - mpmath.fsum(L[i, j] * y[j] for j in range(i))) / L[i, i])
            return y

        yk, ym = forward(k), forward(m)
        a = mpmath.fsum(abs(v) ** 2 for v in yk)
        b = mpmath.fsum(mpmath.conj(u) * v for u, v in zip(yk, ym))
        kqq = mpmath.re(_mp_kernel(kind, q, q))
        A = kqq + mpmath.fsum(abs(v) ** 2 for v in ym)
        r2 = (kqq - a) / A + abs(b) ** 2 / A**2
        return mpmath.conj(b) / A, mpmath.sqrt(max(r2, 0))


def exact_disk(kind: str, pts, lam, q):
    """The exact feasible disk of a strictly feasible scalar problem, for the
    points and targets exactly as written (binary64 values)."""
    dps = DISK_DPS
    c, r = _disk_at(kind, pts, lam, q, dps)
    while True:
        dps *= 2
        c2, r2 = _disk_at(kind, pts, lam, q, dps)
        if abs(c - c2) + abs(r - r2) <= DISK_AGREE * r2:
            return c2, r2
        c, r = c2, r2


def disk_boundary_fault(disk, center: complex, radius: float) -> str | None:
    """Why the reported disk is not ``disk`` to within ``DISK_EPS``: each of
    eight boundary directions must be feasible at ``(1 - eps) r`` and
    infeasible at ``(1 + eps) r``. None when it is."""
    c, r = disk
    with mpmath.workdps(DISK_DPS):
        for th in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False):
            u = mpmath.expjpi(mpmath.mpf(th) / mpmath.pi)
            for step, inside in ((1 - DISK_EPS, True), (1 + DISK_EPS, False)):
                w = mpmath.mpc(center) + step * mpmath.mpf(radius) * u
                if (abs(w - c) <= r) is not inside:
                    return (f"{'in' if inside else ''}feasible at {step:g} r in direction {th:.2f}: "
                            f"disk ({center:.9f}, {radius:.3e}), exact ({complex(c):.9f}, {float(r):.3e})")
    return None


def complex_array(v) -> np.ndarray:
    """``[re, im]`` pairs, nested to any depth, as a complex array."""
    a = np.asarray(v, dtype=float)
    return a[..., 0] + 1j * a[..., 1]
