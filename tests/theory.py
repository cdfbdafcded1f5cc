"""Theory oracles that only the tests use.

Written apart from the kit's own formulas so that tests can compare the two:
Schur products and complements, the entrywise reciprocal, the inertia of a
block-diagonal congruence, the intermediate ``m_matrix`` that ties the F
test to the H test by congruence, normalization at a base point, the
Dirichlet kernel's closed form, the scalar Pick matrix entry by entry, and
the greedy interpolant computed one Gram per step, or exactly for Szegő data.
"""

import cmath

import mpmath
import numpy as np

from cnpkit import (
    DEFAULT_TOL,
    CnpkitError,
    DomainError,
    ExplicitGram,
    HermitianMatrix,
    Inertia,
    ReducibleKernelError,
    SampleSet,
    Tolerances,
    as_hermitian,
    gram,
)
from cnpkit.interpolate import _schur_extension


class SingularBlockError(CnpkitError):
    """A matrix block that must be inverted is numerically singular."""


def hadamard(A, B) -> HermitianMatrix:
    """Entrywise (Schur) product of two Hermitian matrices of equal size."""
    ha, hb = as_hermitian(A), as_hermitian(B)
    if ha.dim != hb.dim:
        raise ValueError(f"dimension mismatch: {ha.dim} vs {hb.dim}")
    return HermitianMatrix(ha.a * hb.a)


def schur_complement(A, tail_size: int, tol: Tolerances = DEFAULT_TOL) -> HermitianMatrix:
    """Schur complement of the trailing ``tail_size`` block.

    For ``A = [[H, B], [B*, C]]`` with ``C`` the trailing block, returns
    ``H - B C^{-1} B*``. ``A`` is congruent to ``diag(complement, C)``, so
    inertia decomposes as ``inertia(A) = inertia_sum(inertia(complement), inertia(C))``.
    """
    h = as_hermitian(A)
    n = h.dim
    if not 1 <= tail_size < n:
        raise ValueError(f"tail_size must be in [1, {n - 1}], got {tail_size}")
    head = n - tail_size
    C = h.a[head:, head:]
    wc = np.linalg.eigvalsh(C)
    if np.min(np.abs(wc)) <= tol.zero_threshold(np.linalg.eigvalsh(h.a)):
        raise SingularBlockError(
            f"trailing {tail_size}x{tail_size} block is numerically singular "
            f"(|eigenvalue| {np.min(np.abs(wc)):.3e})"
        )
    B = h.a[:head, head:]
    comp = h.a[:head, :head] - B @ np.linalg.solve(C, B.conj().T)
    return HermitianMatrix((comp + comp.conj().T) / 2.0)


def inertia_sum(*parts: Inertia) -> Inertia:
    """Sign counts of a block-diagonal matrix: its blocks' counts added."""
    return Inertia(*map(sum, zip(*(p.as_tuple() for p in parts))))


def _check_nonzero(K: np.ndarray, tol: Tolerances) -> None:
    small = tol.zero_entries(K)
    if np.any(small):
        i, j = map(int, np.argwhere(small)[0])
        raise ReducibleKernelError(
            f"entry ({i}, {j}) is zero within tolerance; the kernel is reducible",
            index=(i, j),
        )


def reciprocal_entrywise(A, tol: Tolerances = DEFAULT_TOL) -> HermitianMatrix:
    """Entrywise reciprocal; every entry must be nonzero by ``tol.zero_entries``."""
    h = as_hermitian(A)
    _check_nonzero(h.a, tol)
    return HermitianMatrix(1.0 / h.a)


def m_matrix(sample_or_gram, base: int, tol: Tolerances = DEFAULT_TOL) -> HermitianMatrix:
    """``M[i, j] = k_bb / (k_ib k_bj) - 1 / k_ij`` over the non-base indices.

    The entrywise product of ``f_matrix`` with the nowhere-zero rank-one PSD
    matrix ``k_bb / (k_ib k_bj)``, so M is PSD exactly when F is. It is also
    the negated Schur complement of the base entry inside ``h_matrix``.
    """
    K = sample_or_gram.gram.a if isinstance(sample_or_gram, SampleSet) else as_hermitian(sample_or_gram).a
    _check_nonzero(K, tol)
    idx = [i for i in range(K.shape[0]) if i != base]
    kbb = K[base, base].real
    M = kbb / np.outer(K[idx, base], K[base, idx]) - 1.0 / K[np.ix_(idx, idx)]
    return HermitianMatrix((M + M.conj().T) / 2.0)


def normalize_at(sample: SampleSet, base: int, tol: Tolerances = DEFAULT_TOL):
    """Rescale the sample so the base row of the Gram is identically one.

    Returns ``(normalized_sample, delta)`` with
    ``gram'[i, j] = k_bb * gram[i, j] / (gram[i, b] * gram[b, j])`` and
    ``delta[j] = gram[b, j] / sqrt(k_bb)``, so that
    ``gram[i, j] = conj(delta[i]) * delta[j] * gram'[i, j]``.
    """
    K = sample.gram.a
    n = sample.n
    if not 0 <= base < n:
        raise DomainError(f"base index {base} out of range [0, {n})")
    small = tol.zero_entries(K)[base]
    if np.any(small):
        j = int(np.flatnonzero(small)[0])
        raise ReducibleKernelError(
            f"gram({base}, {j}) is zero: the sample is reducible at the base row",
            index=(base, j),
        )
    row = K[base, :]
    k00 = float(K[base, base].real)
    Kp = k00 * K / np.outer(row.conj(), row)
    normalized = SampleSet(
        kernel=ExplicitGram(Kp, labels=sample.point_labels()),
        points=tuple(range(n)),
        gram=as_hermitian(Kp),
    )
    return normalized, row / np.sqrt(k00)


def dirichlet_closed_form(w: complex) -> complex:
    """``-log(1 - w) / w``, with the removable value 1 at ``w = 0``."""
    w = complex(w)
    return 1.0 + 0j if w == 0 else -cmath.log(1.0 - w) / w


def pick_scalar(K, lam) -> np.ndarray:
    """Scalar Pick matrix ``P[i, j] = (1 - conj(lam_i) lam_j) K[i, j]``, entry by entry."""
    K = np.asarray(K, dtype=complex)
    lam = np.asarray(lam, dtype=complex)
    n = len(lam)
    P = np.empty((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            P[i, j] = (1.0 - lam[i].conjugate() * lam[j]) * K[i, j]
    return P


def greedy_values_stepwise(p, eval_points, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Greedy interpolant values of a ``PickProblem`` with 1x1 targets, one step at a time.

    Each step assembles and validates the Gram of its own prefix with
    ``gram``, extends by ``_schur_extension`` and commits the center, so the
    result does not rely on slicing one Gram of all the points.
    """
    pts, lam = list(p.sample.points), list(p.targets.reshape(-1))
    for q in eval_points:
        K = gram(p.sample.kernel, pts + [q], tol).gram.a
        targets = np.asarray(lam, dtype=complex).reshape(-1, 1, 1)
        lam.append(complex(_schur_extension(K, targets, tol)[0][0, 0]))
        pts.append(q)
    return np.asarray(lam[p.sample.n:], dtype=complex)


def szego_greedy_values_exact(p, eval_points, dps: int = 60) -> np.ndarray:
    """Greedy interpolant values of scalar Szegő data at ``dps`` digits.

    With ``P`` the Pick matrix of the points so far, ``k_i = k(x_i, q)`` and
    ``m_i = conj(lam_i) k_i``, the Schur complement of the extended Pick
    matrix at ``q`` is ``k(q, q) - k* P^-1 k + 2 Re(w k* P^-1 m) - A |w|^2``
    with ``A = k(q, q) + m* P^-1 m``, whose maximum sits at the disk center
    ``conj(k* P^-1 m) / A``. Each center is committed at full precision, so
    the path is the exact greedy path of the data as written (binary64).
    """
    with mpmath.workdps(dps):
        x = [mpmath.mpc(complex(z)) for z in p.sample.points]
        lam = [mpmath.mpc(complex(v)) for v in p.targets.reshape(-1)]
        values = []
        for q in eval_points:
            q = mpmath.mpc(complex(q))
            n = len(x)
            P = mpmath.matrix(n, n)
            for i in range(n):
                for j in range(n):
                    P[i, j] = (1 - mpmath.conj(lam[i]) * lam[j]) / (1 - mpmath.conj(x[i]) * x[j])
            k = mpmath.matrix([1 / (1 - mpmath.conj(xi) * q) for xi in x])
            m = mpmath.matrix([mpmath.conj(li) * ki for li, ki in zip(lam, k)])
            Pm = mpmath.lu_solve(P, m)
            b = sum(mpmath.conj(k[i]) * Pm[i] for i in range(n))
            A = 1 / (1 - abs(q) ** 2) + sum(mpmath.conj(m[i]) * Pm[i] for i in range(n)).real
            values.append(mpmath.conj(b) / A)
            x.append(q)
            lam.append(values[-1])
        return np.array([complex(v) for v in values])
