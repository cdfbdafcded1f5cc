"""Pick matrices, multiplication-operator norms, and one-point extensions.

Scalar interpolation data ``(x_i -> lambda_i)`` on a sample is feasible for
a norm-one multiplier exactly when the Pick matrix
``(1 - lambda_j conj(lambda_i)) k(x_i, x_j)`` is PSD (necessary always;
sufficient once the kernel is certified complete Nevanlinna-Pick on the
sample). Matrix data ``(x_i -> Lambda_i)`` with mu-by-nu targets uses the
block Pick matrix whose (i, j) block is

    k(x_i, x_j) * (I_mu - conj(Lambda_i) Lambda_j^T),

the orientation fixed by two construction-time assertions: the assembled
matrix is Hermitian and reduces entrywise to the scalar Pick matrix at
mu = nu = 1. With this orientation the block Pick matrix is PSD exactly
when the diagonal representation operator
``k_i (x) e -> k_i (x) Lambda_i^* e`` is a contraction, which is also how
``rep_operator_norm`` computes the norm (a generalized eigenproblem against
the Gram of the non-orthonormal kernel-function basis).

One-point extension: appending an unknown target at a new point keeps the
extended Pick matrix PSD on a closed disk of targets (scalar) or a matrix
ball ``center + L^{1/2} C R^{1/2}``, ``||C|| <= 1`` (matrix), obtained from
the Schur complement of the extended matrix with respect to the leading
block; both may degenerate to a single point. Singular leading blocks are
handled by restricting to their numerical range, with the leftover linear
constraint pinning (part of) the target.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .certify import certify_cnp
from .errors import DomainError, InfeasibleExtensionError, NotPsdError
from .hermitian import (
    DEFAULT_TOL,
    HermitianMatrix,
    Tolerances,
    _hermitian_part,
    _symmetrized,
    is_psd,
)
from .kernels import Kernel, SampleSet, _points_equal, gram

__all__ = [
    "PickProblem",
    "ExtensionDisk",
    "MatrixBall",
    "SolvabilityReport",
    "VectorCompleteReport",
    "pick_matrix_scalar",
    "pick_matrix_block",
    "rep_operator_norm",
    "solvable",
    "extend_one_point_scalar",
    "extend_one_point_matrix",
    "evaluate_interpolant",
    "vector_vs_complete_check",
]


@dataclass(frozen=True)
class PickProblem:
    """Sample points with scalar or matrix interpolation targets.

    ``targets`` has shape ``(n,)`` for scalar data or ``(n, mu, nu)`` for
    matrix data, aligned with ``sample.points``.
    """

    sample: SampleSet
    targets: np.ndarray

    def __post_init__(self):
        t = np.array(self.targets, dtype=complex)
        if t.ndim not in (1, 3):
            raise DomainError("targets must have shape (n,) or (n, mu, nu)")
        if t.shape[0] != self.sample.n:
            raise DomainError(
                f"target count {t.shape[0]} != point count {self.sample.n}"
            )
        t.setflags(write=False)
        object.__setattr__(self, "targets", t)

    @staticmethod
    def scalar(sample: SampleSet, values) -> "PickProblem":
        v = np.asarray(values, dtype=complex).reshape(-1)
        return PickProblem(sample=sample, targets=v)

    @staticmethod
    def matrix(sample: SampleSet, matrices) -> "PickProblem":
        mats = np.asarray(matrices, dtype=complex)
        if mats.ndim != 3:
            raise DomainError("matrix targets must stack to shape (n, mu, nu)")
        return PickProblem(sample=sample, targets=mats)

    @property
    def is_scalar(self) -> bool:
        return self.targets.ndim == 1

    @property
    def mu(self) -> int:
        return 1 if self.is_scalar else self.targets.shape[1]

    @property
    def nu(self) -> int:
        return 1 if self.is_scalar else self.targets.shape[2]


def _scalar_pick(K: np.ndarray, lam: np.ndarray) -> np.ndarray:
    return (1.0 - np.outer(lam.conj(), lam)) * K


def pick_matrix_scalar(p: PickProblem) -> HermitianMatrix:
    """Pick matrix ``(1 - lambda_j conj(lambda_i)) k(x_i, x_j)``."""
    if not p.is_scalar:
        raise DomainError("pick_matrix_scalar needs scalar targets")
    return _symmetrized(_scalar_pick(p.sample.gram.a, p.targets))


def _block_pick(K: np.ndarray, targets: np.ndarray) -> np.ndarray:
    n, mu, _ = targets.shape
    W = targets.conj()
    # blocks[i, :, j, :] = K[i, j] * (I - W_i W_j^H)
    prod = np.einsum("iac,jbc->iajb", W, W.conj())
    eye = np.zeros_like(prod)
    eye[:, np.arange(mu), :, np.arange(mu)] = 1.0
    blocks = K[:, None, :, None] * (eye - prod)
    return blocks.reshape(n * mu, n * mu)


def pick_matrix_block(p: PickProblem) -> HermitianMatrix:
    """Block Pick matrix for matrix-valued targets (n*mu square).

    Reduces entrywise to ``pick_matrix_scalar`` at mu = nu = 1; both this and
    Hermiticity are asserted at construction.
    """
    if p.is_scalar:
        raise DomainError("pick_matrix_block needs matrix targets")
    K = p.sample.gram.a
    P = _block_pick(K, p.targets)
    scale = max(1.0, float(np.max(np.abs(P))))
    if np.max(np.abs(P - P.conj().T)) > 1e-12 * scale:
        raise AssertionError("block Pick matrix lost Hermiticity")
    if p.mu == 1 and p.nu == 1:
        ref = _scalar_pick(K, p.targets[:, 0, 0])
        if np.max(np.abs(P - ref)) > 1e-12 * scale:
            raise AssertionError("block Pick matrix does not reduce to scalar case")
    return _symmetrized(P)


def rep_operator_norm(p: PickProblem, tol: Tolerances = DEFAULT_TOL) -> float:
    """Operator norm of the diagonal representation operator on the sample.

    Computed as the largest generalized eigenvalue of the pencil
    ``(S, G)`` where ``G`` is the Gram of the kernel-function basis (tensored
    with an identity for matrix targets) and ``S`` is the Gram of the mapped
    basis. A numerically singular ``G`` triggers a condition warning and the
    pencil is solved on its range.
    """
    K = p.sample.gram.a
    if p.is_scalar:
        lam = p.targets
        S = np.outer(lam.conj(), lam) * K
        G = K
    else:
        W = p.targets.conj()
        S = (K[:, None, :, None] * np.einsum("iac,jbc->iajb", W, W.conj())).reshape(
            p.sample.n * p.mu, p.sample.n * p.mu
        )
        G = np.kron(K, np.eye(p.mu))
    wg, vg = np.linalg.eigh(_hermitian_part(G))
    keep = wg > tol.zero_threshold(wg)
    if not np.all(keep):
        warnings.warn(
            "Gram matrix numerically singular; operator norm computed on its range",
            stacklevel=2,
        )
    T = vg[:, keep] / np.sqrt(wg[keep])
    Ms = T.conj().T @ _hermitian_part(S) @ T
    w = np.linalg.eigvalsh(_hermitian_part(Ms))
    top = float(w[-1]) if w.size else 0.0
    return float(np.sqrt(max(top, 0.0)))


@dataclass(frozen=True)
class SolvabilityReport:
    """Pick-matrix feasibility verdict plus certification context.

    When ``cnp_certified`` is True the verdict means an interpolating
    multiplier of norm at most one exists on the sample; otherwise PSD is
    reported as the necessary condition only.
    """

    solvable: bool
    min_eigenvalue: float
    eigenvector: np.ndarray
    cnp_certified: bool
    note: str


def solvable(p: PickProblem, tol: Tolerances = DEFAULT_TOL) -> SolvabilityReport:
    """Feasibility test for a Pick problem (scalar or matrix targets)."""
    P = pick_matrix_scalar(p) if p.is_scalar else pick_matrix_block(p)
    rep = is_psd(P, tol)
    cert = certify_cnp(p.sample, tol)
    if cert.verdict:
        note = (
            "kernel certified complete Nevanlinna-Pick on this sample: Pick "
            "matrix positivity is equivalent to existence of an interpolating "
            "multiplier of norm <= 1"
        )
    else:
        note = (
            "kernel not certified on this sample: Pick matrix positivity is "
            "reported as the necessary condition only"
        )
    return SolvabilityReport(
        solvable=rep.ok,
        min_eigenvalue=rep.min_eigenvalue,
        eigenvector=rep.eigenvector,
        cnp_certified=cert.verdict,
        note=note,
    )


@dataclass(frozen=True)
class ExtensionDisk:
    """Closed disk of scalar targets keeping the extended Pick matrix PSD."""

    center: complex
    radius: float


@dataclass(frozen=True)
class MatrixBall:
    """Matrix targets ``center + left^{1/2} C right^{1/2}``, ``||C|| <= 1``.

    ``left_factor`` (mu x mu) and ``right_factor`` (nu x nu) are PSD; the
    center itself is feasible. Zero factors mean the extension is unique.
    """

    center: np.ndarray
    left_factor: np.ndarray
    right_factor: np.ndarray


def _problem_data(p) -> tuple[Kernel, list, list]:
    """Unpack a PickProblem (or a bare Kernel, meaning empty data)."""
    if isinstance(p, Kernel):
        return p, [], []
    if not isinstance(p, PickProblem):
        raise DomainError("expected a PickProblem or a Kernel (for empty data)")
    return p.sample.kernel, list(p.sample.points), list(p.targets)


def _extended_gram(kernel: Kernel, pts: list, new_point, tol: Tolerances):
    q = kernel.coerce_point(new_point)
    for i, existing in enumerate(pts):
        if _points_equal(existing, q):
            raise DomainError(f"new point duplicates sample point {i}")
    return gram(kernel, pts + [q], tol).gram.a, q


def _range_split(P: np.ndarray, tol: Tolerances):
    """Eigen-split of a PSD-within-tolerance matrix into range and null parts."""
    w, V = np.linalg.eigh(P)
    floor = tol.psd_floor(w)
    if w.size and w[0] < floor:
        raise NotPsdError(
            f"leading Pick block is not PSD (min eigenvalue {w[0]:.6e}); "
            "the data is not solvable",
            min_eigenvalue=float(w[0]),
        )
    keep = w > tol.zero_threshold(w)
    return w[keep], V[:, keep], V[:, ~keep], -floor


def _scalar_disk(K_ext: np.ndarray, lam: np.ndarray, tol: Tolerances):
    """Feasible-target disk for the extended scalar Pick matrix.

    The Schur complement of the leading block is the real quadratic
    ``s(t) = (kzz - e) + 2 Re(t conj(b)) - |t|^2 (kzz + a)`` whose
    nonnegativity region is the disk ``|t - b/(kzz+a)|^2 <= r^2``. On a
    singular leading block the range constraint either leaves the disk
    unchanged or pins the target to a single least-squares point.
    """
    n = len(lam)
    kzz = float(K_ext[n, n].real)
    if n == 0:
        return complex(0.0), 1.0
    K = K_ext[:n, :n]
    u = K_ext[:n, n]
    P = _hermitian_part(_scalar_pick(K, lam))
    wk, Vr, Vp, slack = _range_split(P, tol)
    v = lam.conj() * u
    ur, vr = Vr.conj().T @ u, Vr.conj().T @ v
    e = float(np.sum(np.abs(ur) ** 2 / wk))
    a = float(np.sum(np.abs(vr) ** 2 / wk))
    b = complex(np.sum(vr.conj() * ur / wk))
    denom = kzz + a
    center = b / denom
    rad2 = (kzz - e) / denom + abs(b) ** 2 / denom**2

    uc, vc = Vp.conj().T @ u, Vp.conj().T @ v
    cut = np.sqrt(slack * max(1.0, kzz))
    nu_perp, nv_perp = float(np.linalg.norm(uc)), float(np.linalg.norm(vc))
    if nv_perp <= cut:
        if nu_perp > cut:
            raise InfeasibleExtensionError(
                "new kernel column leaves the range of the Pick matrix; no "
                "target is feasible",
                witness={"residual": nu_perp},
            )
        if denom * rad2 < -slack:
            raise InfeasibleExtensionError(
                "extension disk is empty beyond tolerance - a complete "
                "Nevanlinna-Pick violation witness",
                witness={"schur_max": denom * rad2, "slack": slack},
            )
        return center, float(np.sqrt(max(rad2, 0.0)))

    # Singular leading block with an active range constraint: the target is
    # pinned to the least-squares solution of u_perp - t * v_perp = 0.
    pin = complex(np.vdot(vc, uc) / np.vdot(vc, vc))
    resid = float(np.linalg.norm(uc - pin * vc))
    if resid > cut:
        raise InfeasibleExtensionError(
            "range constraint of the singular Pick block is unsatisfiable",
            witness={"residual": resid},
        )
    s_at_pin = denom * (rad2 - abs(pin - center) ** 2)
    if s_at_pin < -slack:
        raise InfeasibleExtensionError(
            "pinned target violates the Schur-complement constraint",
            witness={"pinned": [pin.real, pin.imag], "schur_value": s_at_pin},
        )
    return pin, 0.0


def extend_one_point_scalar(
    p, new_point, tol: Tolerances = DEFAULT_TOL
) -> ExtensionDisk:
    """Disk of feasible targets at a new point for scalar data.

    ``p`` is a solvable scalar ``PickProblem``, or a bare ``Kernel`` for
    empty data (then the answer is the closed unit disk). The center is
    verified feasible by re-assembling the extended Pick matrix; emptiness
    beyond tolerance raises ``InfeasibleExtensionError`` and refutes the
    complete Nevanlinna-Pick property of the kernel.
    """
    kernel, pts, lam = _problem_data(p)
    if not isinstance(p, Kernel) and not p.is_scalar:
        raise DomainError("extend_one_point_scalar needs scalar targets")
    K_ext, _ = _extended_gram(kernel, pts, new_point, tol)
    lam = np.asarray(lam, dtype=complex)
    center, radius = _scalar_disk(K_ext, lam, tol)
    lam_ext = np.append(lam, center)
    rep = is_psd(_symmetrized(_scalar_pick(K_ext, lam_ext)), tol)
    if not rep.ok:
        raise InfeasibleExtensionError(
            "disk center failed post-hoc PSD verification",
            witness={"min_eigenvalue": rep.min_eigenvalue},
        )
    return ExtensionDisk(center=center, radius=radius)


def extend_one_point_matrix(
    p: PickProblem, new_point, tol: Tolerances = DEFAULT_TOL
) -> MatrixBall:
    """Matrix ball of feasible targets at a new point for matrix data.

    Works in conjugated coordinates ``W_i = conj(Lambda_i)`` where the block
    Pick matrix has the textbook form; the Schur complement of the extended
    matrix is the quadratic matrix inequality

        (kzz I - E) + W B + B^* W^* - W (kzz I + A) W^*  >=  0,

    and completing the square gives center ``B^* T^{-1}`` (``T = kzz I + A``)
    with left radius factor ``kzz I - E + B^* T^{-1} B`` and right factor
    ``T^{-1}``. The returned ball is expressed back in target coordinates.
    The center is always verified feasible post hoc.
    """
    if p.is_scalar:
        raise DomainError("extend_one_point_matrix needs matrix targets")
    kernel, pts, _ = _problem_data(p)
    n, mu, nu = p.sample.n, p.mu, p.nu
    K_ext, q = _extended_gram(kernel, pts, new_point, tol)
    kcol = K_ext[:n, n]
    kzz = float(K_ext[n, n].real)

    Q = pick_matrix_block(p).a
    Wt = p.targets.conj()
    U = np.kron(kcol.reshape(n, 1), np.eye(mu))
    V = (kcol[:, None, None] * Wt).reshape(n * mu, nu)

    wk, Vr, Vp, slack = _range_split(Q, tol)
    Ur, Vrng = Vr.conj().T @ U, Vr.conj().T @ V
    E = Ur.conj().T @ (Ur / wk[:, None])
    A = Vrng.conj().T @ (Vrng / wk[:, None])
    B = Vrng.conj().T @ (Ur / wk[:, None])
    T = kzz * np.eye(nu) + _hermitian_part(A)
    W0 = np.linalg.solve(T, B).conj().T
    RL = _hermitian_part(kzz * np.eye(mu) - E + W0 @ B)

    wl, Vl = np.linalg.eigh(RL)
    if wl[0] < -slack:
        raise InfeasibleExtensionError(
            "matrix extension ball is empty beyond tolerance - a complete "
            "Nevanlinna-Pick violation witness",
            witness={"left_factor_min_eigenvalue": float(wl[0])},
        )
    RL_psd = (Vl * np.maximum(wl, 0.0)) @ Vl.conj().T
    wt, Vt = np.linalg.eigh(T)
    T_inv = (Vt / wt) @ Vt.conj().T

    Uc, Vc = Vp.conj().T @ U, Vp.conj().T @ V
    cut = np.sqrt(slack * max(1.0, kzz))
    right = T_inv
    center_W = W0
    if max(np.linalg.norm(Uc), np.linalg.norm(Vc)) > cut:
        # Null-space constraint Uc = Vc W^*: least-squares pin, then keep the
        # free directions (if any) aligned with the unconstrained center.
        Wstar, _, rank, _ = np.linalg.lstsq(Vc, Uc, rcond=None)
        resid = float(np.linalg.norm(Vc @ Wstar - Uc))
        if resid > cut:
            raise InfeasibleExtensionError(
                "range constraint of the singular block Pick matrix is "
                "unsatisfiable",
                witness={"residual": resid},
            )
        if rank >= nu:
            center_W = Wstar.conj().T
            RL_psd = np.zeros((mu, mu))
            right = np.zeros((nu, nu))
        else:
            Ppin = np.linalg.pinv(Vc) @ Vc
            free = np.eye(nu) - Ppin
            center_W = (Wstar + free @ W0.conj().T).conj().T
            right = _hermitian_part(free @ T_inv @ free.conj().T)

    center = center_W.conj()
    ext_targets = np.concatenate([p.targets, center[np.newaxis]], axis=0)
    P_ext = _symmetrized(_block_pick(K_ext, ext_targets))
    rep = is_psd(P_ext, tol)
    if not rep.ok:
        raise InfeasibleExtensionError(
            "ball center failed post-hoc PSD verification",
            witness={"min_eigenvalue": rep.min_eigenvalue},
        )
    return MatrixBall(
        center=center,
        left_factor=RL_psd.conj(),
        right_factor=right.conj(),
    )


def evaluate_interpolant(p, eval_points, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Greedy multiplier values via repeated norm-preserving extension.

    At each evaluation point the extension disk is computed and its center
    committed as the value; the committed pair joins the data before the
    next step, so every prefix of the extended problem stays solvable within
    tolerance. The center is the most-interior choice, which keeps later
    Schur complements well conditioned.
    """
    kernel, pts, lam = _problem_data(p)
    if not isinstance(p, Kernel) and not p.is_scalar:
        raise DomainError("evaluate_interpolant needs scalar targets")
    coerced = [kernel.coerce_point(q) for q in eval_points]
    for i in range(len(coerced)):
        for j in range(i + 1, len(coerced)):
            if _points_equal(coerced[i], coerced[j]):
                raise DomainError(f"evaluation points {i} and {j} coincide")
    values = []
    lam = list(lam)
    for q in coerced:
        K_ext, q = _extended_gram(kernel, pts, q, tol)
        center, _ = _scalar_disk(K_ext, np.asarray(lam, dtype=complex), tol)
        values.append(center)
        pts.append(q)
        lam.append(center)
    return np.asarray(values, dtype=complex)


@dataclass(frozen=True)
class VectorCompleteReport:
    """Outcome of the row-targets-versus-matrix-targets extension check.

    Each trial is a feasible row problem (mu = 1, nu = n - 1); infeasible
    random draws are rejected and counted in ``rejected_draws``. Per trial,
    the row extension at the held-out point is attempted, then the same data
    stacked with zero rows to each mu in ``mu_values``. ``failures`` lists
    trials where a feasible problem refused to extend, or where the row case
    extended but a stacked case did not; for a kernel with the complete
    Nevanlinna-Pick property it must stay empty.
    """

    trials: int
    nu: int
    mu_values: tuple[int, ...]
    rejected_draws: int
    row_feasible: int
    row_extension_ok: int
    matrix_extension_ok: tuple[tuple[int, int], ...]
    failures: tuple[dict, ...]


def vector_vs_complete_check(
    sample: SampleSet,
    trials: int,
    tol: Tolerances = DEFAULT_TOL,
    *,
    seed: int = 1729,
    mu_values: tuple[int, ...] = (3,),
) -> VectorCompleteReport:
    """Probe the equivalence of row-valued and matrix-valued extendability.

    Uses the sample's first ``n - 1`` points as data and its last point as
    the extension target; row targets are drawn at random with a fixed seed
    until ``trials`` feasible problems have been examined. Failures are
    findings, recorded in the report rather than raised.
    """
    n = sample.n
    if n < 2:
        raise DomainError("vector_vs_complete_check needs at least 2 points")
    nu = n - 1
    kernel = sample.kernel
    data_points = list(sample.points[:-1])
    ext_point = sample.points[-1]
    data_sample = gram(kernel, data_points, tol)

    rng = np.random.default_rng(seed)
    rejected = 0
    row_feasible = 0
    row_ext_ok = 0
    mat_ok = {m: 0 for m in mu_values}
    failures: list[dict] = []
    max_draws = 200 * trials

    for _ in range(max_draws):
        if row_feasible >= trials:
            break
        rows = []
        for _ in range(n - 1):
            w = rng.standard_normal(nu) + 1j * rng.standard_normal(nu)
            w = w / max(np.linalg.norm(w), 1e-12) * rng.uniform(0.0, 0.95)
            rows.append(w.reshape(1, nu))
        rows = np.asarray(rows)
        p_row = PickProblem.matrix(data_sample, rows)
        if not is_psd(pick_matrix_block(p_row), tol).ok:
            rejected += 1
            continue
        t = row_feasible
        row_feasible += 1
        try:
            extend_one_point_matrix(p_row, ext_point, tol)
            row_ext_ok += 1
        except InfeasibleExtensionError as exc:
            failures.append(
                {"trial": t, "stage": "row_extension", "detail": str(exc)}
            )
            continue
        for m in mu_values:
            stacked = np.concatenate(
                [rows, np.zeros((n - 1, m - 1, nu))], axis=1
            )
            p_mat = PickProblem.matrix(data_sample, stacked)
            try:
                extend_one_point_matrix(p_mat, ext_point, tol)
                mat_ok[m] += 1
            except InfeasibleExtensionError as exc:
                failures.append(
                    {"trial": t, "stage": f"mu={m}", "detail": str(exc)}
                )
    return VectorCompleteReport(
        trials=row_feasible,
        nu=nu,
        mu_values=tuple(mu_values),
        rejected_draws=rejected,
        row_feasible=row_feasible,
        row_extension_ok=row_ext_ok,
        matrix_extension_ok=tuple(sorted(mat_ok.items())),
        failures=tuple(failures),
    )
