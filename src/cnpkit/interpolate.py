"""Pick matrices, multiplication-operator norms, and one-point extensions.

Data ``(x_i -> Lambda_i)`` with mu-by-nu targets is feasible for a norm-one
multiplier exactly when the block Pick matrix whose (i, j) block is

    k(x_i, x_j) * (I_mu - conj(Lambda_i) Lambda_j^T)

is PSD (necessary always; sufficient once the kernel is certified complete
Nevanlinna-Pick on the sample). Scalar data ``(x_i -> lambda_i)`` is the
1x1 case, targets of shape (n, 1, 1), where the formula reads
``(1 - conj(lambda_i) lambda_j) k(x_i, x_j)``; every Pick quantity comes
from this one formula. The block Pick matrix is PSD exactly when the
diagonal representation operator ``k_i (x) e -> k_i (x) Lambda_i^* e`` is a
contraction, which is also how ``rep_operator_norm`` computes the norm (a
generalized eigenproblem against the Gram of the non-orthonormal
kernel-function basis).

One-point extension: appending an unknown target at a new point keeps the
extended Pick matrix PSD on a matrix ball ``center + L^{1/2} C R^{1/2}``,
``||C|| <= 1``, obtained from the Schur complement of the extended matrix
with respect to the leading block; the scalar disk is its 1x1 case, with
radius ``sqrt(L R)``. Singular leading blocks are handled by restricting to
their numerical range, with the leftover linear constraint pinning (part
of) the target. One check decides feasibility: the Schur complement at the
returned center must be PSD within tolerance.
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
from .kernels import Kernel, SampleSet, _first_equal_pair, _require_psd, gram

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


def _blocks(p: PickProblem) -> np.ndarray:
    """The targets as an (n, mu, nu) stack: scalar data is the 1x1 case."""
    return p.targets.reshape(p.sample.n, p.mu, p.nu)


def _target_products(targets: np.ndarray) -> np.ndarray:
    """``prod[i, :, j, :] = conj(Lambda_i) Lambda_j^T`` for an (n, mu, nu) stack."""
    return np.einsum("iac,jbc->iajb", targets.conj(), targets)


def _block_pick(K: np.ndarray, targets: np.ndarray) -> np.ndarray:
    n, mu, _ = targets.shape
    prod = _target_products(targets)
    eye = np.zeros_like(prod)
    eye[:, np.arange(mu), :, np.arange(mu)] = 1.0
    return (K[:, None, :, None] * (eye - prod)).reshape(n * mu, n * mu)


def pick_matrix_scalar(p: PickProblem) -> HermitianMatrix:
    """Pick matrix ``(1 - lambda_j conj(lambda_i)) k(x_i, x_j)``."""
    if not p.is_scalar:
        raise DomainError("pick_matrix_scalar needs scalar targets")
    return _symmetrized(_block_pick(p.sample.gram.a, _blocks(p)))


def pick_matrix_block(p: PickProblem) -> HermitianMatrix:
    """Block Pick matrix for matrix-valued targets (n*mu square).

    Hermiticity is asserted at construction.
    """
    if p.is_scalar:
        raise DomainError("pick_matrix_block needs matrix targets")
    P = _block_pick(p.sample.gram.a, p.targets)
    scale = max(1.0, float(np.max(np.abs(P))))
    if np.max(np.abs(P - P.conj().T)) > 1e-12 * scale:
        raise AssertionError("block Pick matrix lost Hermiticity")
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
    size = p.sample.n * p.mu
    S = (K[:, None, :, None] * _target_products(_blocks(p))).reshape(size, size)
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


def _extended_gram(kernel: Kernel, pts: list, new_points, tol: Tolerances) -> np.ndarray:
    """Gram of ``pts`` then ``new_points`` from one ``gram`` call, held to the
    PSD floor of its smallest prefix, ``pts`` plus one point: by Cauchy
    interlacing every longer prefix then passes ``gram``'s check on its own."""
    qs = [kernel.coerce_point(q) for q in new_points]
    if pair := _first_equal_pair(qs):
        raise DomainError(f"evaluation points {pair[0]} and {pair[1]} coincide")
    if pair := _first_equal_pair(qs, pts):
        raise DomainError(f"new point duplicates sample point {pair[1]}")
    K = gram(kernel, pts + qs, tol).gram.a
    m = len(pts) + 1
    if K.shape[0] > m:
        _require_psd(np.linalg.eigvalsh(K)[0], tol.psd_floor(np.linalg.eigvalsh(K[:m, :m])))
    return K


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


def _schur_extension(K_ext: np.ndarray, targets: np.ndarray, tol: Tolerances):
    """Feasible targets at the last point of ``K_ext`` for (n, mu, nu) targets.

    Works in conjugated coordinates ``W_i = conj(Lambda_i)`` where the block
    Pick matrix has the textbook form; the Schur complement of the extended
    matrix with respect to its leading block is the mu-by-mu value

        S(W) = (kzz I - E) + W B + B^* W^* - W (kzz I + A) W^*,

    and completing the square writes it as ``RL - (W - W0) T (W - W0)^*``
    with ``T = kzz I + A``, center ``W0 = B^* T^{-1}`` and
    ``RL = kzz I - E + W0 B``: the ball has left factor ``RL`` and right
    factor ``T^{-1}``. A singular leading block adds the constraint
    ``Uc = Vc W^*`` on its null space: the singular values of ``Vc`` above
    the range cut pin those target directions, and the rest of ``Uc`` must
    vanish. The one feasibility check is ``S >= -slack`` at the returned
    center, whose PSD part is the left factor (``RL`` when nothing is
    pinned). Returns center, left and right factor in target coordinates;
    both factors are zero when every direction is pinned.
    """
    n, mu, nu = targets.shape
    kcol = K_ext[:n, n]
    kzz = float(K_ext[n, n].real)
    U = np.kron(kcol.reshape(n, 1), np.eye(mu))
    V = (kcol[:, None, None] * targets.conj()).reshape(n * mu, nu)

    Q = _hermitian_part(_block_pick(K_ext[:n, :n], targets))
    wk, Vr, Vp, slack = _range_split(Q, tol)
    Ur, Vrng = Vr.conj().T @ U, Vr.conj().T @ V
    E = Ur.conj().T @ (Ur / wk[:, None])
    A = Vrng.conj().T @ (Vrng / wk[:, None])
    B = Vrng.conj().T @ (Ur / wk[:, None])
    T = kzz * np.eye(nu) + _hermitian_part(A)
    W0 = np.linalg.solve(T, B).conj().T
    RL = _hermitian_part(kzz * np.eye(mu) - E + W0 @ B)
    wt, Vt = np.linalg.eigh(T)
    right = (Vt / wt) @ Vt.conj().T

    Uc, Vc = Vp.conj().T @ U, Vp.conj().T @ V
    cut = np.sqrt(slack * max(1.0, kzz))
    Y, s, Zh = np.linalg.svd(Vc, full_matrices=False)
    r = int(np.sum(s > cut))
    Y, Zh = Y[:, :r], Zh[:r]
    coef = Y.conj().T @ Uc
    resid = float(np.linalg.norm(Uc - Y @ coef))
    if resid > cut:
        raise InfeasibleExtensionError(
            "new kernel column leaves the range of the singular Pick matrix; "
            "no target is feasible",
            witness={"residual": resid},
        )
    center = W0
    if r:
        # Pin W^* on the rows of Zh; keep the unconstrained center elsewhere.
        free = np.eye(nu) - Zh.conj().T @ Zh if r < nu else np.zeros((nu, nu))
        center = (Zh.conj().T @ (coef / s[:r, None]) + free @ W0.conj().T).conj().T
        right = _hermitian_part(free @ right @ free.conj().T)
    D = center - W0
    ws, Vs = np.linalg.eigh(_hermitian_part(RL - D @ T @ D.conj().T))
    if ws[0] < -slack:
        raise InfeasibleExtensionError(
            "Schur complement at the extension center is not PSD beyond "
            "tolerance - a complete Nevanlinna-Pick violation witness",
            witness={
                "schur_min_eigenvalue": float(ws[0]),
                "slack": slack,
                "center": center.conj(),
            },
        )
    left = np.zeros((mu, mu)) if r == nu else (Vs * np.maximum(ws, 0.0)) @ Vs.conj().T
    return center.conj(), left.conj(), right.conj()


def _verified_extension(K_ext: np.ndarray, targets: np.ndarray, tol: Tolerances):
    """``_schur_extension`` with its center checked on the extended Pick matrix."""
    center, left, right = _schur_extension(K_ext, targets, tol)
    ext = np.concatenate([targets, center[np.newaxis]], axis=0)
    rep = is_psd(_symmetrized(_block_pick(K_ext, ext)), tol)
    if not rep.ok:
        raise InfeasibleExtensionError(
            "extension center failed post-hoc PSD verification",
            witness={"min_eigenvalue": rep.min_eigenvalue},
        )
    return center, left, right


def extend_one_point_scalar(
    p, new_point, tol: Tolerances = DEFAULT_TOL
) -> ExtensionDisk:
    """Disk of feasible targets at a new point for scalar data.

    ``p`` is a solvable scalar ``PickProblem``, or a bare ``Kernel`` for
    empty data (then the answer is the closed unit disk). The disk is the
    1x1 case of the matrix ball: center ``C[0, 0]`` and radius
    ``sqrt(L[0, 0] R[0, 0])``. The center is verified feasible by
    re-assembling the extended Pick matrix; emptiness beyond tolerance
    raises ``InfeasibleExtensionError`` and refutes the complete
    Nevanlinna-Pick property of the kernel.
    """
    kernel, pts, lam = _problem_data(p)
    if not isinstance(p, Kernel) and not p.is_scalar:
        raise DomainError("extend_one_point_scalar needs scalar targets")
    K_ext = _extended_gram(kernel, pts, [new_point], tol)
    targets = np.asarray(lam, dtype=complex).reshape(-1, 1, 1)
    C, L, R = _verified_extension(K_ext, targets, tol)
    return ExtensionDisk(
        center=complex(C[0, 0]), radius=float(np.sqrt(L[0, 0].real * R[0, 0].real))
    )


def extend_one_point_matrix(
    p: PickProblem, new_point, tol: Tolerances = DEFAULT_TOL
) -> MatrixBall:
    """Matrix ball of feasible targets at a new point for matrix data.

    The ball ``center + L^{1/2} C R^{1/2}`` comes from the Schur complement
    of the extended block Pick matrix (see ``_schur_extension``); the center
    is always verified feasible post hoc.
    """
    if p.is_scalar:
        raise DomainError("extend_one_point_matrix needs matrix targets")
    kernel, pts, _ = _problem_data(p)
    K_ext = _extended_gram(kernel, pts, [new_point], tol)
    center, left, right = _verified_extension(K_ext, p.targets, tol)
    return MatrixBall(center=center, left_factor=left, right_factor=right)


def evaluate_interpolant(p, eval_points, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Greedy multiplier values via repeated norm-preserving extension.

    At each evaluation point the extension disk is computed and its center
    committed as the value; the committed pair joins the data before the
    next step, so every prefix of the extended problem stays solvable within
    tolerance. The center is the most-interior choice, which keeps later
    Schur complements well conditioned.

    Cost: one Gram of data and evaluation points, assembled and validated
    once; step k then eigensolves the Pick matrix on its ``n + k`` points.
    """
    kernel, pts, lam = _problem_data(p)
    if not isinstance(p, Kernel) and not p.is_scalar:
        raise DomainError("evaluate_interpolant needs scalar targets")
    eval_points = list(eval_points)
    if not eval_points:
        return np.empty(0, dtype=complex)
    K = _extended_gram(kernel, pts, eval_points, tol)
    for m in range(len(pts) + 1, len(K) + 1):
        targets = np.asarray(lam, dtype=complex).reshape(-1, 1, 1)
        lam.append(complex(_schur_extension(K[:m, :m], targets, tol)[0][0, 0]))
    return np.asarray(lam[len(pts):], dtype=complex)


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
    K = gram(sample.kernel, sample.points, tol).gram.a

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
        if not is_psd(_symmetrized(_block_pick(K[:-1, :-1], rows)), tol).ok:
            rejected += 1
            continue
        t = row_feasible
        row_feasible += 1
        try:
            _verified_extension(K, rows, tol)
            row_ext_ok += 1
        except InfeasibleExtensionError as exc:
            failures.append(
                {"trial": t, "stage": "row_extension", "detail": str(exc)}
            )
            continue
        for m in mu_values:
            stacked = np.concatenate([rows, np.zeros((n - 1, m - 1, nu))], axis=1)
            try:
                _verified_extension(K, stacked, tol)
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
