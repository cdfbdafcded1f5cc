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
radius ``sqrt(L R)``. The leading block enters through a factor built by
bordering (``_PickFactor``): its range rows give the Schur complement, and
its null rows carry the linear constraint that pins (part of) the target.
One check decides feasibility: the Schur complement at the returned center
must be PSD within tolerance.
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
    "pick_matrix",
    "rep_operator_norm",
    "solvable",
    "extend_one_point_scalar",
    "extend_one_point_matrix",
    "evaluate_interpolant",
    "vector_vs_complete_check",
]


@dataclass(frozen=True)
class PickProblem:
    """Sample points with mu-by-nu interpolation targets.

    ``targets`` is an ``(n, mu, nu)`` stack, ``mu, nu >= 1``, aligned with
    ``sample.points``; scalar data is the 1x1 case.
    """

    sample: SampleSet
    targets: np.ndarray

    def __post_init__(self):
        t = np.array(self.targets, dtype=complex)
        if t.ndim != 3 or 0 in t.shape[1:]:
            raise DomainError(
                f"targets must have shape (n, mu, nu) with mu, nu >= 1, got {t.shape}"
            )
        if t.shape[0] != self.sample.n:
            raise DomainError(
                f"target count {t.shape[0]} != point count {self.sample.n}"
            )
        t.setflags(write=False)
        object.__setattr__(self, "targets", t)

    @staticmethod
    def scalar(sample: SampleSet, values) -> "PickProblem":
        """Scalar data as the 1x1 case, targets of shape ``(n, 1, 1)``."""
        v = np.asarray(values, dtype=complex).reshape(-1, 1, 1)
        return PickProblem(sample=sample, targets=v)

    @staticmethod
    def matrix(sample: SampleSet, matrices) -> "PickProblem":
        return PickProblem(sample=sample, targets=matrices)


def _target_products(targets: np.ndarray, others=None) -> np.ndarray:
    """``prod[i, :, j, :] = conj(Lambda_i) M_j^T``; ``M`` is ``others``, else ``targets``."""
    return np.einsum("iac,jbc->iajb", targets.conj(), targets if others is None else others)


def _block_pick(K: np.ndarray, targets: np.ndarray, others=None) -> np.ndarray:
    """Blocks ``K[i, j] (I - conj(Lambda_i) M_j^T)``; the Pick matrix if ``others`` is None."""
    prod = _target_products(targets, others)
    n, mu, m, _ = prod.shape
    eye = np.zeros_like(prod)
    eye[:, np.arange(mu), :, np.arange(mu)] = 1.0
    return (K[:, None, :, None] * (eye - prod)).reshape(n * mu, m * mu)


def pick_matrix(p: PickProblem) -> HermitianMatrix:
    """Block Pick matrix, ``n * mu`` square; for scalar data the n x n
    matrix ``(1 - lambda_j conj(lambda_i)) k(x_i, x_j)``.

    Non-finite entries are refused and Hermiticity is asserted at
    construction.
    """
    P = _block_pick(p.sample.gram.a, p.targets)
    H = _symmetrized(P)
    scale = max(1.0, float(np.max(np.abs(P))))
    if np.max(np.abs(P - P.conj().T)) > 1e-12 * scale:
        raise AssertionError("block Pick matrix lost Hermiticity")
    return H


def rep_operator_norm(p: PickProblem, tol: Tolerances = DEFAULT_TOL) -> float:
    """Operator norm of the diagonal representation operator on the sample.

    Computed as the largest generalized eigenvalue of the pencil
    ``(S, G)`` where ``G`` is the Gram of the kernel-function basis (tensored
    with an identity for matrix targets) and ``S`` is the Gram of the mapped
    basis. A numerically singular ``G`` triggers a condition warning and the
    pencil is solved on its range.
    """
    K = p.sample.gram.a
    n, mu, _ = p.targets.shape
    S = (K[:, None, :, None] * _target_products(p.targets)).reshape(n * mu, n * mu)
    G = np.kron(K, np.eye(mu))
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
    """Feasibility test for a Pick problem."""
    rep = is_psd(pick_matrix(p), tol)
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


def _problem_data(p) -> tuple[Kernel, list, np.ndarray]:
    """Unpack a PickProblem, or a bare Kernel meaning empty scalar data."""
    if isinstance(p, Kernel):
        return p, [], np.empty((0, 1, 1), dtype=complex)
    if not isinstance(p, PickProblem):
        raise DomainError("expected a PickProblem or a Kernel (for empty data)")
    return p.sample.kernel, list(p.sample.points), p.targets


def _scalar_data(p, caller: str) -> tuple[Kernel, list, np.ndarray]:
    """``_problem_data`` of a problem whose targets are 1x1."""
    kernel, pts, targets = _problem_data(p)
    _, mu, nu = targets.shape
    if (mu, nu) != (1, 1):
        raise DomainError(f"{caller} needs scalar (1x1) targets, got {mu}x{nu}")
    return kernel, pts, targets


def _extended_gram(kernel: Kernel, pts: list, new_points, tol: Tolerances) -> np.ndarray:
    """Gram of the sample's (distinct) ``pts`` then ``new_points``, held to the PSD floor of
    its smallest prefix, ``pts`` plus one point: by interlacing, every longer prefix passes."""
    qs = [kernel.coerce_point(q) for q in new_points]
    if pair := _first_equal_pair(qs):
        raise DomainError(f"evaluation points {pair[0]} and {pair[1]} coincide")
    if pair := _first_equal_pair(qs, pts):
        raise DomainError(f"new point duplicates sample point {pair[1]}")
    K = _symmetrized(kernel.gram_matrix(pts + qs)).a
    w, m = np.linalg.eigvalsh(K), len(pts) + 1
    _require_psd(w[0], tol.psd_floor(w if len(K) == m else np.linalg.eigvalsh(K[:m, :m])))
    return K


class _PickFactor:
    """Factor of a Pick matrix ``Q = L D L^*`` grown by bordering, O(m^2) a column (Golub
    & Van Loan, *Matrix Computations*); a ``Q`` passed here is bordered column by column.
    Range rows ``R``, those of ``D^{-1/2} L^{-1}`` with pivots above ``tol.zero_threshold``,
    fill ``rows`` from the top (``R^* R`` inverts ``Q`` on its range); unit null rows
    (``N Q ~ 0``) fill it from the bottom. Thresholds use the diagonal bordered so far."""

    def __init__(self, size: int, tol: Tolerances, Q=()):
        self.rows = np.zeros((size, size), dtype=complex)
        self.diag = np.zeros(size)
        self.m = self.r = self.k = 0
        self.tol = tol
        for j in range(len(Q)):
            self.border(Q[:j, j], Q[j, j].real)

    def border(self, q: np.ndarray, pi: float) -> None:
        """Append the column ``q`` with diagonal entry ``pi``."""
        m, r, k, size = self.m, self.r, self.k, len(self.rows)
        self.diag[m] = pi
        z = self.rows[:r, :m] @ q
        s = pi - np.vdot(z, z).real
        c = float(np.abs(self.rows[size - k :, :m] @ q).max()) if k else 0.0
        pivot = min(s, -c * c / max(1.0, pi))
        if pivot < self.tol.psd_floor(self.diag[: m + 1]):
            raise NotPsdError(f"leading Pick block is not PSD (pivot {pivot:.6e}); "
                              "the data is not solvable", min_eigenvalue=float(pivot))
        row = -(z.conj() @ self.rows[:r, : m + 1])
        row[m] = 1.0
        # a range row also needs its Rayleigh quotient s / |row|^2 above rounding of the scale
        w, ray = self.diag[: m + 1], s / np.vdot(row, row).real
        if s > self.tol.zero_threshold(w) and ray > np.finfo(float).eps * Tolerances._scale(w):
            self.rows[r, : m + 1], self.r = row / np.sqrt(s), r + 1
        else:
            self.rows[size - 1 - k, : m + 1], self.k = row / np.linalg.norm(row), k + 1
        self.m += 1


def _pick_column(K: np.ndarray, lam: np.ndarray, j: int):
    """``_hermitian_part(_block_pick(K, lam))[:j+1, j]`` to the bit, split at the diagonal."""
    col = _block_pick(K[: j + 1, j : j + 1], lam[: j + 1], lam[j : j + 1])[:, 0]
    row = _block_pick(K[j : j + 1, : j + 1], lam[j : j + 1], lam[: j + 1])[0]
    h = col * 0.5 + (row * 0.5).conj()
    return h[:j], h[j].real


def _schur_extension(K_ext: np.ndarray, targets: np.ndarray, tol: Tolerances, F=None):
    """Feasible targets at the last point of ``K_ext`` for (n, mu, nu) targets.

    Works in conjugated coordinates ``W_i = conj(Lambda_i)`` where the block
    Pick matrix has the textbook form; the Schur complement of the extended
    matrix with respect to its leading block is the mu-by-mu value

        S(W) = (kzz I - E) + W B + B^* W^* - W (kzz I + A) W^*,

    and completing the square writes it as ``RL - (W - W0) T (W - W0)^*``
    with ``T = kzz I + A``, center ``W0 = B^* T^{-1}`` and
    ``RL = kzz I - E + W0 B``: the ball has left factor ``RL`` and right
    factor ``T^{-1}``, with ``E``, ``A``, ``B`` from the range rows of the
    leading block's ``_PickFactor`` ``F`` (built here when not given). A
    singular leading block adds the constraint ``Uc = Vc W^*`` on its null
    rows: the singular values of ``Vc`` above the range cut pin those target
    directions, and the rest of ``Uc`` must vanish. The one feasibility
    check is ``S >= -slack`` at the returned center, whose PSD part is the
    left factor (``RL`` when nothing is pinned). Returns center, left and
    right factor in target coordinates; both are zero when all is pinned.
    """
    n, mu, nu = targets.shape
    kcol = K_ext[:n, n]
    kzz = float(K_ext[n, n].real)
    U = (kcol[:, None, None] * np.eye(mu)).reshape(n * mu, mu)
    V = (kcol[:, None, None] * targets.conj()).reshape(n * mu, nu)

    if F is None:
        F = _PickFactor(n * mu, tol, _hermitian_part(_block_pick(K_ext[:n, :n], targets)))
    R, Np = F.rows[: F.r, : F.m], F.rows[len(F.rows) - F.k :, : F.m]
    slack = -tol.psd_floor(F.diag[: F.m])
    Ur, Vrng = R @ U, R @ V
    E = Ur.conj().T @ Ur
    A = Vrng.conj().T @ Vrng
    B = Vrng.conj().T @ Ur
    T = kzz * np.eye(nu) + _hermitian_part(A)
    W0 = np.linalg.solve(T, B).conj().T
    RL = _hermitian_part(kzz * np.eye(mu) - E + W0 @ B)
    wt, Vt = np.linalg.eigh(T)
    right = (Vt / wt) @ Vt.conj().T

    Uc, Vc = Np @ U, Np @ V
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

    ``p`` is a solvable ``PickProblem`` with 1x1 targets, or a bare
    ``Kernel`` for empty data (then the answer is the closed unit disk). The
    disk is the 1x1 case of the matrix ball: center ``C[0, 0]`` and radius
    ``sqrt(L[0, 0] R[0, 0])``. The center is verified feasible by
    re-assembling the extended Pick matrix; emptiness beyond tolerance
    raises ``InfeasibleExtensionError`` and refutes the complete
    Nevanlinna-Pick property of the kernel.
    """
    kernel, pts, targets = _scalar_data(p, "extend_one_point_scalar")
    K_ext = _extended_gram(kernel, pts, [new_point], tol)
    C, L, R = _verified_extension(K_ext, targets, tol)
    return ExtensionDisk(
        center=complex(C[0, 0]), radius=float(np.sqrt(L[0, 0].real * R[0, 0].real))
    )


def extend_one_point_matrix(
    p, new_point, tol: Tolerances = DEFAULT_TOL
) -> MatrixBall:
    """Matrix ball of feasible targets at a new point.

    ``p`` is a solvable ``PickProblem``, or a bare ``Kernel`` for empty data
    (then the answer is the closed 1x1 unit ball). The ball
    ``center + L^{1/2} C R^{1/2}`` comes from the Schur complement of the
    extended block Pick matrix (see ``_schur_extension``); the center is
    always verified feasible post hoc.
    """
    kernel, pts, targets = _problem_data(p)
    K_ext = _extended_gram(kernel, pts, [new_point], tol)
    center, left, right = _verified_extension(K_ext, targets, tol)
    return MatrixBall(center=center, left_factor=left, right_factor=right)


def evaluate_interpolant(p, eval_points, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Greedy multiplier values via repeated norm-preserving extension.

    ``p`` is a solvable ``PickProblem`` with 1x1 targets, or a bare
    ``Kernel`` for empty data. At each evaluation point the extension disk
    is computed and its center committed as the value; the committed pair
    joins the data before the next step, so every prefix of the extended
    problem stays solvable within tolerance. The center is the most-interior
    choice, which keeps later Schur complements well conditioned.

    Cost: one Gram of all the points, assembled and validated once; each committed value
    borders one ``_PickFactor`` by a column: O(m^2) a step, no eigensolve beyond 1x1.
    """
    kernel, pts, targets = _scalar_data(p, "evaluate_interpolant")
    eval_points = list(eval_points)
    if not eval_points:
        return np.empty(0, dtype=complex)
    K = _extended_gram(kernel, pts, eval_points, tol)
    n, F = len(pts), _PickFactor(len(K) - 1, tol)
    lam = np.empty((len(K), 1, 1), dtype=complex)
    lam[:n] = targets
    for m in range(len(K)):
        if m >= n:
            lam[m] = _schur_extension(K[: m + 1, : m + 1], lam[:m], tol, F)[0]
        if m < len(K) - 1:
            F.border(*_pick_column(K, lam, m))
    return lam[n:].reshape(-1)


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
