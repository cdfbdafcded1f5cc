"""Dense Hermitian linear algebra primitives.

Inertia, PSD tests with witnesses, rank-revealing Gram factorization, and the
``Tolerances`` that own every numerical threshold of the kit.

Eigenvalue classification is relative to ``max(1, spectral radius)`` so that
matrices at very different scales (unit-disk Grams next to hyperbolic-cosine
Grams) are treated uniformly. All operations are pure functions of immutable
inputs and may run concurrently.

Conjugation convention, fixed kit-wide: a Gram matrix stores
``K[i, j] = k(x_i, x_j)`` with ``K[j, i] = conj(K[i, j])``, and factor
vectors satisfy ``<f_i, f_j> = K[i, j]`` for the inner product that is
conjugate-linear in its second slot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPsdError

__all__ = [
    "HermitianMatrix",
    "Inertia",
    "Tolerances",
    "PsdReport",
    "DEFAULT_TOL",
    "as_hermitian",
    "inertia",
    "is_psd",
    "gram_factor",
]

#: Allowed relative asymmetry of raw input before construction refuses it.
CONSTRUCTION_TOL = 1e-12


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """``(A + A*) / 2``: the nearest Hermitian matrix, exactly conjugate-symmetric.

    Halved before the sum, which is exact in the normal range and cannot
    overflow for finite entries.
    """
    h = a * 0.5
    h += h.conj().T
    return h


class HermitianMatrix:
    """Square complex matrix with conjugate symmetry enforced at construction.

    The raw input may carry floating-point asymmetry up to ``CONSTRUCTION_TOL``
    relative to its magnitude; it is symmetrized as ``(A + A*) / 2``.
    """

    __slots__ = ("a",)

    def __init__(self, entries):
        a = np.array(entries, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("matrix dimension must be >= 1")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix has non-finite entries")
        defect = float(np.max(np.abs(a - a.conj().T)))
        scale = max(1.0, float(np.max(np.abs(a))))
        if defect > CONSTRUCTION_TOL * scale:
            raise ValueError(
                f"matrix is not Hermitian: asymmetry {defect:.3e} exceeds "
                f"{CONSTRUCTION_TOL:g} * max(1, |A|) = {CONSTRUCTION_TOL * scale:.3e}"
            )
        self.a = _hermitian_part(a)
        self.a.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HermitianMatrix(dim={self.dim})"


def as_hermitian(x) -> HermitianMatrix:
    """Coerce an array-like (or pass through a ``HermitianMatrix``)."""
    if isinstance(x, HermitianMatrix):
        return x
    return HermitianMatrix(x)


def _symmetrized(a: np.ndarray) -> HermitianMatrix:
    """Wrap an internally computed matrix, discarding floating-point skew."""
    a = np.asarray(a, dtype=np.complex128)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    h = HermitianMatrix.__new__(HermitianMatrix)
    h.a = _hermitian_part(a)
    h.a.setflags(write=False)
    return h


@dataclass(frozen=True)
class Inertia:
    """Eigenvalue sign counts (n_pos, n_zero, n_neg)."""

    n_pos: int
    n_zero: int
    n_neg: int

    @staticmethod
    def of(w: np.ndarray, tol: "Tolerances") -> "Inertia":
        """Classify eigenvalues ``w`` by sign, zero within ``tol.zero_threshold``."""
        thr = tol.zero_threshold(w)
        n_pos = int(np.sum(w > thr))
        n_neg = int(np.sum(w < -thr))
        return Inertia(n_pos, len(w) - n_pos - n_neg, n_neg)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.n_pos, self.n_zero, self.n_neg)


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used throughout the kit, each applied by one method.

    ``zero_eig_rel``: an eigenvalue counts as zero when its magnitude is at
    most ``zero_threshold(w) = zero_eig_rel * max(1, spectral radius)``.
    ``psd_slack_rel``: a matrix passes the PSD test when its minimum
    eigenvalue is at least ``psd_floor(w) = -psd_slack_rel * max(1, spectral
    radius)``.
    ``kernel_zero_abs``: a Gram entry counts as zero when its modulus is at
    most ``kernel_zero_abs * max|K|`` (``zero_entries(K)``).
    """

    zero_eig_rel: float = 1e-9
    psd_slack_rel: float = 1e-9
    kernel_zero_abs: float = 1e-12

    def __post_init__(self):
        for name in ("zero_eig_rel", "psd_slack_rel", "kernel_zero_abs"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and strictly positive, got {value!r}")

    @staticmethod
    def _scale(w: np.ndarray) -> float:
        return max(1.0, float(np.abs(w).max())) if w.size else 1.0

    def zero_threshold(self, w: np.ndarray) -> float:
        """Largest eigenvalue magnitude that counts as zero among eigenvalues ``w``."""
        return self.zero_eig_rel * self._scale(w)

    def psd_floor(self, w: np.ndarray) -> float:
        """Smallest minimum eigenvalue a PSD matrix with eigenvalues ``w`` may have."""
        return -self.psd_slack_rel * self._scale(w)

    def zero_entries(self, K: np.ndarray) -> np.ndarray:
        """Mask of the Gram entries that count as zero."""
        amax = float(np.max(np.abs(K))) or 1.0
        return np.abs(K) <= self.kernel_zero_abs * amax


DEFAULT_TOL = Tolerances()


def inertia(A, tol: Tolerances = DEFAULT_TOL) -> Inertia:
    """Count eigenvalues of ``A`` by sign (zero within ``tol.zero_threshold``)."""
    return Inertia.of(np.linalg.eigvalsh(as_hermitian(A).a), tol)


@dataclass(frozen=True)
class PsdReport:
    """PSD verdict with a checkable witness (the extremal eigenpair)."""

    ok: bool
    min_eigenvalue: float
    eigenvector: np.ndarray
    threshold: float


def is_psd(A, tol: Tolerances = DEFAULT_TOL) -> PsdReport:
    """Test positive semidefiniteness within tolerance.

    True iff the minimum eigenvalue is at least ``tol.psd_floor``. The
    witness carries the minimum eigenvalue and its eigenvector.
    """
    w, v = np.linalg.eigh(as_hermitian(A).a)
    floor = tol.psd_floor(w)
    return PsdReport(
        ok=bool(w[0] >= floor),
        min_eigenvalue=float(w[0]),
        eigenvector=v[:, 0].copy(),
        threshold=-floor,
    )


def gram_factor(A, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, int]:
    """Factor a PSD matrix as inner products of ``m``-dimensional vectors.

    Returns ``(coords, m)`` where ``coords`` has shape ``(n, m)``, row ``i``
    is the vector ``f_i``, and ``sum_l coords[i, l] * conj(coords[j, l])``
    reproduces ``A[i, j]``. The rank ``m`` is the number of eigenvalues above
    the zero threshold; eigenvectors are truncated accordingly.

    The factor is canonicalized for determinism: eigenvalues sorted
    descending, and each eigenvector's phase fixed so its first
    significantly nonzero component is real positive.
    """
    w, v = np.linalg.eigh(as_hermitian(A).a)
    if w[0] < tol.psd_floor(w):
        raise NotPsdError(
            f"matrix is not PSD: min eigenvalue {w[0]:.6e} below "
            f"-{tol.psd_slack_rel:g} * max(1, spectral radius)",
            min_eigenvalue=float(w[0]),
        )
    order = np.argsort(w)[::-1]
    w, v = w[order], v[:, order]
    keep = w > tol.zero_threshold(w)
    w, v = w[keep], v[:, keep]
    for col in range(v.shape[1]):
        nz = np.flatnonzero(np.abs(v[:, col]) > 1e-8)
        if nz.size:
            pivot = v[nz[0], col]
            v[:, col] *= np.conj(pivot) / abs(pivot)
    coords = v * np.sqrt(w)[np.newaxis, :]
    return coords, coords.shape[1]
