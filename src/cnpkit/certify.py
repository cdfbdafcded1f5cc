"""Complete Nevanlinna-Pick certification on finite samples.

The certificate matrices:

* ``f_form(sample, base)``: the n-by-n form with entries
  ``1 - k_ib k_bj / (k_ij k_bb)``; its base row and column vanish.
  ``f_matrix(sample, base)`` is the same form with them deleted. The kernel
  has the complete Nevanlinna-Pick property iff this is PSD for every finite
  subset and base.
* ``h_matrix(sample)``: the entrywise reciprocal of the Gram. Equivalently,
  the kernel has the property iff this has exactly one positive eigenvalue.

``certify_cnp`` renders the verdict with machine-checkable witnesses. The
primary decision path is the H-inertia test, which needs no base-point
choice and, by eigenvalue interlacing, covers every subsample at once; the
F-matrix test for every base is run as a consistency cross-check whenever
the H test accepts.

A verdict is a statement about the sampled Gram, not about the kernel on its
whole domain: reports say "certified on this sample".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ReducibleKernelError
from .hermitian import (
    DEFAULT_TOL,
    HermitianMatrix,
    Inertia,
    Tolerances,
    _symmetrized,
    inertia,
)
from .kernels import Kernel, _gram_array, gram, irreducible_partition

__all__ = [
    "CnpCertificate",
    "f_form",
    "f_matrix",
    "h_matrix",
    "certify_cnp",
    "find_non_cnp_triple",
]


def _form(K: np.ndarray, base: int) -> np.ndarray:
    """``1 - k_ib k_bj / (k_ij k_bb)``, zero on the base row and column."""
    F = 1.0 - np.outer(K[:, base], K[base, :]) / (K * K[base, base].real)
    F[base, :] = 0.0
    F[:, base] = 0.0
    return F


def _f(K: np.ndarray, base: int) -> HermitianMatrix:
    """The F form over the non-base indices."""
    keep = np.arange(K.shape[0]) != base
    return _symmetrized(_form(K, base)[np.ix_(keep, keep)])


def _reciprocal(K: np.ndarray) -> HermitianMatrix:
    return _symmetrized(1.0 / K)


def _irreducible(K: np.ndarray, tol: Tolerances) -> np.ndarray:
    small = tol.zero_entries(K)
    if np.any(small):
        i, j = map(int, np.argwhere(small)[0])
        raise ReducibleKernelError(
            f"gram({i}, {j}) is zero within tolerance; split the sample with "
            "irreducible_partition and certify each block",
            index=(i, j),
        )
    return K


def _checked_for_base(K: np.ndarray, base: int, tol: Tolerances) -> np.ndarray:
    if not 0 <= base < K.shape[0]:
        raise DomainError(f"base index {base} out of range [0, {K.shape[0]})")
    return _irreducible(K, tol)


def f_form(sample_or_gram, base: int, tol: Tolerances = DEFAULT_TOL) -> HermitianMatrix:
    """Full n-by-n positive form ``1 - k_ib k_bj / (k_ij k_bb)``.

    Unlike ``f_matrix`` this keeps the base row and column, which are
    identically zero. PSD for samples passing certification; a negative
    eigenvalue here is a refutation witness, reported by downstream
    consumers rather than raised.
    """
    K = _checked_for_base(_gram_array(sample_or_gram), base, tol)
    return _symmetrized(_form(K, base))


def f_matrix(sample_or_gram, base: int, tol: Tolerances = DEFAULT_TOL) -> HermitianMatrix:
    """``f_form`` with its base row and column deleted.

    Entry ``(i, j)`` is ``1 - k_ib k_bj / (k_ij k_bb)`` over the non-base
    indices. Requires an irreducible sample with at least two points.
    Diagonal entries lie in ``[0, 1)`` by the Cauchy-Schwarz inequality.
    """
    K = _gram_array(sample_or_gram)
    if K.shape[0] < 2:
        raise DomainError("f_matrix needs a sample with at least 2 points")
    return _f(_checked_for_base(K, base, tol), base)


def h_matrix(sample_or_gram, tol: Tolerances = DEFAULT_TOL) -> HermitianMatrix:
    """Entrywise reciprocal of the Gram of an irreducible sample."""
    return _reciprocal(_irreducible(_gram_array(sample_or_gram), tol))


@dataclass(frozen=True)
class CnpCertificate:
    """Verdict for the complete Nevanlinna-Pick property on one sample.

    ``method`` is ``"h_inertia"`` (primary, base-point free), ``"f_matrix"``
    (cross-check found the violation), or ``"zero_pattern"`` (the Gram's zero
    pattern is not block-diagonal, which refutes the property outright).
    When the verdict is False, ``witness`` carries enough data to reproduce
    the violation by re-evaluation.
    """

    verdict: bool
    method: str
    blocks: tuple[tuple[int, ...], ...]
    zero_pattern_consistent: bool
    block_inertias: tuple[Inertia, ...]
    f_min_eigs: tuple[tuple[int, float], ...]
    witness: dict
    tolerances: Tolerances


def certify_cnp(sample_or_gram, tol: Tolerances = DEFAULT_TOL) -> CnpCertificate:
    """Certify the complete Nevanlinna-Pick property of a sampled Gram.

    Reducible samples are split by the zero-pattern partition and certified
    per block; the verdict is the conjunction. An inconsistent zero pattern
    yields verdict False immediately. Accepts a ``SampleSet`` or a raw
    Hermitian Gram.
    """
    K = _gram_array(sample_or_gram)
    part = irreducible_partition(K, tol)
    block_inertias: list[Inertia] = []
    f_min_eigs: list[tuple[int, float]] = []

    def certificate(verdict: bool, method: str, witness: dict) -> CnpCertificate:
        return CnpCertificate(
            verdict=verdict,
            method=method,
            blocks=part.blocks,
            zero_pattern_consistent=part.consistent,
            block_inertias=tuple(block_inertias),
            f_min_eigs=tuple(f_min_eigs),
            witness=witness,
            tolerances=tol,
        )

    if not part.consistent:
        i, j = part.violations[0]
        return certificate(False, "zero_pattern", {
            "kind": "zero_pattern",
            "pair": [i, j],
            "detail": (
                f"gram({i}, {j}) = 0 while {i} and {j} are connected through "
                "nonzero entries; the zero pattern of a Nevanlinna-Pick "
                "kernel must be block-diagonal"
            ),
        })

    # Every entry inside a block is nonzero on the partition's scale, which is
    # stricter than the block's own, so the blocks need no further check.
    grams = [(block, K[np.ix_(block, block)]) for block in part.blocks]
    for block, Kb in grams:
        w, v = np.linalg.eigh(_reciprocal(Kb).a)
        ine = Inertia.of(w, tol)
        block_inertias.append(ine)
        if ine.n_pos != 1:
            pos = slice(len(w) - ine.n_pos, None)
            return certificate(False, "h_inertia", {
                "kind": "h_inertia",
                "block": list(block),
                "inertia": ine.as_tuple(),
                "positive_eigenvalues": w[pos].tolist(),
                "eigenvectors": v[:, pos],
            })

    # H accepted every block; cross-check the F test for every base index.
    for block, Kb in grams:
        if len(block) < 2:
            continue
        for local_base in range(len(block)):
            w, v = np.linalg.eigh(_f(Kb, local_base).a)
            f_min_eigs.append((int(block[local_base]), float(w[0])))
            if w[0] < tol.psd_floor(w):
                return certificate(False, "f_matrix", {
                    "kind": "f_matrix",
                    "base": int(block[local_base]),
                    "block": list(block),
                    "min_eigenvalue": float(w[0]),
                    "eigenvector": v[:, 0],
                })

    return certificate(True, "h_inertia", {
        "kind": "h_inertia",
        "block_inertias": [ine.as_tuple() for ine in block_inertias],
    })


def find_non_cnp_triple(
    kernel: Kernel,
    *,
    seed: int,
    max_trials: int = 10_000,
    radius: float = 0.9,
    n_points: int = 3,
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[complex, ...]:
    """Randomized search for a point tuple whose H-matrix refutes the cNP property.

    Samples tuples uniformly from the disk ``|z| <= radius`` with a fixed
    seed and returns the first whose reciprocal Gram has at least two
    positive eigenvalues. Raises ``RuntimeError`` if the budget is exhausted
    (expected for kernels that do have the property).
    """
    rng = np.random.default_rng(seed)
    for _ in range(max_trials):
        r = radius * np.sqrt(rng.uniform(0.0, 1.0, n_points))
        th = rng.uniform(0.0, 2.0 * np.pi, n_points)
        z = r * np.exp(1j * th)
        if len({complex(c) for c in z}) < n_points:
            continue
        sample = gram(kernel, z, tol)
        ine = inertia(h_matrix(sample, tol), tol)
        if ine.n_pos >= 2:
            return tuple(complex(c) for c in z)
    raise RuntimeError(
        f"no refuting {n_points}-tuple found in {max_trials} trials; "
        "the kernel may have the complete Nevanlinna-Pick property"
    )
