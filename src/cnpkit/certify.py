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
the H test accepts. That sweep computes eigenvalues only, stacking the F
matrices of several bases into one solve; eigenvectors are computed only
for witnesses: the H test's positive eigenvectors, or one failing base's.

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
from .kernels import Kernel, _hermitian_gram, gram, irreducible_partition

__all__ = [
    "CnpCertificate",
    "f_form",
    "f_matrix",
    "h_matrix",
    "certify_cnp",
    "find_non_cnp_triple",
]


#: Byte budget of one stacked F solve; building the stack takes twice this.
_SWEEP_BYTES = 2**20


def _others(n: int, bases: np.ndarray) -> np.ndarray:
    """Row ``c`` lists the ``n - 1`` indices other than ``bases[c]``, in order."""
    j = np.arange(n - 1)
    return j + (j >= bases[:, np.newaxis])


def _forms(K: np.ndarray, bases: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """``1 - k_ib k_bj / (k_ij k_bb)`` over ``i, j`` in ``idx[c]``, ``b = bases[c]``.

    The one formula of the F form, stacked over bases as a bare array.
    """
    b = bases[:, np.newaxis]
    F = K[idx, b][:, :, np.newaxis] * K[b, idx][:, np.newaxis, :]
    den = K[idx[:, :, np.newaxis], idx[:, np.newaxis, :]]
    den *= K[bases, bases].real[:, np.newaxis, np.newaxis]
    F /= den
    return np.subtract(1.0, F, out=F)


def _f(K: np.ndarray, base: int) -> np.ndarray:
    """The bare F matrix of one base, over the other indices."""
    bases = np.array([base])
    return _forms(K, bases, _others(K.shape[0], bases))[0]


def _f_sweep(K: np.ndarray, tol: Tolerances) -> tuple[list[float], np.ndarray | None]:
    """Minimum F eigenvalue at each base of an irreducible Gram, in base order.

    Eigenvalues only, one stacked ``eigvalsh`` per chunk of bases whose F
    matrices fit in ``_SWEEP_BYTES``; ``eigvalsh`` reads one triangle, so the
    bare form needs no symmetrizing copy. The sweep stops at the first base
    whose minimum is below ``tol.psd_floor``; that base alone is solved again
    with eigenvectors, so its listed minimum is the eigenvalue of the
    returned unit eigenvector. Returns ``(minima, eigenvector)``, ``eigenvector``
    None when every base passes; a single point has no F matrix.
    """
    n = K.shape[0]
    minima: list[float] = []
    if n < 2:
        return minima, None
    chunk = max(1, _SWEEP_BYTES // (16 * (n - 1) ** 2))
    for start in range(0, n, chunk):
        bases = np.arange(start, min(start + chunk, n))
        eigenvalues = np.linalg.eigvalsh(_forms(K, bases, _others(n, bases)))
        for base, w in zip(bases, eigenvalues):
            if w[0] < tol.psd_floor(w):
                w, v = np.linalg.eigh(_f(K, base))
                minima.append(float(w[0]))
                return minima, v[:, 0]
            minima.append(float(w[0]))
    return minima, None


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
    K = _checked_for_base(_hermitian_gram(sample_or_gram).a, base, tol)
    n = K.shape[0]
    F = _forms(K, np.array([base]), np.arange(n)[np.newaxis, :])[0]
    F[base, :] = 0.0
    F[:, base] = 0.0
    return _symmetrized(F)


def f_matrix(sample_or_gram, base: int, tol: Tolerances = DEFAULT_TOL) -> HermitianMatrix:
    """``f_form`` with its base row and column deleted.

    Entry ``(i, j)`` is ``1 - k_ib k_bj / (k_ij k_bb)`` over the non-base
    indices. Requires an irreducible sample with at least two points.
    Diagonal entries lie in ``[0, 1)`` by the Cauchy-Schwarz inequality.
    """
    K = _hermitian_gram(sample_or_gram).a
    if K.shape[0] < 2:
        raise DomainError("f_matrix needs a sample with at least 2 points")
    return _symmetrized(_f(_checked_for_base(K, base, tol), base))


def h_matrix(sample_or_gram, tol: Tolerances = DEFAULT_TOL) -> HermitianMatrix:
    """Entrywise reciprocal of the Gram of an irreducible sample."""
    return _reciprocal(_irreducible(_hermitian_gram(sample_or_gram).a, tol))


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
    H = _hermitian_gram(sample_or_gram)
    K = H.a
    part = irreducible_partition(H, tol)
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
        minima, eigenvector = _f_sweep(Kb, tol)
        f_min_eigs.extend(zip(block, minima))
        if eigenvector is not None:
            base = block[len(minima) - 1]
            return certificate(False, "f_matrix", {
                "kind": "f_matrix",
                "base": base,
                "block": list(block),
                "min_eigenvalue": minima[-1],
                "eigenvector": eigenvector,
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
    tol: Tolerances = DEFAULT_TOL,
) -> tuple[complex, ...]:
    """Randomized search for a point triple whose H-matrix refutes the cNP property.

    Samples triples uniformly from the disk ``|z| <= 0.9`` with a fixed
    seed and returns the first whose reciprocal Gram has at least two
    positive eigenvalues. Raises ``RuntimeError`` if the budget is exhausted
    (expected for kernels that do have the property).
    """
    rng = np.random.default_rng(seed)
    for _ in range(max_trials):
        r = 0.9 * np.sqrt(rng.uniform(0.0, 1.0, 3))
        th = rng.uniform(0.0, 2.0 * np.pi, 3)
        z = r * np.exp(1j * th)
        if len({complex(c) for c in z}) < 3:
            continue
        sample = gram(kernel, z, tol)
        ine = inertia(h_matrix(sample, tol), tol)
        if ine.n_pos >= 2:
            return tuple(complex(c) for c in z)
    raise RuntimeError(
        f"no refuting triple found in {max_trials} trials; "
        "the kernel may have the complete Nevanlinna-Pick property"
    )
