"""Universal embedding of certified kernels into the unit-ball kernel.

Every kernel with the complete Nevanlinna-Pick property factors as

    k(x, y) = conj(delta(x)) * delta(y) / (1 - F(x, y))

with ``delta`` nowhere zero and ``F`` PSD with diagonal in ``[0, 1)``. A
Gram factorization of ``F`` then realizes the sample inside the unit ball of
``l^2_m``: with coordinates ``f(x)`` of the factor,

    k(x, y) = conj(delta(x)) * delta(y) / (1 - <f(x), f(y)>),

i.e. the kernel is a rescaled restriction of the ball kernel ``Ball(m)``.
``m`` here is the numerical rank of ``F`` on the sample (at the zero
threshold), which is at most ``n - 1``; it is a sample-scale stand-in for
the possibly infinite rank of the kernel itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certify import f_form
from .errors import DomainError
from .hermitian import DEFAULT_TOL, HermitianMatrix, Tolerances, _symmetrized, gram_factor
from .kernels import SampleSet

__all__ = ["BallEmbedding", "universal_embedding", "reconstruct"]


@dataclass(frozen=True)
class BallEmbedding:
    """Sample coordinates in the open unit ball of ``l^2_m`` plus scalings.

    ``gram[i, j] = conj(delta[i]) * delta[j] / (1 - <coords[i], coords[j]>)``
    with the kit-wide inner product (conjugate-linear in the second slot).
    All ``delta`` values are nonzero, all coordinates have norm strictly
    below one, and distinct sample points get distinct coordinates.
    """

    base: int
    delta: np.ndarray
    coords: np.ndarray
    m: int
    reconstruction_error: float
    tolerances: Tolerances


def universal_embedding(
    sample: SampleSet, base: int, tol: Tolerances = DEFAULT_TOL
) -> BallEmbedding:
    """Realize a certified sample as a rescaled piece of the ball kernel.

    ``delta`` is the base row of the Gram over ``sqrt(k_bb)``; coordinates
    come from the Gram factorization of ``f_form``, which also checks that
    every Gram entry is nonzero. Raises ``NotPsdError`` when the form is
    not PSD (contradicting certification) and ``DomainError`` if a coordinate
    reaches the unit sphere beyond tolerance.
    """
    F = f_form(sample, base, tol)
    coords, m = gram_factor(F, tol)
    norms = np.linalg.norm(coords, axis=1)
    worst = float(np.max(norms)) if norms.size else 0.0
    if worst >= 1.0 + tol.psd_slack_rel:
        raise DomainError(
            f"embedded coordinate has norm {worst:.9f} >= 1; the diagonal of "
            "the positive form must stay inside [0, 1)"
        )
    K = sample.gram.a
    delta = K[base, :] / np.sqrt(float(K[base, base].real))
    rebuilt = _symmetrized(_ball_gram(delta, coords)).a
    err = float(np.max(np.abs(rebuilt - K)) / max(1.0, np.max(np.abs(K))))
    return BallEmbedding(
        base=base,
        delta=delta,
        coords=coords,
        m=m,
        reconstruction_error=err,
        tolerances=tol,
    )


def _ball_gram(delta: np.ndarray, coords: np.ndarray) -> np.ndarray:
    S = coords @ coords.conj().T
    return np.outer(delta.conj(), delta) / (1.0 - S)


def reconstruct(e: BallEmbedding) -> HermitianMatrix:
    """Rebuild the Gram matrix encoded by an embedding.

    ``K[i, j] = conj(delta[i]) * delta[j] / (1 - sum_l coords[i, l] *
    conj(coords[j, l]))``. With ``m = 0`` the inner products vanish and the
    result is the rank-one matrix ``conj(delta_i) delta_j``.
    """
    return _symmetrized(_ball_gram(e.delta, e.coords))
