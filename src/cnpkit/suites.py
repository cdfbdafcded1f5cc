"""Cross-cutting randomized property suites.

These are the seeded equivalence checks that tie the modules together:

* ``certificate_equivalence_suite``: on random irreducible PD Grams, the
  F-matrix test passing for every base must agree with the reciprocal Gram
  having exactly one positive eigenvalue.
* ``norm_pick_equivalence_suite``: on random scalar problems, the
  representation-operator norm being at most one must agree with the Pick
  matrix being PSD.
* ``vector_complete_suite``: on a small disk sample, feasible row-target
  problems must admit matrix one-point extensions (and stay extendable when
  stacked with zero rows).

All generators are deterministic given the seed; counts and any
disagreements are reported, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .certify import _reciprocal, f_matrix
from .hermitian import DEFAULT_TOL, Tolerances, inertia, is_psd
from .interpolate import (
    PickProblem,
    VectorCompleteReport,
    pick_matrix_scalar,
    rep_operator_norm,
    vector_vs_complete_check,
)
from .kernels import Ball, Dirichlet, Sobolev, Szego, gram

__all__ = [
    "EquivalenceReport",
    "certificate_equivalence_suite",
    "norm_pick_equivalence_suite",
    "vector_complete_suite",
]


@dataclass(frozen=True)
class EquivalenceReport:
    """Agreement counts for a two-sided verdict comparison."""

    name: str
    trials: int
    agreements: int
    true_verdicts: int
    disagreements: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return not self.disagreements


def _random_disk_points(rng, n, radius):
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, n))
    th = rng.uniform(0.0, 2.0 * np.pi, n)
    return r * np.exp(1j * th)


def _random_gram(rng, kind: int) -> np.ndarray:
    """Mixed-construction irreducible PD Grams, n <= 8."""
    if kind == 0:
        n = int(rng.integers(2, 9))
        return gram(Szego(), _random_disk_points(rng, n, 0.85)).gram.a
    if kind == 1:
        n = int(rng.integers(2, 7))
        return gram(Dirichlet(), _random_disk_points(rng, n, 0.75)).gram.a
    if kind == 2:
        n = int(rng.integers(2, 9))
        while True:
            t = rng.uniform(0.0, 1.0, n)
            if len(np.unique(t)) == n:
                return gram(Sobolev(), t).gram.a
    if kind == 3:
        n = int(rng.integers(2, 7))
        pts = []
        for _ in range(n):
            x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            pts.append(x / np.linalg.norm(x) * rng.uniform(0.05, 0.8))
        return gram(Ball(2), pts).gram.a
    while True:
        n = int(rng.integers(2, 9))
        C = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        G = C @ C.conj().T + 0.1 * np.eye(n)
        if np.min(np.abs(G)) > 1e-6 * np.max(np.abs(G)):
            return G


def certificate_equivalence_suite(
    trials: int = 500, *, seed: int = 1729, tol: Tolerances = DEFAULT_TOL
) -> EquivalenceReport:
    """F-PSD-for-every-base versus H-has-one-positive-eigenvalue."""
    rng = np.random.default_rng(seed)
    agreements = 0
    true_count = 0
    disagreements = []
    for t in range(trials):
        K = _random_gram(rng, t % 5)
        n = K.shape[0]

        h_verdict = inertia(_reciprocal(K), tol).n_pos == 1

        f_verdict = True
        worst = np.inf
        for b in range(n):
            F = f_matrix(K, b, tol)
            wf = np.linalg.eigvalsh(F.a)
            worst = min(worst, float(wf[0]))
            if wf[0] < tol.psd_floor(wf):
                f_verdict = False
                break

        if h_verdict == f_verdict:
            agreements += 1
            true_count += int(h_verdict)
        else:
            disagreements.append(
                {
                    "trial": t,
                    "n": n,
                    "h_verdict": h_verdict,
                    "f_verdict": f_verdict,
                    "min_f_eigenvalue": worst,
                }
            )
    return EquivalenceReport(
        name="certificate_equivalence",
        trials=trials,
        agreements=agreements,
        true_verdicts=true_count,
        disagreements=tuple(disagreements),
    )


def norm_pick_equivalence_suite(
    trials: int = 300, *, seed: int = 1729, tol: Tolerances = DEFAULT_TOL
) -> EquivalenceReport:
    """``rep_operator_norm <= 1`` versus Pick-matrix PSD, coupled tolerances."""
    rng = np.random.default_rng(seed)
    kernels = (Szego(), Dirichlet(), Sobolev())
    agreements = 0
    true_count = 0
    disagreements = []
    for t in range(trials):
        kernel = kernels[t % 3]
        n = int(rng.integers(2, 7))
        if isinstance(kernel, Sobolev):
            while True:
                pts = rng.uniform(0.0, 1.0, n)
                if len(np.unique(pts)) == n:
                    break
        else:
            pts = _random_disk_points(rng, n, 0.8)
        sample = gram(kernel, pts, tol)
        # The norm is exactly linear in a global target rescaling, so placing
        # it at s keeps instances balanced across the feasibility boundary
        # while staying off the hairline |s - 1| < 1e-4.
        lam = _random_disk_points(rng, n, 1.0)
        raw_norm = rep_operator_norm(PickProblem.scalar(sample, lam), tol)
        while True:
            s = rng.uniform(0.5, 1.5)
            if abs(s - 1.0) > 1e-4:
                break
        p = PickProblem.scalar(sample, lam * (s / max(raw_norm, 1e-12)))

        norm_ok = rep_operator_norm(p, tol) <= 1.0 + 1e-8
        psd_ok = is_psd(pick_matrix_scalar(p), tol).ok
        if norm_ok == psd_ok:
            agreements += 1
            true_count += int(norm_ok)
        else:
            disagreements.append(
                {"trial": t, "norm_ok": norm_ok, "psd_ok": psd_ok}
            )
    return EquivalenceReport(
        name="norm_pick",
        trials=trials,
        agreements=agreements,
        true_verdicts=true_count,
        disagreements=tuple(disagreements),
    )


def vector_complete_suite(
    trials: int = 100, *, seed: int = 1729, tol: Tolerances = DEFAULT_TOL
) -> VectorCompleteReport:
    """Row-versus-matrix extension agreement on a seeded 3-point disk sample."""
    rng = np.random.default_rng(seed)
    pts = _random_disk_points(rng, 3, 0.8)
    sample = gram(Szego(), pts, tol)
    return vector_vs_complete_check(sample, trials, tol, seed=seed, mu_values=(3,))
