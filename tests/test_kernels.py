"""Kernel catalog, Gram assembly, normalization, and partition behavior."""

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.sparse.csgraph import connected_components

from cnpkit import (
    Ball,
    Bergman,
    Dirichlet,
    DomainError,
    ExplicitGram,
    ReducibleKernelError,
    Sobolev,
    Szego,
    certify_cnp,
    f_matrix,
    gram,
    irreducible_partition,
    kernel_from_json,
)
from conftest import random_disk_points
from theory import dirichlet_closed_form, normalize_at


ALL_SCALAR_KERNELS = [Szego(), Bergman(), Dirichlet()]


class TestEvaluate:
    def test_szego_at_origin(self):
        k = Szego()
        for y in [0, 0.5, 0.3 - 0.2j]:
            assert k.evaluate(0, y) == pytest.approx(1.0)

    def test_dirichlet_origin_removable_singularity(self):
        assert Dirichlet().evaluate(0, 0) == pytest.approx(1.0)

    def test_dirichlet_series_vs_closed_form(self):
        k = Dirichlet()
        rng = np.random.default_rng(2)
        for _ in range(50):
            x, y = random_disk_points(rng, 2, 0.9)
            w = np.conj(x) * y
            if abs(w) < 0.1:
                continue
            assert k.evaluate(x, y) == pytest.approx(
                dirichlet_closed_form(w), abs=1e-10
            )

    def test_dirichlet_closed_form_to_the_boundary(self):
        # Gram entries against the closed form, from the series region
        # |w| < 0.25 out to |z| = 1 - 1e-6. Pairs with |w| < 1e-3 are left
        # out: there the closed form itself loses digits to cancellation.
        rng = np.random.default_rng(3)
        radii = np.concatenate(
            [[1 - 1e-6, 1 - 1e-5, 0.9999, 0.999, 0.99, 0.05, 0.1], rng.uniform(0.03, 1.0, 40)]
        )
        z = radii * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, radii.size))
        K = gram(Dirichlet(), z).gram.a
        checked = 0
        for i in range(z.size):
            for j in range(z.size):
                w = np.conj(z[i]) * z[j]
                if abs(w) < 1e-3:
                    continue
                expected = dirichlet_closed_form(w)
                assert abs(K[i, j] - expected) <= 1e-12 * abs(expected), (i, j, abs(w))
                checked += 1
        assert checked > 0.9 * z.size**2

    @pytest.mark.parametrize("modulus", [2e-3, 1.01e-2, 3e-2, 0.099, 0.1, 0.2, 0.2499, 0.25, 0.5])
    def test_dirichlet_against_40_digits(self, modulus):
        # both sides of the series cut-off |w| = 0.25; cross(1, w) is the
        # kernel at the product w exactly
        mpmath = pytest.importorskip("mpmath")
        mpmath.mp.dps = 40
        w = modulus * np.exp(2j * np.pi * np.arange(100) / 100)
        got = Dirichlet().cross(np.ones(1), w)[0]
        for wi, gi in zip(w, got):
            z = mpmath.mpc(wi.real, wi.imag)
            exact = -mpmath.log(1 - z) / z
            assert abs(mpmath.mpc(gi.real, gi.imag) - exact) <= 1e-15 * abs(exact), wi

    def test_sobolev_corner_value(self):
        # coth(1), from the boundary-value derivation
        assert Sobolev().evaluate(1.0, 1.0) == pytest.approx(1.0 / np.tanh(1.0))

    def test_conjugate_symmetry(self):
        rng = np.random.default_rng(5)
        for kernel in ALL_SCALAR_KERNELS:
            for _ in range(100):
                x, y = random_disk_points(rng, 2, 0.95)
                assert abs(
                    kernel.evaluate(y, x) - np.conj(kernel.evaluate(x, y))
                ) <= 1e-12
        ball = Ball(3)
        for _ in range(100):
            x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            x, y = 0.5 * x / np.linalg.norm(x), 0.5 * y / np.linalg.norm(y)
            assert abs(ball.evaluate(y, x) - np.conj(ball.evaluate(x, y))) <= 1e-12
        sob = Sobolev()
        for _ in range(100):
            s, t = rng.uniform(0, 1, 2)
            assert abs(sob.evaluate(t, s) - np.conj(sob.evaluate(s, t))) <= 1e-12

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            Szego().coerce_point(1.0)
        with pytest.raises(DomainError):
            Sobolev().coerce_point(1.5)
        with pytest.raises(DomainError):
            Sobolev().coerce_point(0.5 + 0.1j)
        with pytest.raises(DomainError):
            Ball(2).coerce_point([0.9, 0.9])
        with pytest.raises(DomainError):
            Ball(2).coerce_point([0.5])


class TestSobolevReproducingProperty:
    """The derived kernel must actually reproduce point evaluation.

    Ground truth: numerical quadrature of the defining inner product
    int_0^1 f k_s + f' k_s' dt, which must equal f(s).
    """

    TRIALS = [
        (lambda t: 1.0, lambda t: 0.0),
        (lambda t: t, lambda t: 1.0),
        (lambda t: t * t, lambda t: 2 * t),
        (lambda t: np.sin(2 * t), lambda t: 2 * np.cos(2 * t)),
        (lambda t: np.exp(t), lambda t: np.exp(t)),
    ]

    @staticmethod
    def _k_and_dk(s):
        c = 1.0 / np.sinh(1.0)

        def k(t):
            lo, hi = min(s, t), max(s, t)
            return c * np.cosh(lo) * np.cosh(1.0 - hi)

        def dk(t):
            if t < s:
                return c * np.cosh(1.0 - s) * np.sinh(t)
            return -c * np.cosh(s) * np.sinh(1.0 - t)

        return k, dk

    @pytest.mark.parametrize("s", [0.0, 0.237, 0.5, 0.811, 1.0])
    def test_reproduces_point_evaluation(self, s):
        k, dk = self._k_and_dk(s)
        for f, df in self.TRIALS:
            integrand = lambda t: f(t) * k(t) + df(t) * dk(t)
            if 0.0 < s < 1.0:
                val = quad(integrand, 0.0, s)[0] + quad(integrand, s, 1.0)[0]
            else:
                val = quad(integrand, 0.0, 1.0)[0]
            assert val == pytest.approx(f(s), abs=1e-6)


class TestGram:
    def test_szego_by_hand(self):
        s = gram(Szego(), [0, 0.5])
        np.testing.assert_allclose(s.gram.a, [[1, 1], [1, 4 / 3]], atol=1e-15)

    def test_ball1_matches_szego(self):
        rng = np.random.default_rng(8)
        z = random_disk_points(rng, 6, 0.8)
        K1 = gram(Szego(), z).gram.a
        K2 = gram(Ball(1), [[c] for c in z]).gram.a
        np.testing.assert_allclose(K1, K2, atol=1e-15)

    def test_explicit_gram_passthrough(self):
        M = np.array([[2.0, 0.5], [0.5, 1.0]])
        s = gram(ExplicitGram(M), [0, 1])
        np.testing.assert_allclose(s.gram.a, M, atol=1e-15)

    def test_explicit_gram_subset(self):
        M = np.diag([1.0, 2.0, 3.0])
        s = gram(ExplicitGram(M), [2, 0])
        np.testing.assert_allclose(s.gram.a, np.diag([3.0, 1.0]), atol=1e-15)

    def test_explicit_gram_integral_indices(self):
        M = np.diag([1.0, 2.0, 3.0])
        assert gram(ExplicitGram(M), [2.0, 1 + 0j, np.int64(0)]).points == (2, 1, 0)

    @pytest.mark.parametrize("index", [1.7, 0.4, 1 + 0.5j, -0.5])
    def test_explicit_gram_non_integral_index_refused(self, index):
        with pytest.raises(DomainError, match="gram index must be an integer"):
            gram(ExplicitGram(np.eye(3)), [index])

    @pytest.mark.parametrize(
        "kernel, points",
        [
            (Szego(), [np.nan, complex(0, np.nan), complex(np.inf, np.nan)]),
            (Bergman(), [np.nan, complex(np.nan, 0.5)]),
            (Dirichlet(), [np.nan, complex(0.5, np.nan)]),
            (Sobolev(), [np.nan, np.inf, complex(0.5, np.nan)]),
            (Ball(2), [(np.nan, 0), (0.1, complex(np.inf, np.nan))]),
            (ExplicitGram(np.eye(3)), [np.nan, np.inf, -np.inf, complex(1, np.nan)]),
        ],
        ids=["szego", "bergman", "dirichlet", "sobolev", "ball", "explicit-gram"],
    )
    def test_non_finite_point_refused(self, kernel, points):
        for p in points:
            with pytest.raises(DomainError):
                gram(kernel, [p])

    def test_duplicate_points_rejected(self):
        with pytest.raises(DomainError, match="duplicate"):
            gram(Szego(), [0.1, 0.1])

    @pytest.mark.parametrize(
        "kernel, points, pair",
        [
            (Szego(), [0.1, 0.2, 0.3, 0.2, 0.1], (0, 4)),
            (Sobolev(), [0.5, 0.25, 0.75, 0.25], (1, 3)),
            (ExplicitGram(np.eye(3)), [2, 0, 1, 0], (1, 3)),
            # ball points are equal only when every coordinate is
            (Ball(2), [(0.1, 0.2), (0.2, 0.1), (0.1, 0.2j), (0.2, 0.1)], (1, 3)),
        ],
        ids=["szego", "sobolev", "explicit-gram", "ball"],
    )
    def test_first_duplicate_pair_named(self, kernel, points, pair):
        with pytest.raises(DomainError, match=f"duplicate points at positions {pair[0]} and {pair[1]}$"):
            gram(kernel, points)

    def test_non_pd_explicit_gram_rejected(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(DomainError, match="min eigenvalue"):
            gram(ExplicitGram(bad), [0, 1])

    def test_sobolev_grid_positive_definite(self):
        for n in (2, 5, 12, 30):
            t = np.linspace(0.0, 1.0, n)
            K = gram(Sobolev(), t).gram.a
            assert np.linalg.eigvalsh(K)[0] > 0


class TestNormalizeAt:
    def test_szego_already_normalized_at_zero(self):
        s = gram(Szego(), [0, 0.5, 0.2j])
        ns, delta = normalize_at(s, 0)
        np.testing.assert_allclose(ns.gram.a, s.gram.a, atol=1e-14)
        np.testing.assert_allclose(delta, np.ones(3), atol=1e-14)

    def test_sobolev_at_right_endpoint(self):
        t = np.linspace(0.0, 1.0, 7)
        s = gram(Sobolev(), t)
        ns, delta = normalize_at(s, 6)
        np.testing.assert_allclose(ns.gram.a[6, :], np.ones(7), atol=1e-13)
        expected = np.cosh(t) / np.sqrt(np.sinh(1.0) * np.cosh(1.0))
        np.testing.assert_allclose(delta, expected, atol=1e-13)

    def test_base_diagonal_is_one(self):
        rng = np.random.default_rng(10)
        s = gram(Dirichlet(), random_disk_points(rng, 5, 0.7))
        for b in range(5):
            ns, _ = normalize_at(s, b)
            assert ns.gram.a[b, b] == pytest.approx(1.0)

    def test_rescaling_reconstructs_original(self):
        rng = np.random.default_rng(12)
        s = gram(Szego(), random_disk_points(rng, 5, 0.8))
        ns, delta = normalize_at(s, 2)
        rebuilt = np.outer(delta.conj(), delta) * ns.gram.a
        np.testing.assert_allclose(rebuilt, s.gram.a, atol=1e-13)

    def test_preserves_f_matrix_and_verdict(self, tol):
        rng = np.random.default_rng(14)
        s = gram(Szego(), random_disk_points(rng, 6, 0.8))
        ns, _ = normalize_at(s, 1)
        for b in range(6):
            F1 = f_matrix(s, b, tol).a
            F2 = f_matrix(ns, b, tol).a
            assert np.max(np.abs(F1 - F2)) <= 1e-9
        assert certify_cnp(s, tol).verdict == certify_cnp(ns, tol).verdict is True

    def test_zero_in_base_row_raises(self):
        with pytest.raises(ReducibleKernelError):
            normalize_at(gram(ExplicitGram(np.eye(2)), [0, 1]), 0)


class TestPartition:
    def test_identity_splits(self):
        part = irreducible_partition(np.eye(2))
        assert part.blocks == ((0,), (1,))
        assert part.consistent

    def test_szego_single_block(self):
        rng = np.random.default_rng(16)
        s = gram(Szego(), random_disk_points(rng, 6, 0.8))
        part = irreducible_partition(s)
        assert part.blocks == (tuple(range(6)),)
        assert part.consistent

    def test_inconsistent_pattern_flagged(self):
        K = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        part = irreducible_partition(K)
        assert part.blocks == ((0, 1, 2),)
        assert not part.consistent
        assert (0, 2) in part.violations

    def test_block_diagonal(self):
        K = np.block(
            [
                [np.array([[1.0, 0.5], [0.5, 1.0]]), np.zeros((2, 1))],
                [np.zeros((1, 2)), np.array([[2.0]])],
            ]
        )
        part = irreducible_partition(K)
        assert part.blocks == ((0, 1), (2,))
        assert part.consistent

    def test_threshold_relative_to_max_modulus(self):
        # entries tiny in absolute terms but not relative to the matrix scale
        K = 1e-20 * np.array([[2.0, 1.0], [1.0, 2.0]])
        part = irreducible_partition(K)
        assert part.blocks == ((0, 1),)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_zero_patterns(self, seed):
        # components from scipy; zero pairs listed block by block, each
        # block's pairs in lexicographic order; some diagonal entries are zero
        rng = np.random.default_rng(seed)
        for _ in range(50):
            n = int(rng.integers(1, 25))
            upper = np.triu(rng.random((n, n)) < rng.uniform(0.0, 0.4), 1)
            K = (upper | upper.T | np.diag(rng.random(n) < 0.9)).astype(float)
            _, labels = connected_components(K, directed=False)
            blocks = sorted(tuple(np.flatnonzero(labels == c).tolist()) for c in set(labels))
            violations = [(i, j) for b in blocks for a, i in enumerate(b) for j in b[a + 1:]
                          if K[i, j] == 0]
            part = irreducible_partition(K)
            assert part.blocks == tuple(blocks)
            assert part.violations == tuple(violations)
            assert part.consistent == (not violations)


class TestKernelJson:
    @pytest.mark.parametrize(
        "doc, cls",
        [
            ({"type": "szego"}, Szego),
            ({"type": "bergman"}, Bergman),
            ({"type": "dirichlet", "series_terms": 64}, Dirichlet),
            ({"type": "sobolev"}, Sobolev),
            ({"type": "ball", "m": 2}, Ball),
        ],
    )
    def test_round_trip(self, doc, cls):
        k = kernel_from_json(doc)
        assert isinstance(k, cls)

    def test_unknown_type(self):
        with pytest.raises(DomainError, match="unknown kernel"):
            kernel_from_json({"type": "nope"})
