"""Certification matrices, verdicts, witnesses, and their equivalences."""

import numpy as np
import pytest

from cnpkit import (
    Ball,
    Bergman,
    Dirichlet,
    ExplicitGram,
    Inertia,
    ReducibleKernelError,
    Sobolev,
    Szego,
    certify_cnp,
    f_form,
    f_matrix,
    find_non_cnp_triple,
    gram,
    h_matrix,
    inertia,
    irreducible_partition,
    is_psd,
)
from conftest import random_disk_points
from theory import hadamard, m_matrix, normalize_at, schur_complement


class TestFMatrix:
    def test_szego_by_hand(self):
        s = gram(Szego(), [0, 0.5])
        np.testing.assert_allclose(f_matrix(s, 1).a, [[0.25]], atol=1e-15)

    def test_diagonal_in_unit_interval(self):
        rng = np.random.default_rng(31)
        for kernel in (Szego(), Dirichlet(), Sobolev()):
            pts = (
                rng.uniform(0.05, 0.95, 6)
                if isinstance(kernel, Sobolev)
                else random_disk_points(rng, 6, 0.85)
            )
            s = gram(kernel, pts)
            for b in range(6):
                d = np.real(np.diag(f_matrix(s, b).a))
                assert np.all(d >= -1e-14) and np.all(d < 1.0)

    def test_normalized_sample_reduces_to_one_minus_reciprocal(self):
        rng = np.random.default_rng(33)
        s = gram(Szego(), random_disk_points(rng, 5, 0.8))
        ns, _ = normalize_at(s, 2)
        F = f_matrix(ns, 2).a
        idx = [i for i in range(5) if i != 2]
        expected = 1.0 - 1.0 / ns.gram.a[np.ix_(idx, idx)]
        np.testing.assert_allclose(F, expected, atol=1e-13)

    def test_zero_entry_directs_to_partition(self):
        with pytest.raises(ReducibleKernelError, match="irreducible_partition"):
            f_matrix(np.eye(3), 0)


class TestZeroEntryRule:
    """One rule, ``|K[i, j]| <= kernel_zero_abs * max|K|``, for every consumer."""

    @pytest.mark.parametrize("factor, zero", [(0.5, True), (2.0, False)])
    def test_every_consumer_classifies_alike(self, tol, factor, zero):
        # at scale 1e3 the relative threshold is 2e-9, far above the absolute 1e-12
        K = 1e3 * np.array([[2.0, 0.0, 0.5], [0.0, 2.0, 0.5], [0.5, 0.5, 2.0]], dtype=complex)
        K[0, 1] = K[1, 0] = factor * tol.kernel_zero_abs * np.max(np.abs(K))

        def refused(build):
            try:
                build()
            except ReducibleKernelError as exc:
                assert exc.index == (0, 1)
                return True
            return False

        zero_seen = {
            "irreducible_partition": not irreducible_partition(K, tol).consistent,
            "f_matrix": refused(lambda: f_matrix(K, 2, tol)),
            "f_form": refused(lambda: f_form(K, 2, tol)),
            "h_matrix": refused(lambda: h_matrix(K, tol)),
            "certify_cnp": certify_cnp(K, tol).method == "zero_pattern",
        }
        assert zero_seen == dict.fromkeys(zero_seen, zero)

    def test_f_matrix_is_f_form_without_base_row_and_column(self, tol):
        rng = np.random.default_rng(30)
        s = gram(Dirichlet(), random_disk_points(rng, 7, 0.9))
        for b in range(7):
            keep = [i for i in range(7) if i != b]
            full = f_form(s, b, tol).a
            assert np.array_equal(f_matrix(s, b, tol).a, full[np.ix_(keep, keep)])


class TestHMatrix:
    def test_szego_by_hand(self):
        s = gram(Szego(), [0, 0.5])
        H = h_matrix(s)
        np.testing.assert_allclose(H.a, [[1, 1], [1, 0.75]], atol=1e-15)
        assert inertia(H) == Inertia(1, 0, 1)

    def test_single_point(self):
        s = gram(Szego(), [0.3])
        H = h_matrix(s)
        assert inertia(H) == Inertia(1, 0, 0)

    def test_bergman_witness_has_two_positive(self, bergman_witness_sample):
        ine = inertia(h_matrix(bergman_witness_sample))
        assert ine.n_pos == 2


class TestMMatrix:
    def test_szego_by_hand(self):
        s = gram(Szego(), [0, 0.5])
        np.testing.assert_allclose(m_matrix(s, 1).a, [[1 / 3]], atol=1e-15)

    def test_psd_iff_f_psd(self, tol):
        rng = np.random.default_rng(35)
        for _ in range(50):
            kernel = (Szego(), Dirichlet(), Bergman())[int(rng.integers(0, 3))]
            n = int(rng.integers(2, 7))
            s = gram(kernel, random_disk_points(rng, n, 0.8))
            b = int(rng.integers(0, n))
            assert is_psd(m_matrix(s, b), tol).ok == is_psd(f_matrix(s, b), tol).ok

    def test_on_normalized_sample_equals_one_minus_h(self):
        rng = np.random.default_rng(37)
        s = gram(Szego(), random_disk_points(rng, 5, 0.8))
        ns, _ = normalize_at(s, 0)
        M = m_matrix(ns, 0).a
        idx = list(range(1, 5))
        H = 1.0 / ns.gram.a[np.ix_(idx, idx)]
        np.testing.assert_allclose(M, 1.0 - H, atol=1e-13)

    def test_congruence_route(self, tol):
        # inertia(H) = inertia(-M) + inertia([1/k_bb]), via the Schur
        # complement of the base entry after moving it last
        rng = np.random.default_rng(39)
        for _ in range(30):
            kernel = (Szego(), Dirichlet(), Sobolev())[int(rng.integers(0, 3))]
            n = int(rng.integers(2, 7))
            pts = (
                rng.uniform(0.0, 1.0, n)
                if isinstance(kernel, Sobolev)
                else random_disk_points(rng, n, 0.8)
            )
            if isinstance(kernel, Sobolev) and len(np.unique(pts)) < n:
                continue
            s = gram(kernel, pts)
            b = int(rng.integers(0, n))
            H = h_matrix(s, tol).a
            order = [i for i in range(n) if i != b] + [b]
            H_perm = H[np.ix_(order, order)]
            comp = schur_complement(H_perm, 1, tol)
            np.testing.assert_allclose(comp.a, -m_matrix(s, b, tol).a, atol=1e-11)
            tail = inertia(H[np.ix_([b], [b])], tol)
            assert inertia(H, tol) == inertia(comp, tol) + tail


class TestCertify:
    def test_szego_random_points(self, tol):
        rng = np.random.default_rng(41)
        s = gram(Szego(), random_disk_points(rng, 10, 0.9))
        cert = certify_cnp(s, tol)
        assert cert.verdict and cert.method == "h_inertia"
        assert cert.block_inertias[0].n_pos == 1
        assert len(cert.f_min_eigs) == 10

    def test_dirichlet_random_points(self, tol):
        rng = np.random.default_rng(43)
        s = gram(Dirichlet(), random_disk_points(rng, 10, 0.8))
        assert certify_cnp(s, tol).verdict

    def test_sobolev_grid(self, tol):
        s = gram(Sobolev(), np.linspace(0, 1, 9))
        assert certify_cnp(s, tol).verdict

    def test_ball_kernel(self, tol):
        rng = np.random.default_rng(45)
        pts = []
        for _ in range(6):
            x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            pts.append(0.7 * x / np.linalg.norm(x) * rng.uniform(0.1, 1.0))
        assert certify_cnp(gram(Ball(2), pts), tol).verdict

    def test_bergman_witness_refuted(self, bergman_witness_sample, tol):
        cert = certify_cnp(bergman_witness_sample, tol)
        assert not cert.verdict
        assert cert.method == "h_inertia"
        assert cert.witness["inertia"][0] == 2

    def test_false_witness_reproduces_violation(self, bergman_witness_sample, tol):
        cert = certify_cnp(bergman_witness_sample, tol)
        H = h_matrix(bergman_witness_sample, tol).a
        vecs = cert.witness["eigenvectors"]
        # two orthonormal directions with positive Rayleigh quotients
        assert vecs.shape[1] == 2
        for k in range(2):
            v = vecs[:, k]
            assert (v.conj() @ H @ v).real > 0
        overlap = abs(vecs[:, 0].conj() @ vecs[:, 1])
        assert overlap < 1e-10

    def test_reducible_sample_certified_per_block(self, tol):
        K = np.block(
            [
                [np.array([[1.0, 1.0], [1.0, 4 / 3]]), np.zeros((2, 1))],
                [np.zeros((1, 2)), np.array([[2.0]])],
            ]
        )
        cert = certify_cnp(K, tol)
        assert cert.verdict
        assert cert.blocks == ((0, 1), (2,))
        assert len(cert.block_inertias) == 2

    def test_inconsistent_zero_pattern_is_refutation(self, tol):
        K = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        cert = certify_cnp(K, tol)
        assert not cert.verdict
        assert cert.method == "zero_pattern"
        assert cert.witness["pair"] == [0, 2]

    def test_subsampling_monotonicity(self, tol):
        rng = np.random.default_rng(47)
        for kernel in (Szego(), Dirichlet(), Sobolev()):
            pts = (
                np.linspace(0.05, 0.95, 8)
                if isinstance(kernel, Sobolev)
                else random_disk_points(rng, 8, 0.8)
            )
            s = gram(kernel, pts)
            assert certify_cnp(s, tol).verdict
            for _ in range(10):
                k = int(rng.integers(1, 8))
                ix = sorted(rng.choice(8, size=k, replace=False))
                sub = gram(kernel, [pts[i] for i in ix])
                assert certify_cnp(sub, tol).verdict

    def test_scale_invariance(self, tol):
        rng = np.random.default_rng(49)
        for sample_kernel in (Szego(), Bergman()):
            pts = random_disk_points(rng, 5, 0.8)
            K = gram(sample_kernel, pts).gram.a
            for _ in range(10):
                d = rng.standard_normal(5) + 1j * rng.standard_normal(5)
                d += np.sign(d.real) + 1e-3  # keep away from zero
                Kp = np.outer(d.conj(), d) * K
                assert certify_cnp(Kp, tol).verdict == certify_cnp(K, tol).verdict


class TestNecessityReduction:
    """Reproduce the rank-one reduction behind the certificate equivalence.

    These proof-internal matrices stay out of the public API: G is the
    positive form of the leading subsample (zero at its own base row and
    column), L = K o (J - G) is the rank-one column product, and dividing
    the Schur product F o L entrywise by L recovers F.
    """

    def test_rank_one_reduction_chain(self, tol):
        rng = np.random.default_rng(109)
        pts = random_disk_points(rng, 5, 0.8)
        K = gram(Szego(), pts).gram.a
        K4 = K[:4, :4]
        J = np.ones((4, 4))

        G = f_form(K4, 3, tol).a
        assert is_psd(G, tol).ok
        assert np.all(G[3, :] == 0) and np.all(G[:, 3] == 0)

        L = K4 * (J - G)
        expected_L = np.outer(K4[:, 3], K4[3, :]) / K4[3, 3].real
        np.testing.assert_allclose(L, expected_L, atol=1e-13)
        assert is_psd(L, tol).ok and is_psd(1.0 / L, tol).ok
        assert np.linalg.matrix_rank(L, tol=1e-10) == 1

        F = f_matrix(K, 4, tol).a  # full-sample certificate over indices 0..3
        assert is_psd(hadamard(F, L), tol).ok
        np.testing.assert_allclose(hadamard(F, L).a / L, F, atol=1e-12)

    def test_perturbed_basis_display(self, tol):
        # with a basis Gram eps*I + J the blown-up matrix is
        # eps (K (x) I) + (K o (J - G)) (x) J; its positivity as eps -> 0
        # pins the positivity of K o (J - G), and Schur-multiplying by
        # F (x) J preserves it for certified kernels
        rng = np.random.default_rng(111)
        pts = random_disk_points(rng, 5, 0.8)
        K = gram(Szego(), pts).gram.a
        K4 = K[:4, :4]
        F = f_matrix(K, 4, tol).a
        J = np.ones((4, 4))
        nu = 3

        C = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        Gp = C @ C.conj().T
        Gp *= 0.5 / np.max(np.abs(Gp))
        while not is_psd(K4 * (J - Gp), tol).ok:
            Gp *= 0.5
        core = K4 * (J - Gp)
        for eps in (1e-3, 1e-6):
            blown = eps * np.kron(K4, np.eye(nu)) + np.kron(core, np.ones((nu, nu)))
            assert is_psd(blown, tol).ok
            assert is_psd(np.kron(F, np.ones((nu, nu))) * blown, tol).ok


class TestWitnessSearch:
    def test_search_is_deterministic_and_matches_fixture(self, bergman_witness):
        doc, points = bergman_witness
        found = find_non_cnp_triple(
            Bergman(), seed=doc["search_seed"], max_trials=10_000
        )
        np.testing.assert_allclose(found, points, atol=1e-15)

    def test_search_fails_on_certified_kernel(self):
        with pytest.raises(RuntimeError, match="no refuting"):
            find_non_cnp_triple(Szego(), seed=1, max_trials=300)

    def test_zero_diagonal_obstruction_cross_check(self, tol):
        # zero-diagonal, nonzero off-diagonal Schur product can never be PSD
        obstruction = np.array([[0.0, 2.0], [2.0, 0.0]])
        positive = np.array([[1.0, 0.5], [0.5, 1.0]])
        assert not is_psd(hadamard(obstruction, positive), tol).ok
