"""Hermitian primitives against hand-computed values and brute-force oracles."""

import warnings

import numpy as np
import pytest

from cnpkit import (
    HermitianMatrix,
    Inertia,
    NotPsdError,
    ReducibleKernelError,
    Tolerances,
    as_hermitian,
    gram_factor,
    inertia,
    is_psd,
)
from conftest import random_hermitian, random_psd
from theory import (
    SingularBlockError,
    hadamard,
    inertia_sum,
    reciprocal_entrywise,
    schur_complement,
)


class TestConstruction:
    def test_symmetrizes_and_records_defect(self):
        a = np.array([[1.0, 1.0 + 1e-14j], [1.0, 2.0]])
        h = HermitianMatrix(a)
        assert np.array_equal(h.a, h.a.conj().T)

    def test_entries_near_the_float_limit(self):
        a = np.array([[1e308, 0.5], [0.5, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = HermitianMatrix(a)
        assert np.array_equal(h.a, a)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            HermitianMatrix([[1.0, 2.0], [0.5, 1.0]])

    def test_rejects_nonsquare_and_empty(self):
        with pytest.raises(ValueError):
            HermitianMatrix(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            HermitianMatrix(np.zeros((0, 0)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="non-finite"):
            HermitianMatrix([[np.inf, 0], [0, 1]])

    def test_entries_read_only(self):
        h = as_hermitian(np.eye(2))
        with pytest.raises(ValueError):
            h.a[0, 0] = 5.0


class TestTolerances:
    def test_defaults(self, tol):
        assert tol.zero_eig_rel == 1e-9
        assert tol.psd_slack_rel == 1e-9
        assert tol.kernel_zero_abs == 1e-12

    @pytest.mark.parametrize("field", ["zero_eig_rel", "psd_slack_rel", "kernel_zero_abs"])
    def test_rejects_nonpositive(self, field):
        with pytest.raises(ValueError):
            Tolerances(**{field: 0.0})


class TestInertia:
    def test_identity(self):
        assert inertia(np.eye(2)) == Inertia(2, 0, 0)

    def test_zero(self):
        assert inertia(np.zeros((2, 2))) == Inertia(0, 2, 0)

    def test_indefinite_by_hand(self):
        # trace 7/4 > 0 and det -1/4 < 0 force one eigenvalue of each sign
        assert inertia([[1.0, 1.0], [1.0, 0.75]]) == Inertia(1, 0, 1)

    def test_zero_threshold_is_relative(self):
        big = np.diag([1e12, 1.0])  # 1.0 is below 1e-9 * 1e12
        assert inertia(big) == Inertia(1, 1, 0)

    def test_congruence_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(2, 9))
            A = random_hermitian(rng, n)
            S = np.eye(n) + 0.5 * (
                rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            )
            assert inertia(S @ A @ S.conj().T) == inertia(A)


class TestIsPsd:
    def test_identity(self):
        rep = is_psd(np.eye(3))
        assert rep.ok and rep.min_eigenvalue == pytest.approx(1.0)

    def test_rank_one_boundary(self):
        rep = is_psd([[1.0, 1.0], [1.0, 1.0]])
        assert rep.ok
        assert rep.min_eigenvalue == pytest.approx(0.0, abs=1e-14)

    def test_obstruction_matrix(self):
        # eigenvalues are exactly +-2
        rep = is_psd([[0.0, 2.0], [2.0, 0.0]])
        assert not rep.ok
        assert rep.min_eigenvalue == pytest.approx(-2.0)

    def test_witness_reproduces_violation(self):
        A = np.array([[0.0, 2.0], [2.0, 0.0]], dtype=complex)
        rep = is_psd(A)
        v = rep.eigenvector
        rayleigh = (v.conj() @ A @ v).real / (v.conj() @ v).real
        assert rayleigh == pytest.approx(rep.min_eigenvalue)

    def test_agrees_with_inertia_at_coupled_tolerances(self, tol):
        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            A = random_hermitian(rng, n)
            if rng.uniform() < 0.5:
                A = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
            assert is_psd(A, tol).ok == (inertia(A, tol).n_neg == 0)


class TestHadamard:
    def test_all_ones_is_identity_element(self):
        A = random_hermitian(np.random.default_rng(3), 4)
        out = hadamard(A, np.ones((4, 4)))
        np.testing.assert_allclose(out.a, as_hermitian(A).a, atol=1e-15)

    def test_zero_annihilates(self):
        A = random_hermitian(np.random.default_rng(4), 3)
        assert np.all(hadamard(A, np.zeros((3, 3))).a == 0)

    def test_by_hand(self):
        out = hadamard([[1, 1], [1, 4 / 3]], [[1, 1], [1, 3 / 4]])
        np.testing.assert_allclose(out.a, np.ones((2, 2)), atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            hadamard(np.eye(2), np.eye(3))

    def test_schur_product_theorem(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            A = random_psd(rng, n)
            B = random_psd(rng, n)
            assert is_psd(hadamard(A, B)).ok


class TestSchurComplement:
    def test_by_hand(self):
        out = schur_complement([[2.0, 1.0], [1.0, 1.0]], 1)
        np.testing.assert_allclose(out.a, [[1.0]], atol=1e-14)

    def test_block_diagonal_leaves_head(self):
        H = random_psd(np.random.default_rng(9), 3) + np.eye(3)
        A = np.block([[H, np.zeros((3, 2))], [np.zeros((2, 3)), np.eye(2)]])
        np.testing.assert_allclose(schur_complement(A, 2).a, H, atol=1e-12)

    def test_singular_tail_raises(self):
        A = np.diag([1.0, 1.0, 0.0])
        with pytest.raises(SingularBlockError, match="trailing 1x1 block"):
            schur_complement(A, 1)

    def test_tail_size_bounds(self):
        with pytest.raises(ValueError):
            schur_complement(np.eye(3), 3)

    def test_inertia_additivity(self):
        # Sylvester: inertia(A) = inertia(complement) + inertia(tail block), countwise
        rng = np.random.default_rng(13)
        done = 0
        while done < 200:
            n = int(rng.integers(2, 9))
            t = int(rng.integers(1, n))
            A = random_hermitian(rng, n)
            C = A[n - t :, n - t :]
            if np.min(np.abs(np.linalg.eigvalsh(C))) < 1e-6:
                continue
            done += 1
            total = inertia_sum(inertia(schur_complement(A, t)), inertia(C))
            assert total == inertia(A)


class TestReciprocal:
    def test_all_ones_fixed_point(self):
        out = reciprocal_entrywise(np.ones((2, 2)))
        np.testing.assert_allclose(out.a, np.ones((2, 2)), atol=1e-15)

    def test_by_hand(self):
        out = reciprocal_entrywise([[1, 1], [1, 4 / 3]])
        np.testing.assert_allclose(out.a, [[1, 1], [1, 3 / 4]], atol=1e-15)

    def test_zero_entry_identified(self):
        with pytest.raises(ReducibleKernelError) as err:
            reciprocal_entrywise(np.eye(2))
        assert err.value.index == (0, 1)


class TestGramFactor:
    def test_one_by_one(self):
        coords, m = gram_factor([[0.25]])
        assert m == 1
        np.testing.assert_allclose(coords, [[0.5]], atol=1e-15)

    def test_zero_matrix(self):
        coords, m = gram_factor(np.zeros((3, 3)))
        assert m == 0
        assert coords.shape == (3, 0)

    def test_rank_two_recovery(self):
        rng = np.random.default_rng(17)
        A = random_psd(rng, 5, rank=2)
        coords, m = gram_factor(A)
        assert m == 2
        np.testing.assert_allclose(coords @ coords.conj().T, A, atol=1e-10)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPsdError):
            gram_factor([[0.0, 2.0], [2.0, 0.0]])

    def test_round_trip_tolerance(self, tol):
        rng = np.random.default_rng(19)
        for _ in range(100):
            n = int(rng.integers(1, 9))
            A = random_psd(rng, n, rank=int(rng.integers(1, n + 1)))
            coords, _ = gram_factor(A, tol)
            scale = max(1.0, np.max(np.abs(np.linalg.eigvalsh(A))))
            err = np.max(np.abs(coords @ coords.conj().T - A))
            assert err <= 1e-9 * scale

    def test_deterministic_phases(self):
        rng = np.random.default_rng(21)
        A = random_psd(rng, 4, rank=3)
        c1, _ = gram_factor(A)
        c2, _ = gram_factor(A.copy())
        np.testing.assert_array_equal(c1, c2)
