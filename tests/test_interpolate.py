"""Pick matrices, operator norms, extension disks/balls, greedy evaluation."""

import numpy as np
import pytest

import cnpkit.interpolate
from cnpkit import (
    Ball,
    Bergman,
    Dirichlet,
    DomainError,
    ExplicitGram,
    InfeasibleExtensionError,
    NotPsdError,
    PickProblem,
    Sobolev,
    Szego,
    evaluate_interpolant,
    extend_one_point_matrix,
    extend_one_point_scalar,
    gram,
    is_psd,
    pick_matrix_block,
    pick_matrix_scalar,
    rep_operator_norm,
    solvable,
    vector_vs_complete_check,
)
from cnpkit.interpolate import _block_pick
from conftest import random_disk_points
from theory import greedy_values_stepwise, pick_scalar


def szego_sample(points):
    return gram(Szego(), points)


def multiplier_targets(rng, points, mu, nu, margin=0.8):
    """Targets sampled from a random matrix polynomial of sup norm <= margin."""
    Cs = [
        rng.standard_normal((mu, nu)) + 1j * rng.standard_normal((mu, nu))
        for _ in range(3)
    ]
    bound = sum(np.linalg.norm(C, 2) for C in Cs)
    Cs = [margin * C / bound for C in Cs]
    return np.array([Cs[0] + Cs[1] * z + Cs[2] * z * z for z in points])


def draw_points(kernel, rng, n):
    if isinstance(kernel, Sobolev):
        return list(rng.uniform(0.0, 1.0, n))
    if isinstance(kernel, Ball):
        v = rng.standard_normal((n, kernel.m)) + 1j * rng.standard_normal((n, kernel.m))
        r = 0.8 * rng.uniform(0.0, 1.0, (n, 1))
        return list(r * v / np.linalg.norm(v, axis=1, keepdims=True))
    return list(random_disk_points(rng, n, 0.8))


def greedy_case(kernel, seed, n, m):
    """Scalar data of multiplier norm 0.8 at n points, and m evaluation points."""
    rng = np.random.default_rng(seed)
    pts = draw_points(kernel, rng, n + m)
    s = gram(kernel, pts[:n])
    lam = random_disk_points(rng, n, 1.0)
    lam *= 0.8 / rep_operator_norm(PickProblem.scalar(s, lam))
    return PickProblem.scalar(s, lam), pts[n:]


def extended_pick_min_eig(kernel, points, targets, new_point, value):
    K_ext = gram(kernel, list(points) + [new_point]).gram.a
    lam = np.append(np.asarray(targets, dtype=complex), value)
    P = pick_scalar(K_ext, lam)
    return np.linalg.eigvalsh((P + P.conj().T) / 2.0)[0]


class TestPickMatrixScalar:
    def test_zero_targets_give_gram(self):
        rng = np.random.default_rng(71)
        s = szego_sample(random_disk_points(rng, 4, 0.8))
        P = pick_matrix_scalar(PickProblem.scalar(s, np.zeros(4)))
        np.testing.assert_allclose(P.a, s.gram.a, atol=1e-15)

    def test_extremal_by_hand(self):
        s = szego_sample([0, 0.5])
        P = pick_matrix_scalar(PickProblem.scalar(s, [0, 0.5]))
        np.testing.assert_allclose(P.a, np.ones((2, 2)), atol=1e-15)

    def test_single_point_contraction(self):
        s = szego_sample([0.3])
        P = pick_matrix_scalar(PickProblem.scalar(s, [0.9]))
        assert P.a[0, 0].real >= 0


class TestPickMatrixBlock:
    def test_reduces_to_scalar(self):
        rng = np.random.default_rng(73)
        s = szego_sample(random_disk_points(rng, 4, 0.8))
        lam = random_disk_points(rng, 4, 0.9)
        P1 = pick_matrix_scalar(PickProblem.scalar(s, lam)).a
        P2 = pick_matrix_block(PickProblem.matrix(s, lam.reshape(4, 1, 1))).a
        np.testing.assert_allclose(P1, P2, atol=1e-14)

    def test_zero_targets_give_kron(self):
        rng = np.random.default_rng(75)
        s = szego_sample(random_disk_points(rng, 3, 0.8))
        P = pick_matrix_block(PickProblem.matrix(s, np.zeros((3, 2, 2))))
        np.testing.assert_allclose(P.a, np.kron(s.gram.a, np.eye(2)), atol=1e-14)
        assert is_psd(P).ok

    def test_common_isometry_column(self):
        # all targets one fixed unit column: I - Lam Lam* is an orthogonal
        # projection, so the block matrix is Gram (x) projection, PSD
        rng = np.random.default_rng(77)
        s = szego_sample(random_disk_points(rng, 3, 0.8))
        u = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        u = (u / np.linalg.norm(u)).reshape(3, 1)
        P = pick_matrix_block(PickProblem.matrix(s, np.array([u, u, u])))
        assert is_psd(P).ok
        expected = np.kron(s.gram.a, np.eye(3) - u.conj() @ u.T)
        np.testing.assert_allclose(P.a, expected, atol=1e-13)

    def test_shape_mismatch_rejected(self):
        s = szego_sample([0, 0.5])
        with pytest.raises(DomainError):
            PickProblem.matrix(s, np.zeros((3, 2, 2)))


class TestRepOperatorNorm:
    def test_constant_targets(self):
        rng = np.random.default_rng(79)
        s = szego_sample(random_disk_points(rng, 5, 0.8))
        for c in (0.0, 0.25, 0.7 - 0.3j, 2.0):
            p = PickProblem.scalar(s, np.full(5, c))
            assert rep_operator_norm(p) == pytest.approx(abs(c), abs=1e-10)

    def test_extremal_example_norm_one(self):
        p = PickProblem.scalar(szego_sample([0, 0.5]), [0, 0.5])
        assert rep_operator_norm(p) == pytest.approx(1.0, abs=1e-9)

    def test_norm_scales_linearly(self):
        rng = np.random.default_rng(81)
        s = szego_sample(random_disk_points(rng, 4, 0.8))
        lam = random_disk_points(rng, 4, 0.9)
        base = rep_operator_norm(PickProblem.scalar(s, lam))
        scaled = rep_operator_norm(PickProblem.scalar(s, 2.5 * lam))
        assert scaled == pytest.approx(2.5 * base, rel=1e-12)

    def test_matrix_norm_matches_scalar_embedding(self):
        rng = np.random.default_rng(83)
        s = szego_sample(random_disk_points(rng, 3, 0.8))
        lam = random_disk_points(rng, 3, 0.9)
        n1 = rep_operator_norm(PickProblem.scalar(s, lam))
        n2 = rep_operator_norm(PickProblem.matrix(s, lam.reshape(3, 1, 1)))
        assert n1 == pytest.approx(n2, rel=1e-12)

    def test_singular_gram_warns_and_restricts_to_range(self):
        # two nearly coincident points make the basis Gram numerically
        # rank-one; the norm is still computed on the range
        s = szego_sample([0.5, 0.5 + 1e-9])
        p = PickProblem.scalar(s, [0.3, 0.3])
        with pytest.warns(UserWarning, match="numerically singular"):
            norm = rep_operator_norm(p)
        assert norm == pytest.approx(0.3, abs=1e-6)

    def test_norm_pick_equivalence(self, tol):
        rng = np.random.default_rng(85)
        for _ in range(100):
            n = int(rng.integers(2, 7))
            s = szego_sample(random_disk_points(rng, n, 0.8))
            lam = random_disk_points(rng, n, 1.0) * rng.uniform(0.3, 1.3)
            p = PickProblem.scalar(s, lam)
            norm_ok = rep_operator_norm(p, tol) <= 1.0 + 1e-8
            assert norm_ok == is_psd(pick_matrix_scalar(p), tol).ok


class TestSolvable:
    def test_extremal_solvable_with_zero_margin(self, tol):
        rep = solvable(PickProblem.scalar(szego_sample([0, 0.5]), [0, 0.5]), tol)
        assert rep.solvable and rep.cnp_certified
        assert rep.min_eigenvalue == pytest.approx(0.0, abs=1e-12)

    def test_schwarz_violation(self, tol):
        rep = solvable(PickProblem.scalar(szego_sample([0, 0.5]), [0, 0.9]), tol)
        assert not rep.solvable

    def test_target_outside_disk(self, tol):
        rep = solvable(PickProblem.scalar(szego_sample([0.2]), [1.5]), tol)
        assert not rep.solvable

    def test_note_mentions_necessary_only_without_certificate(
        self, bergman_witness_sample, tol
    ):
        p = PickProblem.scalar(bergman_witness_sample, [0, 0, 0])
        rep = solvable(p, tol)
        assert rep.solvable  # zero targets always pass the matrix test
        assert not rep.cnp_certified
        assert "necessary condition only" in rep.note


class TestExtendScalar:
    def test_schwarz_disk(self):
        p = PickProblem.scalar(szego_sample([0]), [0])
        d = extend_one_point_scalar(p, 0.5)
        assert d.center == pytest.approx(0.0, abs=1e-12)
        assert d.radius == pytest.approx(0.5, abs=1e-12)

    def test_unique_interpolant_pins_disk(self):
        rng = np.random.default_rng(87)
        p = PickProblem.scalar(szego_sample([0, 0.5]), [0, 0.5])
        for z in random_disk_points(rng, 5, 0.9):
            d = extend_one_point_scalar(p, z)
            assert abs(d.center - z) <= 1e-8
            assert d.radius <= 1e-8

    def test_empty_data_unit_disk(self):
        d = extend_one_point_scalar(Szego(), 0.3 + 0.1j)
        assert d.center == 0 and d.radius == pytest.approx(1.0)

    def test_new_point_must_be_fresh(self):
        p = PickProblem.scalar(szego_sample([0, 0.5]), [0, 0.1])
        with pytest.raises(DomainError, match="duplicates"):
            extend_one_point_scalar(p, 0.5)

    def test_unsolvable_data_rejected(self):
        p = PickProblem.scalar(szego_sample([0, 0.5]), [0, 0.9])
        with pytest.raises(NotPsdError):
            extend_one_point_scalar(p, 0.25)

    def test_boundary_soundness(self, tol):
        # on the returned circle the extended Pick matrix is singular PSD
        rng = np.random.default_rng(89)
        pts = random_disk_points(rng, 3, 0.7)
        lam = random_disk_points(rng, 3, 1.0)
        lam *= 0.8 / rep_operator_norm(PickProblem.scalar(szego_sample(pts), lam))
        p = PickProblem.scalar(szego_sample(pts), lam)
        z4 = 0.4 - 0.3j
        d = extend_one_point_scalar(p, z4, tol)
        assert d.radius > 0.01
        for ang in np.linspace(0, 2 * np.pi, 8, endpoint=False):
            lam4 = d.center + d.radius * np.exp(1j * ang)
            m = extended_pick_min_eig(Szego(), pts, lam, z4, lam4)
            assert abs(m) <= 1e-7

    def test_interior_soundness(self, tol):
        rng = np.random.default_rng(91)
        pts = random_disk_points(rng, 3, 0.7)
        lam = random_disk_points(rng, 3, 1.0)
        lam *= 0.7 / rep_operator_norm(PickProblem.scalar(szego_sample(pts), lam))
        p = PickProblem.scalar(szego_sample(pts), lam)
        z4 = -0.2 + 0.45j
        d = extend_one_point_scalar(p, z4, tol)
        assert extended_pick_min_eig(Szego(), pts, lam, z4, d.center) >= -1e-7
        for _ in range(8):
            lam4 = d.center + d.radius * np.sqrt(rng.uniform()) * np.exp(
                2j * np.pi * rng.uniform()
            )
            assert extended_pick_min_eig(Szego(), pts, lam, z4, lam4) >= -1e-7

    def test_grid_oracle_agreement(self, tol):
        # direct PSD classification on a polar grid matches disk membership
        # away from a thin boundary annulus
        rng = np.random.default_rng(93)
        pts = random_disk_points(rng, 3, 0.7)
        lam = random_disk_points(rng, 3, 1.0)
        lam *= 0.75 / rep_operator_norm(PickProblem.scalar(szego_sample(pts), lam))
        z4 = 0.35 + 0.2j
        d = extend_one_point_scalar(
            PickProblem.scalar(szego_sample(pts), lam), z4, tol
        )
        K_ext = gram(Szego(), list(pts) + [z4]).gram.a
        rr = np.sqrt(np.linspace(0.0, 1.0, 40))
        th = np.linspace(0.0, 2 * np.pi, 40, endpoint=False)
        grid = (rr[:, None] * np.exp(1j * th)[None, :]).ravel()
        lam_g = np.broadcast_to(lam, (grid.size, 3)).copy()
        lam_full = np.concatenate([lam_g, grid[:, None]], axis=1)
        # batched Pick: entry (i, j) is (1 - conj(lam_i) lam_j) K(i, j)
        P = (1.0 - lam_full[:, :, None].conj() * lam_full[:, None, :]) * K_ext
        P = (P + np.conj(np.swapaxes(P, 1, 2))) / 2.0
        min_eigs = np.linalg.eigvalsh(P)[:, 0]
        psd = min_eigs >= -1e-12 * np.max(np.abs(K_ext))
        inside = np.abs(grid - d.center) <= d.radius
        annulus = np.abs(np.abs(grid - d.center) - d.radius) <= 1e-6
        assert np.all((psd == inside) | annulus)


class TestExtendMatrix:
    def test_degenerates_to_scalar_disk(self, tol):
        rng = np.random.default_rng(95)
        pts = random_disk_points(rng, 3, 0.7)
        s = szego_sample(pts)
        lam = random_disk_points(rng, 3, 1.0)
        lam *= 0.8 / rep_operator_norm(PickProblem.scalar(s, lam))
        d = extend_one_point_scalar(PickProblem.scalar(s, lam), 0.3, tol)
        b = extend_one_point_matrix(
            PickProblem.matrix(s, lam.reshape(3, 1, 1)), 0.3, tol
        )
        assert abs(b.center[0, 0] - d.center) <= 1e-9
        radius = np.sqrt(b.left_factor[0, 0].real * b.right_factor[0, 0].real)
        assert abs(radius - d.radius) <= 1e-9

    def test_zero_targets_center_zero_feasible(self, tol):
        rng = np.random.default_rng(97)
        s = szego_sample(random_disk_points(rng, 3, 0.7))
        p = PickProblem.matrix(s, np.zeros((3, 2, 2)))
        for z in random_disk_points(rng, 5, 0.9):
            ball = extend_one_point_matrix(p, z, tol)
            np.testing.assert_allclose(ball.center, np.zeros((2, 2)), atol=1e-10)

    def test_sampled_contractions_feasible(self, tol):
        rng = np.random.default_rng(99)
        pts = random_disk_points(rng, 2, 0.7)
        s = szego_sample(pts)
        targets = multiplier_targets(rng, pts, 2, 2)
        p = PickProblem.matrix(s, targets)
        assert is_psd(pick_matrix_block(p), tol).ok
        z_new = 0.25 - 0.4j
        ball = extend_one_point_matrix(p, z_new, tol)
        wl, Vl = np.linalg.eigh(ball.left_factor)
        L12 = (Vl * np.sqrt(np.maximum(wl, 0))) @ Vl.conj().T
        wr, Vr = np.linalg.eigh(ball.right_factor)
        R12 = (Vr * np.sqrt(np.maximum(wr, 0))) @ Vr.conj().T
        K_ext = gram(Szego(), list(pts) + [z_new]).gram.a
        for _ in range(100):
            C = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            C *= rng.uniform(0, 1) / np.linalg.norm(C, 2)
            new = ball.center + L12 @ C @ R12
            ext = np.concatenate([targets, new[None]], axis=0)
            P = _block_pick(K_ext, ext)
            w = np.linalg.eigvalsh((P + P.conj().T) / 2.0)
            assert w[0] >= -1e-7 * max(1.0, np.max(np.abs(w)))

    def test_partially_pinned_ball_is_feasible(self, tol):
        # rows (z, 0) at 0 and 0.5: the Pick matrix is singular and pins the
        # first coordinate at the new point; every member of the ball must
        # keep the extended block Pick matrix PSD
        s = szego_sample([0, 0.5])
        targets = np.array([[[0, 0]], [[0.5, 0]]], dtype=complex)
        ball = extend_one_point_matrix(PickProblem.matrix(s, targets), 0.3j, tol)
        assert abs(ball.center[0, 0] - 0.3j) <= 1e-9
        wr, Vr = np.linalg.eigh(ball.right_factor)
        R12 = (Vr * np.sqrt(np.maximum(wr, 0))) @ Vr.conj().T
        L12 = np.sqrt(max(ball.left_factor[0, 0].real, 0.0))
        K_ext = gram(Szego(), [0, 0.5, 0.3j]).gram.a
        for C in ([[1, 0]], [[0, 1]], [[0.6, 0.8j]]):
            new = ball.center + L12 * np.array(C) @ R12
            P = _block_pick(K_ext, np.concatenate([targets, new[None]], axis=0))
            assert np.linalg.eigvalsh((P + P.conj().T) / 2.0)[0] >= -1e-9

    def test_ball_boundary_is_sharp(self, tol):
        rng = np.random.default_rng(101)
        pts = random_disk_points(rng, 3, 0.6)
        s = szego_sample(pts)
        targets = multiplier_targets(rng, pts, 2, 2)
        ball = extend_one_point_matrix(PickProblem.matrix(s, targets), 0.3j, tol)
        wl, Vl = np.linalg.eigh(ball.left_factor)
        L12 = (Vl * np.sqrt(np.maximum(wl, 0))) @ Vl.conj().T
        wr, Vr = np.linalg.eigh(ball.right_factor)
        R12 = (Vr * np.sqrt(np.maximum(wr, 0))) @ Vr.conj().T
        K_ext = gram(Szego(), list(pts) + [0.3j]).gram.a
        C = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
        ext = np.concatenate([targets, (ball.center + L12 @ C @ R12)[None]], axis=0)
        P = _block_pick(K_ext, ext)
        w = np.linalg.eigvalsh((P + P.conj().T) / 2.0)
        assert abs(w[0]) <= 1e-9 * max(1.0, np.max(np.abs(w)))


# Data whose one-point extension is empty, one case per way it can fail:
# (kernel, points, scalar targets, new point, witness key, witness value).
INFEASIBLE = {
    # singular Pick matrix [[1, .6], [.6, .36]] whose null space the new
    # kernel column leaves
    "range": (
        ExplicitGram([[1, 0.6, 0.3], [0.6, 1, 0], [0.3, 0, 1]]),
        [0, 1], [0, 0.8], 2, "residual", 0.1543,
    ),
    # Bergman data with a positive definite Pick matrix (minimum 0.175) and
    # a negative Schur maximum at the new point
    "empty": (
        Bergman(),
        [0.49 + 0.04j, -0.62 + 0.28j], [-0.63 - 0.55j, -0.31 + 0.62j], 0.03 - 0.34j,
        "schur_min_eigenvalue", -1.97e-3,
    ),
    # singular Bergman Pick matrix: the range constraint pins the target to a
    # value the Schur complement refuses
    "pinned": (
        Bergman(), [0, 0.5], [0, np.sqrt(0.4375)], 0.3, "schur_min_eigenvalue", -4.97e-3,
    ),
}


class TestInfeasibleExtension:
    @pytest.mark.parametrize("name", sorted(INFEASIBLE))
    def test_scalar_and_one_by_one_matrix_paths_refuse_alike(self, name, tol):
        kernel, pts, lam, new, key, value = INFEASIBLE[name]
        s = gram(kernel, pts)
        problems = (
            (extend_one_point_scalar, PickProblem.scalar(s, lam)),
            (extend_one_point_matrix, PickProblem.matrix(s, np.reshape(lam, (-1, 1, 1)))),
        )
        witnesses = []
        for extend, p in problems:
            with pytest.raises(InfeasibleExtensionError) as exc:
                extend(p, new, tol)
            witnesses.append(exc.value.witness)
        assert witnesses[0].keys() == witnesses[1].keys()
        for w in witnesses:
            assert w[key] == pytest.approx(value, rel=1e-3)

    def test_pinned_two_by_two(self, tol):
        t = np.sqrt(0.4375)
        s = gram(Bergman(), [0, 0.5])
        p = PickProblem.matrix(s, [np.zeros((2, 2)), np.diag([t, t])])
        assert is_psd(pick_matrix_block(p), tol).min_eigenvalue == pytest.approx(0, abs=1e-12)
        with pytest.raises(InfeasibleExtensionError) as exc:
            extend_one_point_matrix(p, 0.3, tol)
        assert exc.value.witness["schur_min_eigenvalue"] == pytest.approx(-4.97e-3, rel=1e-3)


class TestEvaluateInterpolant:
    def test_unique_interpolant_reproduced(self):
        p = PickProblem.scalar(szego_sample([0, 0.5]), [0, 0.5])
        vals = evaluate_interpolant(p, [0.25])
        assert abs(vals[0] - 0.25) <= 1e-8

    def test_schwarz_center_committed(self):
        p = PickProblem.scalar(szego_sample([0]), [0])
        vals = evaluate_interpolant(p, [0.5])
        assert abs(vals[0]) <= 1e-12

    def test_empty_data_gives_zero(self):
        vals = evaluate_interpolant(Szego(), [0.4 - 0.2j])
        assert vals[0] == 0

    def test_blaschke_data_unique_regime(self):
        # degree-two inner function: its three-point data has a singular
        # rank-two Pick matrix, so the interpolant is unique and the greedy
        # values must reproduce it
        a = 0.4 + 0.1j

        def phi(z):
            return z * (z - a) / (1.0 - np.conj(a) * z)

        rng = np.random.default_rng(103)
        pts = random_disk_points(rng, 3, 0.8)
        p = PickProblem.scalar(szego_sample(pts), [phi(z) for z in pts])
        evals = random_disk_points(rng, 6, 0.85)
        vals = evaluate_interpolant(p, evals)
        np.testing.assert_allclose(vals, [phi(z) for z in evals], atol=1e-6)

    def test_prefixes_stay_solvable(self, tol):
        rng = np.random.default_rng(105)
        pts = random_disk_points(rng, 3, 0.7)
        lam = random_disk_points(rng, 3, 1.0)
        lam *= 0.75 / rep_operator_norm(PickProblem.scalar(szego_sample(pts), lam))
        p = PickProblem.scalar(szego_sample(pts), lam)
        evals = random_disk_points(rng, 4, 0.9)
        vals = evaluate_interpolant(p, evals, tol)
        all_pts = list(pts) + list(evals)
        all_lam = np.concatenate([lam, vals])
        for k in range(3, 8):
            sub = PickProblem.scalar(szego_sample(all_pts[:k]), all_lam[:k])
            assert is_psd(pick_matrix_scalar(sub), tol).ok

    def test_coincident_eval_points_rejected(self):
        p = PickProblem.scalar(szego_sample([0]), [0])
        with pytest.raises(DomainError, match="coincide"):
            evaluate_interpolant(p, [0.5, 0.5])

    @pytest.mark.parametrize(
        "evals, message",
        [
            ([0.3, 0.5, 0.0], "new point duplicates sample point 1$"),
            ([0.1, 0.2, 0.1, 0.2], "evaluation points 0 and 2 coincide$"),
            ([0.5, 0.3, 0.3], "evaluation points 1 and 2 coincide$"),
        ],
        ids=["first-evaluation-then-first-sample", "first-pair", "among-evaluations-first"],
    )
    def test_duplicate_points_named(self, evals, message):
        p = PickProblem.scalar(szego_sample([0, 0.5]), [0, 0.1])
        with pytest.raises(DomainError, match=message):
            evaluate_interpolant(p, evals)

    def test_empty_evaluation_list(self):
        for p in (PickProblem.scalar(szego_sample([0]), [0]), Szego()):
            vals = evaluate_interpolant(p, [])
            assert vals.shape == (0,) and vals.dtype == complex


class TestEvaluateOneGram:
    """One Gram of data and evaluation points, sliced per step, against the
    step-by-step reference that assembles a Gram for every prefix."""

    @pytest.mark.parametrize("kernel", [Szego(), Dirichlet(), Sobolev()], ids=lambda k: k.name)
    def test_values_bit_identical_to_stepwise_reference(self, kernel, tol):
        p, evals = greedy_case(kernel, 211, 6, 10)
        vals = evaluate_interpolant(p, evals, tol)
        np.testing.assert_array_equal(vals, greedy_values_stepwise(p, evals, tol))

    def test_ball_values_agree_with_stepwise_reference(self, tol):
        # Ball.cross is a matmul: the last bits of an entry depend on the
        # size of the product, so a slice of one Gram is not bit-identical
        # to the Gram of the prefix. The greedy path amplifies that by up to
        # about the condition number of the Gram, so the 1e-12 bound is
        # asserted on a sample whose Gram is well conditioned.
        p, evals = greedy_case(Ball(2), 214, 4, 6)
        assert np.linalg.cond(gram(Ball(2), list(p.sample.points) + evals).gram.a) < 1e5
        vals = evaluate_interpolant(p, evals, tol)
        np.testing.assert_allclose(vals, greedy_values_stepwise(p, evals, tol), rtol=0, atol=1e-12)

    def test_one_gram_call(self, monkeypatch):
        p, evals = greedy_case(Sobolev(), 217, 40, 30)
        calls = []

        def counting_gram(*args, **kwargs):
            calls.append(args)
            return gram(*args, **kwargs)

        monkeypatch.setattr(cnpkit.interpolate, "gram", counting_gram)
        assert evaluate_interpolant(p, evals).shape == (30,)
        assert len(calls) == 1 and len(calls[0][1]) == 70

    def test_indefinite_extension_refused_before_any_value(self, monkeypatch):
        # data {0, 1} plus evaluation point 2 span a PSD block; point 3 makes
        # the extended Gram indefinite (Schur complement 1 - 3 * 0.81 / 2)
        M = np.full((4, 4), 0.5) + 0.5 * np.eye(4)
        M[3, :3] = M[:3, 3] = 0.9
        p = PickProblem.scalar(gram(ExplicitGram(M), [0, 1]), [0, 0])
        steps = []
        original = cnpkit.interpolate._schur_extension

        def counting_extension(*args):
            steps.append(1)
            return original(*args)

        monkeypatch.setattr(cnpkit.interpolate, "_schur_extension", counting_extension)
        with pytest.raises(DomainError, match="not positive definite"):
            evaluate_interpolant(p, [2, 3])
        assert steps == []

    def test_hairline_prefix_refused(self):
        # the prefix {0, 1} has min eigenvalue -3e-9, below its own floor
        # -1e-9 * 2; the entry 100 lowers the floor of the whole Gram to
        # -1e-7, which it passes, so only the smallest prefix's floor refuses
        a = 1.0 + 3e-9
        k = ExplicitGram([[1.0, a, 0.0], [a, 1.0, 0.0], [0.0, 0.0, 100.0]])
        with pytest.raises(DomainError, match="not positive definite"):
            gram(k, [0, 1])
        gram(k, [0, 1, 2])
        p = PickProblem.scalar(gram(k, [0]), [0])
        with pytest.raises(DomainError, match="not positive definite"):
            evaluate_interpolant(p, [1, 2])


class TestVectorVsComplete:
    def test_szego_all_extensions_succeed(self, tol):
        rng = np.random.default_rng(107)
        s = szego_sample(random_disk_points(rng, 3, 0.8))
        rep = vector_vs_complete_check(s, 40, tol, seed=11, mu_values=(2, 3))
        assert rep.trials == 40
        assert rep.row_extension_ok == 40
        assert dict(rep.matrix_extension_ok) == {2: 40, 3: 40}
        assert not rep.failures

    def test_bergman_witness_flags_failures(self, bergman_witness_sample, tol):
        rep = vector_vs_complete_check(
            bergman_witness_sample, 60, tol, seed=7, mu_values=(2,)
        )
        stages = {f["stage"] for f in rep.failures}
        assert "row_extension" in stages
