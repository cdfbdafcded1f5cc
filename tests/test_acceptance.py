"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every test prints a ``[criterion NN] PASS|FAIL`` line (run with ``-s`` or
read captured output). Criterion 1 is split: 01a asserts its certification
content (one positive eigenvalue of H, every base passing the F test, under
one second), and 01b pins the full inertia triple of H, whose zero and
negative counts 01a leaves open.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.integrate import quad

from cnpkit import (
    Bergman,
    Dirichlet,
    PickProblem,
    Sobolev,
    Szego,
    Tolerances,
    certify_cnp,
    extend_one_point_scalar,
    f_matrix,
    find_non_cnp_triple,
    gram,
    h_matrix,
    inertia,
    irreducible_partition,
    is_psd,
    pick_matrix_scalar,
    reconstruct,
    rep_operator_norm,
    universal_embedding,
    vector_complete_suite,
)
from cnpkit.cli import main
from cnpkit.interpolate import _scalar_pick
from cnpkit.suites import certificate_equivalence_suite, norm_pick_equivalence_suite

from conftest import FIXTURES, random_disk_points
from theory import hadamard

TOL = Tolerances()
SEED = 1729


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {num}] FAIL - {description}")
        raise
    print(f"[criterion {num}] PASS - {description}")


def szego_30_sample():
    rng = np.random.default_rng(SEED)
    return gram(Szego(), random_disk_points(rng, 30, 0.9))


def test_criterion_01a_szego_certification():
    with criterion("01a", "szego 30-point certification, all bases, < 1 s"):
        t0 = time.perf_counter()
        sample = szego_30_sample()
        cert = certify_cnp(sample, TOL)
        elapsed = time.perf_counter() - t0
        assert cert.verdict is True
        assert cert.method == "h_inertia"
        ine = cert.block_inertias[0]
        assert ine.n_pos == 1
        assert len(cert.f_min_eigs) == 30  # F test ran for every base
        for _, min_eig in cert.f_min_eigs:
            assert min_eig >= -1e-8
        assert elapsed < 1.0, f"certification took {elapsed:.3f} s"


def test_criterion_01b_szego_literal_inertia_triple():
    with criterion("01b", "szego 30-point H-inertia equals (1, 28, 1)"):
        sample = szego_30_sample()
        z = np.asarray(sample.points)
        n = len(z)
        H = h_matrix(sample, TOL)
        # The Szego kernel is 1 / (1 - conj(x) y), so H = 11^T - conj(z) z^T:
        # rank <= 2, leaving at least n - 2 zero eigenvalues. On
        # span{1, conj(z)} the two nonzero eigenvalues multiply to
        # -(|1|^2 |z|^2 - |1^T z|^2), which is negative by Cauchy-Schwarz for
        # points that are not all equal. Hence (n_pos, n_zero, n_neg) is
        # (1, n - 2, 1).
        np.testing.assert_allclose(H.a, 1.0 - np.outer(z.conj(), z), rtol=0, atol=1e-12)
        expected = (1, n - 2, 1)
        ine = inertia(H, TOL)
        assert ine.as_tuple() == expected, (
            f"H-inertia {ine.as_tuple()} != {expected}: the reciprocal Gram of "
            f"the disk kernel is the all-ones matrix minus a rank-one matrix, "
            f"so it has rank two with one positive and one negative eigenvalue "
            f"and {n - 2} zero eigenvalues on {n} points"
        )


def test_criterion_02_dirichlet_certification():
    with criterion("02", "dirichlet 15-point certification, F floor -1e-8"):
        rng = np.random.default_rng(SEED + 1)
        sample = gram(Dirichlet(), random_disk_points(rng, 15, 0.8))
        cert = certify_cnp(sample, TOL)
        assert cert.verdict is True
        assert len(cert.f_min_eigs) == 15
        assert min(e for _, e in cert.f_min_eigs) >= -1e-8


def test_criterion_03_bergman_refutation(tmp_path):
    with criterion("03", "bergman witness triple found, frozen, CLI exits 1"):
        triple = find_non_cnp_triple(Bergman(), seed=SEED, max_trials=10_000)
        ine = inertia(h_matrix(gram(Bergman(), triple), TOL), TOL)
        assert ine.n_pos == 2

        frozen = json.loads((FIXTURES / "bergman_witness.json").read_text())
        frozen_pts = [complex(re, im) for re, im in frozen["points"]]
        np.testing.assert_allclose(triple, frozen_pts, atol=1e-15)

        out = tmp_path / "bergman.json"
        code = main(
            ["certify", "--points", str(FIXTURES / "bergman_witness.json"),
             "--output", str(out)]
        )
        assert code == 1
        report = json.loads(out.read_text())
        assert report["witness"]["inertia"][0] == 2


def test_criterion_04_sobolev_pipeline():
    with criterion("04", "sobolev quadrature, 12-grid certificate, embedding"):
        # reproducing property against quadrature of  int f k + f' k'
        c = 1.0 / np.sinh(1.0)
        trial_functions = [
            (lambda t: 1.0, lambda t: 0.0),
            (lambda t: t, lambda t: 1.0),
            (lambda t: t * t, lambda t: 2 * t),
            (lambda t: np.sin(2 * t), lambda t: 2 * np.cos(2 * t)),
            (lambda t: np.exp(t), lambda t: np.exp(t)),
        ]
        for s in (0.0, 0.31, 0.77, 1.0):
            k = lambda t: c * np.cosh(min(s, t)) * np.cosh(1.0 - max(s, t))
            dk = lambda t: (
                c * np.cosh(1.0 - s) * np.sinh(t)
                if t < s
                else -c * np.cosh(s) * np.sinh(1.0 - t)
            )
            for f, df in trial_functions:
                g = lambda t: f(t) * k(t) + df(t) * dk(t)
                val = quad(g, 0.0, s)[0] + quad(g, s, 1.0)[0] if 0 < s < 1 else quad(g, 0, 1)[0]
                assert abs(val - f(s)) < 1e-6

        grid = np.linspace(0.0, 1.0, 12)
        sample = gram(Sobolev(), grid)
        assert certify_cnp(sample, TOL).verdict is True

        emb = universal_embedding(sample, 11, TOL)
        K = sample.gram.a
        err = np.max(np.abs(reconstruct(emb).a - K)) / max(1.0, np.max(np.abs(K)))
        assert err < 1e-9
        assert np.all(np.linalg.norm(emb.coords, axis=1) < 1.0)


def test_criterion_05_certificate_equivalence():
    with criterion("05", "F-all-bases == H-one-positive on 500/500 random Grams"):
        rep = certificate_equivalence_suite(500, seed=SEED, tol=TOL)
        assert rep.agreements == rep.trials == 500, rep.disagreements[:3]
        assert 0 < rep.true_verdicts < 500  # both verdicts exercised


def test_criterion_06_norm_pick_equivalence():
    with criterion("06", "operator-norm verdict == Pick-PSD verdict, 300/300"):
        rep = norm_pick_equivalence_suite(300, seed=SEED, tol=TOL)
        assert rep.agreements == rep.trials == 300, rep.disagreements[:3]
        assert 0 < rep.true_verdicts < 300

        extremal = PickProblem.scalar(gram(Szego(), [0, 0.5]), [0, 0.5])
        assert abs(rep_operator_norm(extremal, TOL) - 1.0) <= 1e-9


def test_criterion_07_extension_disk_oracle():
    with criterion("07", "50 disks vs 10^4-point PSD grid, 1e-6 annulus"):
        rng = np.random.default_rng(SEED + 7)
        # polar grid with 10^4 points covering the closed unit disk
        radii = np.sqrt(np.linspace(0.0, 1.0, 100))
        angles = np.linspace(0.0, 2.0 * np.pi, 100, endpoint=False)
        grid = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
        assert grid.size == 10_000

        for _ in range(50):
            pts = random_disk_points(rng, 3, 0.7)
            sample = gram(Szego(), pts)
            lam = random_disk_points(rng, 3, 1.0)
            norm = rep_operator_norm(PickProblem.scalar(sample, lam), TOL)
            lam *= rng.uniform(0.3, 0.9) / norm  # strictly solvable
            z4 = complex(random_disk_points(rng, 1, 0.7)[0])
            p = PickProblem.scalar(sample, lam)
            disk = extend_one_point_scalar(p, z4, TOL)

            K_ext = gram(Szego(), list(pts) + [z4]).gram.a
            lam_full = np.concatenate(
                [np.broadcast_to(lam, (grid.size, 3)), grid[:, None]], axis=1
            )
            P = (1.0 - lam_full[:, :, None].conj() * lam_full[:, None, :]) * K_ext
            P = (P + np.conj(np.swapaxes(P, 1, 2))) / 2.0
            min_eigs = np.linalg.eigvalsh(P)[:, 0]
            # oracle classifies at the exact boundary (1e-12 floating floor);
            # the production slack would blur it far beyond the 1e-6 annulus
            psd = min_eigs >= -1e-12 * max(1.0, np.max(np.abs(K_ext)))
            dist = np.abs(grid - disk.center)
            inside = dist <= disk.radius
            annulus = np.abs(dist - disk.radius) <= 1e-6
            assert np.all((psd == inside) | annulus)

            lam_c = np.append(lam, disk.center)
            Pc = _scalar_pick(K_ext, lam_c)
            assert np.linalg.eigvalsh((Pc + Pc.conj().T) / 2)[0] >= -1e-9


def test_criterion_08_unique_interpolant_reproduction():
    with criterion("08", "greedy evaluation reproduces phi(z) = z to 1e-6"):
        from cnpkit import evaluate_interpolant

        rng = np.random.default_rng(SEED + 8)
        p = PickProblem.scalar(gram(Szego(), [0, 0.5]), [0, 0.5])
        evals = random_disk_points(rng, 20, 0.9)
        vals = evaluate_interpolant(p, evals, TOL)
        assert np.max(np.abs(vals - evals)) <= 1e-6


def test_criterion_09_vector_vs_complete():
    with criterion("09", "100 feasible row problems all extend, block-PSD checked"):
        rep = vector_complete_suite(100, seed=SEED, tol=TOL)
        assert rep.trials == 100
        assert rep.row_extension_ok == 100
        assert dict(rep.matrix_extension_ok)[3] == 100
        assert not rep.failures


def test_criterion_10_zero_pattern_behavior():
    with criterion("10", "partition, inconsistent pattern, obstruction matrix"):
        block_diag = np.block(
            [
                [np.array([[1.0, 1.0], [1.0, 4 / 3]]), np.zeros((2, 1))],
                [np.zeros((1, 2)), np.array([[2.0]])],
            ]
        )
        part = irreducible_partition(block_diag, TOL)
        assert part.blocks == ((0, 1), (2,)) and part.consistent

        fixture = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        part2 = irreducible_partition(fixture, TOL)
        assert not part2.consistent
        cert = certify_cnp(fixture, TOL)
        assert not cert.verdict and cert.method == "zero_pattern"

        obstruction = hadamard(
            [[0.0, 2.0], [2.0, 0.0]], [[1.0, 0.4], [0.4, 1.0]]
        )
        assert not is_psd(obstruction, TOL).ok


def test_criterion_11_cli_determinism(tmp_path):
    with criterion("11", "byte-identical CLI reports across two seeded runs"):
        rng = np.random.default_rng(SEED + 11)
        z = random_disk_points(rng, 5, 0.8)
        pts_file = tmp_path / "pts.json"
        pts_file.write_text(
            json.dumps(
                {"kernel": {"type": "szego"}, "points": [[c.real, c.imag] for c in z]}
            )
        )
        prob_file = tmp_path / "prob.json"
        prob_file.write_text(
            json.dumps(
                {
                    "sample": {"kernel": {"type": "szego"}, "points": [[0, 0], [0.5, 0]]},
                    "targets": {"scalar": [[0, 0], [0.5, 0]]},
                }
            )
        )
        evals_file = tmp_path / "evals.json"
        evals_file.write_text(json.dumps([[0.25, 0]]))
        gram_file = tmp_path / "gram.json"
        gram_file.write_text(
            json.dumps(
                {"type": "gram", "matrix": [[[1, 0], [0.5, 0]], [[0.5, 0], [1, 0]]]}
            )
        )
        runs = {
            "certify": ["certify", "--points", str(pts_file)],
            "embed-json": ["embed", "--points", str(pts_file)],
            "embed-csv": ["embed", "--points", str(pts_file), "--format", "csv"],
            "interpolate": [
                "interpolate", "--problem", str(prob_file), "--eval", str(evals_file),
            ],
            "extend": ["extend", "--problem", str(prob_file), "--eval", str(evals_file)],
            "partition": ["partition", "--points", str(gram_file)],
            "check-equivalences": ["check-equivalences", "--seed", str(SEED)],
        }
        for name, argv in runs.items():
            out1, out2 = tmp_path / f"{name}.1", tmp_path / f"{name}.2"
            c1 = main(argv + ["--output", str(out1)])
            c2 = main(argv + ["--output", str(out2)])
            assert c1 == c2
            assert out1.read_bytes() == out2.read_bytes(), name
