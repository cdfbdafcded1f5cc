"""End-to-end CLI behavior: exit codes, report schemas, determinism."""

import argparse
import contextlib
import copy
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnpkit.cli import COMMANDS, build_parser, main
from cnpkit.serialize import canonical_dumps

from conftest import FIXTURES


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def szego_points_file(tmp_path):
    rng = np.random.default_rng(2024)
    r = 0.8 * np.sqrt(rng.uniform(0, 1, 6))
    th = rng.uniform(0, 2 * np.pi, 6)
    z = r * np.exp(1j * th)
    return write(
        tmp_path / "pts.json",
        {"kernel": {"type": "szego"}, "points": [[c.real, c.imag] for c in z]},
    )


@pytest.fixture
def phi_problem_file(tmp_path):
    # the unique-interpolant data: multiplier phi(z) = z
    return write(
        tmp_path / "prob.json",
        {
            "sample": {"kernel": {"type": "szego"}, "points": [[0, 0], [0.5, 0]]},
            "targets": {"scalar": [[0, 0], [0.5, 0]]},
        },
    )


class TestCertifyCommand:
    def test_szego_exits_zero(self, szego_points_file, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["certify", "--points", szego_points_file, "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["verdict"] is True
        assert report["method"] == "h_inertia"
        assert report["block_inertias"][0]["n_pos"] == 1
        assert report["tolerances"]["zero_eig_rel"] == 1e-9
        assert report["seed"] == 1729

    def test_kernel_flag_overrides(self, tmp_path):
        pts = write(tmp_path / "p.json", [[0, 0], [0.5, 0]])
        out = tmp_path / "r.json"
        code = main(["certify", "--kernel", "szego", "--points", pts, "--output", str(out)])
        assert code == 0

    def test_bergman_witness_exits_one(self, tmp_path):
        doc = json.loads((FIXTURES / "bergman_witness.json").read_text())
        pts = write(tmp_path / "w.json", doc)
        out = tmp_path / "r.json"
        code = main(["certify", "--points", pts, "--output", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["verdict"] is False
        assert report["witness"]["inertia"][0] == 2

    def test_malformed_json_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kernel": ')
        assert main(["certify", "--points", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_out_of_domain_point_exits_two(self, tmp_path, capsys):
        pts = write(
            tmp_path / "p.json",
            {"kernel": {"type": "szego"}, "points": [[1.5, 0]]},
        )
        assert main(["certify", "--points", pts]) == 2


class TestPartitionCommand:
    def test_inconsistent_gram_exits_one(self, tmp_path):
        doc = {
            "type": "gram",
            "matrix": [
                [[1, 0], [1, 0], [0, 0]],
                [[1, 0], [1, 0], [1, 0]],
                [[0, 0], [1, 0], [1, 0]],
            ],
        }
        pts = write(tmp_path / "g.json", doc)
        out = tmp_path / "r.json"
        code = main(["partition", "--points", pts, "--output", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["consistent"] is False
        assert report["violations"] == [[0, 2]]

    def test_block_diagonal_blocks(self, tmp_path):
        doc = {
            "type": "gram",
            "matrix": [
                [[1, 0], [0.5, 0], [0, 0]],
                [[0.5, 0], [1, 0], [0, 0]],
                [[0, 0], [0, 0], [2, 0]],
            ],
        }
        pts = write(tmp_path / "g.json", doc)
        out = tmp_path / "r.json"
        assert main(["partition", "--points", pts, "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["blocks"] == [[0, 1], [2]]


    def test_entries_near_the_float_limit(self, tmp_path):
        # the 0.5 entry is zero on the scale max|K| = 1e308
        doc = {"type": "gram", "matrix": [[[1e308, 0], [0.5, 0]], [[0.5, 0], [1, 0]]]}
        pts = write(tmp_path / "g.json", doc)
        out = tmp_path / "r.json"
        assert main(["partition", "--points", pts, "--output", str(out)]) == 0
        assert json.loads(out.read_text())["blocks"] == [[0], [1]]


class TestEmbedCommand:
    def test_embed_json(self, szego_points_file, tmp_path):
        out = tmp_path / "emb.json"
        code = main(["embed", "--points", szego_points_file, "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["embedded"] is True
        assert report["m"] == 1  # disk kernel embeds with one coordinate
        assert report["reconstruction_error"] < 1e-9
        assert len(report["points"]) == 6

    def test_embed_csv(self, szego_points_file, tmp_path):
        out = tmp_path / "emb.csv"
        code = main(
            ["embed", "--points", szego_points_file, "--format", "csv", "--output", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "# command=embed"
        header_at = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_at].split(",")[:3] == ["label", "delta_re", "delta_im"]
        assert len(lines) == header_at + 1 + 6

    def test_embed_non_cnp_exits_one(self, tmp_path):
        doc = json.loads((FIXTURES / "bergman_witness.json").read_text())
        pts = write(tmp_path / "w.json", doc)
        out = tmp_path / "r.json"
        # base 0 of the frozen witness exposes a non-PSD form
        codes = set()
        for b in range(3):
            codes.add(
                main(["embed", "--points", pts, "--base", str(b), "--output", str(out)])
            )
        assert 1 in codes

    def test_csv_rejected_elsewhere(self, szego_points_file, capsys):
        assert main(["certify", "--points", szego_points_file, "--format", "csv"]) == 2


class TestInterpolateCommand:
    def test_unique_interpolant_values(self, phi_problem_file, tmp_path):
        evals = write(tmp_path / "evals.json", {"points": [[0.25, 0], [-0.3, 0.1]]})
        out = tmp_path / "r.json"
        code = main(
            ["interpolate", "--problem", phi_problem_file, "--eval", evals, "--output", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["solvable"] is True and report["cnp_certified"] is True
        vals = [complex(re, im) for re, im in report["values"]]
        assert abs(vals[0] - 0.25) < 1e-8
        assert abs(vals[1] - (-0.3 + 0.1j)) < 1e-8

    def test_empty_evaluation_list(self, phi_problem_file, tmp_path):
        evals = write(tmp_path / "evals.json", {"points": []})
        out = tmp_path / "r.json"
        code = main(
            ["interpolate", "--problem", phi_problem_file, "--eval", evals, "--output", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["values"] == [] and report["eval_points"] == []

    def test_one_by_one_matrix_targets_evaluate_like_scalar(self, tmp_path):
        evals = write(tmp_path / "evals.json", {"points": [[0.25, 0], [-0.3, 0.1]]})
        values = []
        for targets in (
            {"scalar": [[0, 0], [0.3, 0.1]]},
            {"matrix": {"mu": 1, "nu": 1, "data": [[[[0, 0]]], [[[0.3, 0.1]]]]}},
        ):
            prob = write(tmp_path / "prob.json", {**SZEGO_PROBLEM, "targets": targets})
            out = tmp_path / "r.json"
            code = main(["interpolate", "--problem", prob, "--eval", evals, "--output", str(out)])
            assert code == 0
            values.append(json.loads(out.read_text())["values"])
        assert values[0] == values[1] and len(values[0]) == 2

    def test_unsolvable_exits_one(self, tmp_path):
        prob = write(
            tmp_path / "prob.json",
            {
                "sample": {"kernel": {"type": "szego"}, "points": [[0, 0], [0.5, 0]]},
                "targets": {"scalar": [[0, 0], [0.9, 0]]},
            },
        )
        out = tmp_path / "r.json"
        code = main(["interpolate", "--problem", prob, "--output", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["solvable"] is False
        assert "eigenvector" in report["witness"]


class TestExtendCommand:
    def test_schwarz_disk(self, tmp_path):
        prob = write(
            tmp_path / "prob.json",
            {
                "sample": {"kernel": {"type": "szego"}, "points": [[0, 0]]},
                "targets": {"scalar": [[0, 0]]},
            },
        )
        evals = write(tmp_path / "new.json", [[0.5, 0]])
        out = tmp_path / "r.json"
        code = main(["extend", "--problem", prob, "--eval", evals, "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["feasible"] is True
        assert abs(report["disk"]["radius"] - 0.5) < 1e-9

    def test_infeasible_extension_exits_one(self, tmp_path):
        fixture = json.loads(
            (FIXTURES / "bergman_row_infeasible.json").read_text()
        )
        prob = write(tmp_path / "prob.json", fixture["problem"])
        evals = write(tmp_path / "new.json", [fixture["new_point"]])
        out = tmp_path / "r.json"
        code = main(["extend", "--problem", prob, "--eval", evals, "--output", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["feasible"] is False
        assert "witness" in report

    @pytest.mark.parametrize(
        "sample, targets, new_point",
        [
            # range: the new kernel column leaves the singular Pick matrix's range
            ({"type": "gram", "matrix": [[[1, 0], [0.6, 0], [0.3, 0]],
                                         [[0.6, 0], [1, 0], [0, 0]],
                                         [[0.3, 0], [0, 0], [1, 0]]], "points": [0, 1]},
             [[0, 0], [0.8, 0]], 2),
            # empty disk at a Bergman point
            ({"kernel": {"type": "bergman"}, "points": [[0.49, 0.04], [-0.62, 0.28]]},
             [[-0.63, -0.55], [-0.31, 0.62]], [0.03, -0.34]),
            # pinned target violates the Schur complement
            ({"kernel": {"type": "bergman"}, "points": [[0, 0], [0.5, 0]]},
             [[0, 0], [0.4375 ** 0.5, 0]], [0.3, 0]),
        ],
        ids=["range", "empty", "pinned"],
    )
    def test_each_infeasible_branch_exits_one(self, tmp_path, sample, targets, new_point):
        prob = write(tmp_path / "prob.json", {"sample": sample, "targets": {"scalar": targets}})
        evals = write(tmp_path / "new.json", [new_point])
        out = tmp_path / "r.json"
        code = main(["extend", "--problem", prob, "--eval", evals, "--output", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["feasible"] is False
        assert "detail" in report["witness"]

    def test_one_by_one_matrix_targets_give_a_ball(self, tmp_path):
        evals = write(tmp_path / "new.json", [[0.2, 0.2]])
        reports = []
        for targets in (
            {"scalar": [[0, 0], [0.3, 0.1]]},
            {"matrix": {"mu": 1, "nu": 1, "data": [[[[0, 0]]], [[[0.3, 0.1]]]]}},
        ):
            prob = write(tmp_path / "prob.json", {**SZEGO_PROBLEM, "targets": targets})
            out = tmp_path / "r.json"
            code = main(["extend", "--problem", prob, "--eval", evals, "--output", str(out)])
            assert code == 0
            reports.append(json.loads(out.read_text()))
        disk, ball = reports[0]["disk"], reports[1]["ball"]
        assert "ball" not in reports[0] and "disk" not in reports[1]
        assert ball["center"] == [[disk["center"]]]
        radius = (ball["left_factor"][0][0][0] * ball["right_factor"][0][0][0]) ** 0.5
        assert radius == pytest.approx(disk["radius"], rel=1e-15)

    def test_matrix_ball(self, tmp_path):
        prob = write(
            tmp_path / "prob.json",
            {
                "sample": {"kernel": {"type": "szego"}, "points": [[0, 0], [0.4, 0]]},
                "targets": {
                    "matrix": {
                        "mu": 1,
                        "nu": 2,
                        "data": [
                            [[[0.1, 0], [0.2, 0]]],
                            [[[0.15, 0], [0.1, 0.05]]],
                        ],
                    }
                },
            },
        )
        evals = write(tmp_path / "new.json", [[0.2, 0.2]])
        out = tmp_path / "r.json"
        code = main(["extend", "--problem", prob, "--eval", evals, "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["feasible"] is True
        assert len(report["ball"]["center"]) == 1
        assert len(report["ball"]["right_factor"]) == 2


class TestCheckEquivalencesCommand:
    def test_all_pass(self, tmp_path, monkeypatch):
        out = tmp_path / "r.json"
        code = main(["check-equivalences", "--seed", "1729", "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["all_passed"] is True
        assert report["certificate_equivalence"]["agreements"] == 500
        assert report["norm_pick"]["agreements"] == 300
        assert report["vector_complete"]["row_extension_ok"] == 100


class TestOutputRouting:
    def test_report_to_stdout_without_output_flag(self, szego_points_file, capsys):
        code = main(["certify", "--points", szego_points_file])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "certify" and report["verdict"] is True

    def test_module_entry_point(self, szego_points_file, tmp_path):
        import subprocess
        import sys

        out = tmp_path / "r.json"
        proc = subprocess.run(
            [sys.executable, "-m", "cnpkit", "certify", "--points",
             szego_points_file, "--output", str(out)],
            capture_output=True,
        )
        assert proc.returncode == 0
        assert json.loads(out.read_text())["verdict"] is True


class TestSeedHandling:
    def test_env_var_overrides_flag(self, szego_points_file, tmp_path, monkeypatch):
        monkeypatch.setenv("CNPKIT_SEED", "777")
        out = tmp_path / "r.json"
        main(["certify", "--points", szego_points_file, "--seed", "3", "--output", str(out)])
        assert json.loads(out.read_text())["seed"] == 777

    def test_bad_env_var_exits_two(self, szego_points_file, monkeypatch, capsys):
        monkeypatch.setenv("CNPKIT_SEED", "not-an-int")
        assert main(["certify", "--points", szego_points_file]) == 2


class TestNonFiniteTolerances:
    @pytest.mark.parametrize(
        "flag, value",
        [("--tol-psd", "inf"), ("--tol-zero-eig", "inf"), ("--tol-zero-eig", "1e400")],
    )
    def test_exits_two_and_writes_no_report(self, szego_points_file, tmp_path, capsys, flag, value):
        out = tmp_path / "r.json"
        argv = ["certify", "--points", szego_points_file, flag, value, "--output", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("cnpkit: error:")
        assert not out.exists()

    def test_report_text_is_standard_json(self):
        for value in (float("inf"), float("nan")):
            with pytest.raises(ValueError):
                canonical_dumps({"min_eigenvalue": value})


def _exit_text(call, argv, capsys):
    """(exit status, stdout, stderr) of a parse that ends in SystemExit."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        call(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err


class TestParserReuse:
    """``main`` builds its parser once per process; nothing of a call outlives it."""

    def test_built_once_for_many_calls(self, szego_points_file, tmp_path, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        build_parser.cache_clear()
        try:
            argv = ["certify", "--points", szego_points_file, "--output", str(tmp_path / "r.json")]
            assert main(argv) == 0
            per_build = len(built)
            assert per_build > 0
            for _ in range(5):
                assert main(argv) == 0
            assert len(built) == per_build
        finally:
            build_parser.cache_clear()

    def test_options_do_not_carry_over(self, szego_points_file, tmp_path):
        first, second = tmp_path / "first.csv", tmp_path / "second.json"
        argv = ["embed", "--points", szego_points_file]
        assert main(argv + ["--base", "3", "--format", "csv", "--output", str(first)]) == 0
        assert main(argv + ["--output", str(second)]) == 0
        assert "# base=3" in first.read_text().splitlines()
        report = json.loads(second.read_text())
        assert report["base"] == 0

    def test_seed_environment_read_per_call(self, szego_points_file, tmp_path, monkeypatch):
        out = tmp_path / "r.json"
        argv = ["certify", "--points", szego_points_file, "--output", str(out)]
        monkeypatch.delenv("CNPKIT_SEED", raising=False)
        main(argv)
        assert json.loads(out.read_text())["seed"] == 1729
        monkeypatch.setenv("CNPKIT_SEED", "42")
        main(argv)
        assert json.loads(out.read_text())["seed"] == 42
        monkeypatch.delenv("CNPKIT_SEED")
        main(argv)
        assert json.loads(out.read_text())["seed"] == 1729

    @pytest.mark.parametrize(
        "argv",
        [["-h"]] + [[name, "-h"] for name in COMMANDS]
        + [["certify", "--no-such-option"], [], ["no-such-command"], ["embed", "--base", "x"]],
        ids=lambda argv: " ".join(argv) or "no-arguments",
    )
    def test_help_and_usage_errors_match_a_fresh_parser(self, argv, capsys):
        fresh = _exit_text(build_parser.__wrapped__().parse_args, argv, capsys)
        assert fresh[0] in (0, 2) and (fresh[1] or fresh[2])
        for _ in range(2):
            assert _exit_text(main, argv, capsys) == fresh


class TestDeterminism:
    def test_reports_byte_identical(self, szego_points_file, phi_problem_file, tmp_path):
        evals = write(tmp_path / "evals.json", [[0.25, 0]])
        gram_doc = {
            "type": "gram",
            "matrix": [[[1, 0], [0.5, 0]], [[0.5, 0], [1, 0]]],
        }
        gram_file = write(tmp_path / "g.json", gram_doc)
        runs = {
            "certify": ["certify", "--points", szego_points_file],
            "embed": ["embed", "--points", szego_points_file],
            "embed-csv": ["embed", "--points", szego_points_file, "--format", "csv"],
            "interpolate": [
                "interpolate", "--problem", phi_problem_file, "--eval", evals,
            ],
            "extend": ["extend", "--problem", phi_problem_file, "--eval", evals],
            "partition": ["partition", "--points", gram_file],
            "check-equivalences": ["check-equivalences"],
        }
        for name, argv in runs.items():
            out1 = tmp_path / f"{name}-1.out"
            out2 = tmp_path / f"{name}-2.out"
            assert main(argv + ["--output", str(out1)]) == main(
                argv + ["--output", str(out2)]
            )
            assert out1.read_bytes() == out2.read_bytes(), name


SZEGO_PROBLEM = {
    "sample": {"kernel": {"type": "szego"}, "points": [[0, 0], [0.5, 0]]},
    "targets": {"scalar": [[0, 0], [0.25, 0]]},
}
BALL_POINTS = {"kernel": {"type": "ball", "m": 2}, "points": [[[0.1, 0], [0.2, 0]], [[0, 0.3], [0.1, 0]]]}
GRAM_POINTS = {
    "type": "gram",
    "matrix": [[[1, 0], [0.5, 0]], [[0.5, 0], [1, 0]]],
    "labels": ["a", "b"],
    "points": [0, 1],
}
MATRIX_TARGETS = {"mu": 1, "nu": 2, "data": [[[[0.1, 0], [0.2, 0]]], [[[0.1, 0], [0.0, 0]]]]}


def _without(key):
    return {k: v for k, v in MATRIX_TARGETS.items() if k != key}


class TestMalformedInput:
    """Every malformed input exits 2 with a one-line error, never a traceback."""

    # (name, command, points or problem document, evaluation document)
    CASES = [
        ("eval-wrong-key", "interpolate", SZEGO_PROBLEM, {"pts": [[0.25, 0]]}),
        ("extend-eval-wrong-key", "extend", SZEGO_PROBLEM, {"pts": [[0.25, 0]]}),
        *[
            (f"matrix-without-{key}", "extend",
             {**SZEGO_PROBLEM, "targets": {"matrix": _without(key)}}, [[0.25, 0]])
            for key in ("mu", "nu", "data")
        ],
        ("infinite-matrix-size", "extend",
         {**SZEGO_PROBLEM, "targets": {"matrix": {**MATRIX_TARGETS, "nu": float("inf")}}},
         [[0.25, 0]]),
        ("bool-point", "certify", {"kernel": {"type": "szego"}, "points": [False, [0.5, 0]]}, None),
        ("bool-coordinate", "certify", {"kernel": {"type": "szego"}, "points": [[False, 0], [0.5, 0]]}, None),
        ("bool-target", "interpolate",
         {**SZEGO_PROBLEM, "targets": {"scalar": [True, [0.25, 0]]}}, None),
        ("bool-gram-index", "certify",
         {"type": "gram", "matrix": [[[1, 0], [0.5, 0]], [[0.5, 0], [1, 0]]], "points": [True, 0]},
         None),
        ("points-not-a-list", "certify", {"kernel": {"type": "szego"}, "points": 3}, None),
        ("kernel-not-an-object", "certify", {"kernel": "szego", "points": [[0, 0]]}, None),
        ("ball-dimension-missing", "certify", {"kernel": {"type": "ball", "m": None}, "points": [[[0, 0]]]},
         None),
        ("gram-without-matrix", "certify", {"type": "gram", "labels": ["a"]}, None),
        ("gram-labels-not-a-list", "certify", {"type": "gram", "matrix": [[[1, 0]]], "labels": 0}, None),
        ("scalar-targets-not-a-list", "interpolate",
         {**SZEGO_PROBLEM, "targets": {"scalar": 0.5}}, None),
        ("integer-beyond-float-range", "certify",
         {"kernel": {"type": "szego"}, "points": [[10**400, 0], [0.5, 0]]}, None),
        *[
            (f"ball-point-under-{kind}", "certify",
             {**BALL_POINTS, "kernel": {"type": kind}}, None)
            for kind in ("szego", "sobolev")
        ],
        ("ball-point-as-gram-index", "certify",
         {"kernel": GRAM_POINTS, "points": [[[0, 0], [1, 0]]]}, None),
        # fractional or complex indices and sizes were once truncated to integers
        ("fractional-gram-index", "certify", {**GRAM_POINTS, "points": [0, 1.7]}, None),
        ("fractional-gram-index-under-kernel", "certify",
         {"kernel": GRAM_POINTS, "points": [1.9, 0.4]}, None),
        ("complex-gram-index", "certify", {"kernel": GRAM_POINTS, "points": [[0, 0], [1, 0.5]]}, None),
        *[
            (f"fractional-matrix-{key}", "extend",
             {**SZEGO_PROBLEM, "targets": {"matrix": {**MATRIX_TARGETS, key: value}}},
             [[0.25, 0]])
            for key, value in (("mu", 1.5), ("nu", 2.5))
        ],
        ("zero-size-targets", "extend",
         {**SZEGO_PROBLEM, "targets": {"matrix": {"mu": 1, "nu": 0, "data": [[[]], [[]]]}}},
         [[0.25, 0]]),
    ]

    @pytest.mark.parametrize("name, command, doc, eval_doc", CASES, ids=[c[0] for c in CASES])
    def test_exits_two_without_traceback(self, tmp_path, capsys, name, command, doc, eval_doc):
        flag = "--points" if command == "certify" else "--problem"
        argv = [command, flag, write(tmp_path / "in.json", doc)]
        if eval_doc is not None:
            argv += ["--eval", write(tmp_path / "eval.json", eval_doc)]
        assert main(argv + ["--output", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cnpkit: error:") and "Traceback" not in err

    def test_unwritable_output_exits_two(self, szego_points_file, tmp_path, capsys):
        out = tmp_path / "missing-directory" / "r.json"
        assert main(["certify", "--points", szego_points_file, "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cnpkit: error:") and "Traceback" not in err


# (command, points or problem document, evaluation document): one valid input each
VALID_INPUTS = [
    ("certify", {"kernel": {"type": "szego"}, "points": [[0, 0], [0.5, 0], [0, -0.4]]}, None),
    ("certify", GRAM_POINTS, None),
    ("embed", BALL_POINTS, None),
    ("interpolate", SZEGO_PROBLEM, {"points": [[0.25, 0], [0, 0.1]]}),
    ("extend", SZEGO_PROBLEM, [[0.25, 0]]),
    ("extend", {**SZEGO_PROBLEM, "targets": {"matrix": MATRIX_TARGETS}}, [[0.25, 0]]),
]
SCALAR_JUNK = st.sampled_from(
    [True, False, None, float("nan"), float("inf"), 10**400, -(2**70), 1e308, -1, 0, 7, ""]
    + ["szego", "sobolev", "ball", "gram"]  # kernel types swapped under another kernel's points
)
JUNK = st.one_of(
    SCALAR_JUNK,
    st.recursive(SCALAR_JUNK, lambda inner: st.lists(inner, max_size=3), max_leaves=4),
    st.dictionaries(st.sampled_from(["type", "points", "m", "scalar"]), SCALAR_JUNK, max_size=2),
)


def _slots(doc):
    """Every (container, key) of a JSON tree, containers before their contents."""
    out = []
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        out.append((doc, key))
        out.extend(_slots(value))
    return out


def _mutated(doc, edits):
    """``doc`` with each edit applied: drop a key or element, or set it to junk."""
    doc = copy.deepcopy(doc)
    for pick, drop, junk in edits:
        slots = _slots(doc)
        if not slots:
            return junk
        container, key = slots[pick % len(slots)]
        if drop:
            del container[key]
        else:
            container[key] = junk
    return doc


class TestParserFuzz:
    """Mutations of valid inputs exit 0, 1 or 2, and 2 comes with a one-line error."""

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(
        case=st.sampled_from(VALID_INPUTS),
        in_eval=st.booleans(),
        edits=st.lists(st.tuples(st.integers(0, 10**6), st.booleans(), JUNK), min_size=1, max_size=3),
    )
    def test_exit_status_contract(self, tmp_path_factory, case, in_eval, edits):
        command, doc, eval_doc = case
        if in_eval and eval_doc is not None:
            eval_doc = _mutated(eval_doc, edits)
        else:
            doc = _mutated(doc, edits)
        tmp = tmp_path_factory.getbasetemp()
        flag = "--points" if command in ("certify", "embed") else "--problem"
        argv = [command, flag, write(tmp / "fuzz-in.json", doc), "--output", str(tmp / "fuzz-r.json")]
        if eval_doc is not None:
            argv += ["--eval", write(tmp / "fuzz-eval.json", eval_doc)]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("cnpkit: error:")
