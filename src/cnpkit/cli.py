"""Command-line front end.

Commands: ``certify``, ``embed``, ``interpolate``, ``extend``, ``partition``,
``check-equivalences``. Exit status 0 means the command's verdict is
affirmative (certified / solvable / embedded / consistent / all suites
agree), 1 means a negative verdict with a witness in the report, 2 means an
input or numerical error. Reports embed the tolerances and seed used and are
byte-stable given identical inputs and seed.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import os
import sys
from dataclasses import asdict

import numpy as np

from .certify import CnpCertificate, certify_cnp
from .embed import BallEmbedding, universal_embedding
from .errors import CnpkitError, DomainError, InfeasibleExtensionError, NotPsdError
from .hermitian import Tolerances
from .interpolate import (
    PickProblem,
    evaluate_interpolant,
    extend_one_point_matrix,
    extend_one_point_scalar,
    solvable,
)
from .kernels import ExplicitGram, gram, irreducible_partition, kernel_from_json
from .serialize import (
    atomic_write_text,
    canonical_dumps,
    complex_json,
    load_json,
    parse_eval_doc,
    parse_points_doc,
    parse_targets_doc,
    point_to_json,
)
from .suites import (
    certificate_equivalence_suite,
    norm_pick_equivalence_suite,
    vector_complete_suite,
)

DEFAULT_SEED = 1729


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after it.

    Building it costs far more than parsing one command line, so ``main``
    builds it once per process; parsing leaves it unchanged. The options
    are declared once, in a parent that every command takes.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--kernel", help="catalog kernel: szego|bergman|dirichlet|sobolev")
    common.add_argument("--points", help="points file (JSON)")
    common.add_argument("--problem", help="interpolation problem file (JSON)")
    common.add_argument("--eval", dest="eval_path", help="evaluation points file (JSON)")
    common.add_argument("--base", type=int, default=0, help="base point index (default 0)")
    common.add_argument("--tol-zero-eig", type=float, default=1e-9)
    common.add_argument("--tol-psd", type=float, default=1e-9)
    common.add_argument("--seed", type=int, default=DEFAULT_SEED)
    common.add_argument("--output", help="report file (default: stdout)")
    common.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    parser = argparse.ArgumentParser(
        prog="cnpkit",
        description=(
            "Certify complete Nevanlinna-Pick kernels on finite samples, embed "
            "them into the unit-ball kernel, and solve Pick interpolation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub.add_parser(name, parents=[common])
    return parser


# ---------------------------------------------------------------------------
# report builders


def _witness_json(w: dict) -> dict:
    return {k: complex_json(v) if isinstance(v, np.ndarray) else v for k, v in w.items()}


def _certificate_json(cert: CnpCertificate) -> dict:
    return {
        "verdict": cert.verdict,
        "statement": (
            "complete Nevanlinna-Pick property certified on this sample"
            if cert.verdict
            else "complete Nevanlinna-Pick property refuted on this sample"
        ),
        "method": cert.method,
        "blocks": [list(b) for b in cert.blocks],
        "zero_pattern_consistent": cert.zero_pattern_consistent,
        "block_inertias": [asdict(i) for i in cert.block_inertias],
        "f_matrix_checks": [
            {"base": b, "min_eigenvalue": e} for b, e in cert.f_min_eigs
        ],
        "witness": _witness_json(cert.witness),
    }


def _embedding_json(e: BallEmbedding, labels) -> dict:
    return {
        "base": e.base,
        "m": int(e.m),
        "reconstruction_error": e.reconstruction_error,
        "points": [
            {"label": label, "delta": delta, "coords": coords}
            for label, delta, coords in zip(labels, complex_json(e.delta), complex_json(e.coords))
        ],
    }


def _embedding_csv(e: BallEmbedding, labels, args) -> str:
    """One row per point; ``csv`` quotes a label that holds a comma or quote."""
    out = io.StringIO()
    out.write(
        "# command=embed\n"
        f"# base={e.base}\n"
        f"# m={int(e.m)}\n"
        f"# reconstruction_error={e.reconstruction_error!r}\n"
        f"# seed={args.seed}\n"
        f"# tol_zero_eig={args.tolerances.zero_eig_rel!r}\n"
        f"# tol_psd={args.tolerances.psd_slack_rel!r}\n"
    )
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["label", "delta_re", "delta_im"]
                    + [f"coord{k}_{part}" for k in range(e.m) for part in ("re", "im")])
    values = np.column_stack((e.delta, e.coords)).view(float)
    writer.writerows([label, *row] for label, row in zip(labels, values.tolist()))
    return out.getvalue()


# ---------------------------------------------------------------------------
# command implementations


def _kernel_override(args):
    """The kernel that ``--kernel`` names, or None."""
    if args.kernel == "ball":
        raise DomainError(
            "--kernel cannot build a ball kernel, which needs its dimension; give it "
            'as the points file\'s "kernel" object, e.g. {"type": "ball", "m": 2}'
        )
    return None if args.kernel is None else kernel_from_json({"type": args.kernel})


def _load_kernel_and_points(args):
    kernel_override = _kernel_override(args)
    if args.points is None:
        raise DomainError(f"{args.command} needs --points")
    return parse_points_doc(load_json(args.points), kernel_override)


def _assemble(args, validate_pd: bool):
    """Kernel + points -> (Gram: HermitianMatrix or unvalidated ndarray, labels, sample or None)."""
    kernel, pts = _load_kernel_and_points(args)
    if validate_pd or not isinstance(kernel, ExplicitGram):
        sample = gram(kernel, pts, args.tolerances)
        return sample.gram, list(sample.point_labels()), sample
    coerced = [kernel.coerce_point(p) for p in pts]
    K = kernel.gram_matrix(coerced)
    labels = [kernel.labels[i] for i in coerced]
    return K, labels, None


def _load_problem(args) -> tuple[PickProblem, bool]:
    """The problem file's Pick problem, and whether its targets are scalar."""
    if args.problem is None:
        raise DomainError(f"{args.command} needs --problem")
    doc = load_json(args.problem)
    if not isinstance(doc, dict) or "sample" not in doc or "targets" not in doc:
        raise DomainError("problem file needs 'sample' and 'targets'")
    kernel, pts = parse_points_doc(doc["sample"], _kernel_override(args))
    sample = gram(kernel, pts, args.tolerances)
    targets = parse_targets_doc(doc["targets"])
    if targets.ndim == 1:
        return PickProblem.scalar(sample, targets), True
    return PickProblem.matrix(sample, targets), False


def _cmd_certify(args):
    K, labels, _ = _assemble(args, validate_pd=False)
    cert = certify_cnp(K, args.tolerances)
    report = _certificate_json(cert)
    report["labels"] = labels
    return (0 if cert.verdict else 1), report, None


def _cmd_partition(args):
    K, labels, _ = _assemble(args, validate_pd=False)
    part = irreducible_partition(K, args.tolerances)
    report = {
        "blocks": [list(b) for b in part.blocks],
        "consistent": part.consistent,
        "violations": [list(v) for v in part.violations],
        "labels": labels,
    }
    return (0 if part.consistent else 1), report, None


def _cmd_embed(args):
    _, labels, sample = _assemble(args, validate_pd=True)
    try:
        emb = universal_embedding(sample, args.base, args.tolerances)
    except NotPsdError as exc:
        report = {
            "embedded": False,
            "witness": {
                "detail": str(exc),
                "min_eigenvalue": exc.min_eigenvalue,
            },
        }
        return 1, report, None
    report = {"embedded": True, **_embedding_json(emb, labels)}
    csv_text = _embedding_csv(emb, labels, args) if args.fmt == "csv" else None
    return 0, report, csv_text


def _cmd_interpolate(args):
    problem, _ = _load_problem(args)
    rep = solvable(problem, args.tolerances)
    report = {
        "solvable": rep.solvable,
        "min_eigenvalue": rep.min_eigenvalue,
        "cnp_certified": rep.cnp_certified,
        "note": rep.note,
    }
    if not rep.solvable:
        report["witness"] = {"eigenvector": complex_json(rep.eigenvector)}
        return 1, report, None
    if args.eval_path is not None:
        eval_pts = parse_eval_doc(load_json(args.eval_path))
        values = evaluate_interpolant(problem, eval_pts, args.tolerances)
        report["eval_points"] = [point_to_json(problem.sample.kernel.coerce_point(q)) for q in eval_pts]
        report["values"] = complex_json(values)
    return 0, report, None


def _cmd_extend(args):
    problem, scalar = _load_problem(args)
    if args.eval_path is None:
        raise DomainError("extend needs --eval with exactly one new point")
    new_pts = parse_eval_doc(load_json(args.eval_path))
    if len(new_pts) != 1:
        raise DomainError(f"extend needs exactly one new point, got {len(new_pts)}")
    try:
        if scalar:
            disk = extend_one_point_scalar(problem, new_pts[0], args.tolerances)
            report = {
                "feasible": True,
                "disk": {
                    "center": complex_json(disk.center),
                    "radius": disk.radius,
                },
            }
        else:
            ball = extend_one_point_matrix(problem, new_pts[0], args.tolerances)
            report = {
                "feasible": True,
                "ball": {
                    "center": complex_json(ball.center),
                    "left_factor": complex_json(ball.left_factor),
                    "right_factor": complex_json(ball.right_factor),
                },
            }
    except InfeasibleExtensionError as exc:
        report = {
            "feasible": False,
            "witness": _witness_json({"detail": str(exc), **exc.witness}),
        }
        return 1, report, None
    return 0, report, None


def _cmd_check_equivalences(args):
    tol = args.tolerances
    c3 = certificate_equivalence_suite(seed=args.seed, tol=tol)
    npk = norm_pick_equivalence_suite(seed=args.seed, tol=tol)
    vec = vector_complete_suite(seed=args.seed, tol=tol)
    ok = c3.ok and npk.ok and not vec.failures
    sections = {"certificate_equivalence": c3, "norm_pick": npk, "vector_complete": vec}
    report = {"all_passed": ok}
    for key, suite in sections.items():
        report[key] = {k: v for k, v in asdict(suite).items() if k != "name"}
    return (0 if ok else 1), report, None


_HANDLERS = {
    "certify": _cmd_certify,
    "embed": _cmd_embed,
    "interpolate": _cmd_interpolate,
    "extend": _cmd_extend,
    "partition": _cmd_partition,
    "check-equivalences": _cmd_check_equivalences,
}

COMMANDS = tuple(_HANDLERS)


def _seed(args) -> int:
    """``CNPKIT_SEED`` when it is set, else ``--seed``."""
    env_seed = os.environ.get("CNPKIT_SEED")
    if env_seed is None:
        return args.seed
    try:
        return int(env_seed)
    except ValueError as exc:
        raise DomainError(f"CNPKIT_SEED must be an integer, got {env_seed!r}") from exc


def main(argv=None) -> int:
    """Run one command and write its report; returns the exit status."""
    args = build_parser().parse_args(argv)
    try:
        args.seed = _seed(args)
        args.tolerances = Tolerances(zero_eig_rel=args.tol_zero_eig, psd_slack_rel=args.tol_psd)
        if args.fmt == "csv" and args.command != "embed":
            raise DomainError("--format csv is only available for the embed command")
        code, report, csv_text = _HANDLERS[args.command](args)
        report = {
            "command": args.command,
            "seed": args.seed,
            "tolerances": asdict(args.tolerances),
            **report,
        }
        text = csv_text if csv_text is not None else canonical_dumps(report)
        if args.output:
            atomic_write_text(args.output, text)
        else:
            sys.stdout.write(text)
        return code
    except (CnpkitError, ValueError, OSError, np.linalg.LinAlgError) as exc:
        print(f"cnpkit: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
