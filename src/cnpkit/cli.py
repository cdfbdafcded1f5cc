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
import os
import sys
from dataclasses import asdict, dataclass, field

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
from .kernels import ExplicitGram, SampleSet, gram, irreducible_partition, kernel_from_json
from .serialize import (
    atomic_write_text,
    canonical_dumps,
    complex_matrix_to_json,
    complex_to_json,
    complex_vector_to_json,
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

COMMANDS = (
    "certify",
    "embed",
    "interpolate",
    "extend",
    "partition",
    "check-equivalences",
)


@dataclass
class RunConfig:
    command: str
    kernel: str | None = None
    points: str | None = None
    problem: str | None = None
    eval_path: str | None = None
    base: int = 0
    tolerances: Tolerances = field(default_factory=Tolerances)
    seed: int = DEFAULT_SEED
    output: str | None = None
    fmt: str = "json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cnpkit",
        description=(
            "Certify complete Nevanlinna-Pick kernels on finite samples, embed "
            "them into the unit-ball kernel, and solve Pick interpolation."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--kernel", help="catalog kernel: szego|bergman|dirichlet|sobolev|ball")
        p.add_argument("--points", help="points file (JSON)")
        p.add_argument("--problem", help="interpolation problem file (JSON)")
        p.add_argument("--eval", dest="eval_path", help="evaluation points file (JSON)")
        p.add_argument("--base", type=int, default=0, help="base point index (default 0)")
        p.add_argument("--tol-zero-eig", type=float, default=1e-9)
        p.add_argument("--tol-psd", type=float, default=1e-9)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--output", help="report file (default: stdout)")
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    seed = args.seed
    env_seed = os.environ.get("CNPKIT_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError as exc:
            raise DomainError(f"CNPKIT_SEED must be an integer, got {env_seed!r}") from exc
    return RunConfig(
        command=args.command,
        kernel=args.kernel,
        points=args.points,
        problem=args.problem,
        eval_path=args.eval_path,
        base=args.base,
        tolerances=Tolerances(zero_eig_rel=args.tol_zero_eig, psd_slack_rel=args.tol_psd),
        seed=seed,
        output=args.output,
        fmt=args.fmt,
    )


# ---------------------------------------------------------------------------
# report builders


def _witness_json(w: dict) -> dict:
    out = {}
    for key, value in w.items():
        if isinstance(value, np.ndarray):
            if value.ndim == 1:
                out[key] = complex_vector_to_json(value)
            else:
                out[key] = complex_matrix_to_json(value)
        elif isinstance(value, tuple):
            out[key] = list(value)
        else:
            out[key] = value
    return out


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
            {
                "label": labels[i],
                "delta": complex_to_json(e.delta[i]),
                "coords": complex_vector_to_json(e.coords[i]),
            }
            for i in range(len(labels))
        ],
    }


def _embedding_csv(e: BallEmbedding, labels, cfg: RunConfig) -> str:
    lines = [
        "# command=embed",
        f"# base={e.base}",
        f"# m={int(e.m)}",
        f"# reconstruction_error={e.reconstruction_error!r}",
        f"# seed={cfg.seed}",
        f"# tol_zero_eig={cfg.tolerances.zero_eig_rel!r}",
        f"# tol_psd={cfg.tolerances.psd_slack_rel!r}",
    ]
    header = ["label", "delta_re", "delta_im"]
    for k in range(e.m):
        header += [f"coord{k}_re", f"coord{k}_im"]
    lines.append(",".join(header))
    for i, label in enumerate(labels):
        row = [label, repr(float(e.delta[i].real)), repr(float(e.delta[i].imag))]
        for k in range(e.m):
            row += [repr(float(e.coords[i, k].real)), repr(float(e.coords[i, k].imag))]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command implementations


def _load_kernel_and_points(cfg: RunConfig):
    kernel_override = None
    if cfg.kernel is not None:
        kernel_override = kernel_from_json({"type": cfg.kernel})
    if cfg.points is None:
        raise DomainError(f"{cfg.command} needs --points")
    doc = load_json(cfg.points)
    return parse_points_doc(doc, kernel_override)


def _assemble(cfg: RunConfig, validate_pd: bool):
    """Kernel + points -> (gram ndarray, labels, sample or None)."""
    kernel, pts = _load_kernel_and_points(cfg)
    if validate_pd or not isinstance(kernel, ExplicitGram):
        sample = gram(kernel, pts, cfg.tolerances)
        return sample.gram.a, list(sample.point_labels()), sample
    coerced = [kernel.coerce_point(p) for p in pts]
    K = kernel.gram_matrix(coerced)
    labels = [kernel.labels[i] for i in coerced]
    return K, labels, None


def _load_problem(cfg: RunConfig) -> tuple[PickProblem, bool]:
    """The problem file's Pick problem, and whether its targets are scalar."""
    if cfg.problem is None:
        raise DomainError(f"{cfg.command} needs --problem")
    doc = load_json(cfg.problem)
    if not isinstance(doc, dict) or "sample" not in doc or "targets" not in doc:
        raise DomainError("problem file needs 'sample' and 'targets'")
    kernel_override = kernel_from_json({"type": cfg.kernel}) if cfg.kernel else None
    kernel, pts = parse_points_doc(doc["sample"], kernel_override)
    sample = gram(kernel, pts, cfg.tolerances)
    targets = parse_targets_doc(doc["targets"])
    if targets.ndim == 1:
        return PickProblem.scalar(sample, targets), True
    return PickProblem.matrix(sample, targets), False


def _cmd_certify(cfg: RunConfig):
    K, labels, _ = _assemble(cfg, validate_pd=False)
    cert = certify_cnp(K, cfg.tolerances)
    report = _certificate_json(cert)
    report["labels"] = labels
    return (0 if cert.verdict else 1), report, None


def _cmd_partition(cfg: RunConfig):
    K, labels, _ = _assemble(cfg, validate_pd=False)
    part = irreducible_partition(K, cfg.tolerances)
    report = {
        "blocks": [list(b) for b in part.blocks],
        "consistent": part.consistent,
        "violations": [list(v) for v in part.violations],
        "labels": labels,
    }
    return (0 if part.consistent else 1), report, None


def _cmd_embed(cfg: RunConfig):
    _, labels, sample = _assemble(cfg, validate_pd=True)
    try:
        emb = universal_embedding(sample, cfg.base, cfg.tolerances)
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
    csv_text = _embedding_csv(emb, labels, cfg) if cfg.fmt == "csv" else None
    return 0, report, csv_text


def _cmd_interpolate(cfg: RunConfig):
    problem, _ = _load_problem(cfg)
    rep = solvable(problem, cfg.tolerances)
    report = {
        "solvable": rep.solvable,
        "min_eigenvalue": rep.min_eigenvalue,
        "cnp_certified": rep.cnp_certified,
        "note": rep.note,
    }
    if not rep.solvable:
        report["witness"] = {"eigenvector": complex_vector_to_json(rep.eigenvector)}
        return 1, report, None
    if cfg.eval_path is not None:
        eval_pts = parse_eval_doc(load_json(cfg.eval_path))
        values = evaluate_interpolant(problem, eval_pts, cfg.tolerances)
        report["eval_points"] = [point_to_json(problem.sample.kernel.coerce_point(q)) for q in eval_pts]
        report["values"] = [complex_to_json(v) for v in values]
    return 0, report, None


def _cmd_extend(cfg: RunConfig):
    problem, scalar = _load_problem(cfg)
    if cfg.eval_path is None:
        raise DomainError("extend needs --eval with exactly one new point")
    new_pts = parse_eval_doc(load_json(cfg.eval_path))
    if len(new_pts) != 1:
        raise DomainError(f"extend needs exactly one new point, got {len(new_pts)}")
    try:
        if scalar:
            disk = extend_one_point_scalar(problem, new_pts[0], cfg.tolerances)
            report = {
                "feasible": True,
                "disk": {
                    "center": complex_to_json(disk.center),
                    "radius": disk.radius,
                },
            }
        else:
            ball = extend_one_point_matrix(problem, new_pts[0], cfg.tolerances)
            report = {
                "feasible": True,
                "ball": {
                    "center": complex_matrix_to_json(ball.center),
                    "left_factor": complex_matrix_to_json(ball.left_factor),
                    "right_factor": complex_matrix_to_json(ball.right_factor),
                },
            }
    except InfeasibleExtensionError as exc:
        report = {
            "feasible": False,
            "witness": _witness_json({"detail": str(exc), **exc.witness}),
        }
        return 1, report, None
    return 0, report, None


def _cmd_check_equivalences(cfg: RunConfig):
    tol = cfg.tolerances
    c3 = certificate_equivalence_suite(seed=cfg.seed, tol=tol)
    npk = norm_pick_equivalence_suite(seed=cfg.seed, tol=tol)
    vec = vector_complete_suite(seed=cfg.seed, tol=tol)
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


def run(cfg: RunConfig) -> int:
    """Execute one command and write its report; returns the exit status."""
    if cfg.fmt == "csv" and cfg.command != "embed":
        raise DomainError("--format csv is only available for the embed command")
    code, report, csv_text = _HANDLERS[cfg.command](cfg)
    report = {
        "command": cfg.command,
        "seed": cfg.seed,
        "tolerances": asdict(cfg.tolerances),
        **report,
    }
    text = csv_text if csv_text is not None else canonical_dumps(report)
    if cfg.output:
        atomic_write_text(cfg.output, text)
    else:
        sys.stdout.write(text)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        return run(cfg)
    except (CnpkitError, ValueError, OSError, np.linalg.LinAlgError) as exc:
        print(f"cnpkit: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
