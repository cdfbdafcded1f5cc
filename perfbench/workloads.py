"""Seeded inputs, operations and output checks of the benchmark workloads.

A workload is a list of operations. Each operation is one cnpkit command
line, run in process through ``cnpkit.cli.main(argv)`` on files written here,
together with a check of its outcome against ``oracles`` and a perturbation:
a deliberately wrong copy of the outcome that the check must reject (the
self-test). The program only ever sees the written files.
"""

from __future__ import annotations

import copy
import json
import os
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np
from scipy.linalg import block_diag

from oracles import (
    BAND,
    GRAM_RTOL,
    PICK_FLOOR,
    VALUE_TOL,
    ZERO_EIG_REL,
    blaschke,
    complex_array,
    components,
    deciding_margin_ok,
    disk_boundary_fault,
    eigvalsh,
    exact_disk,
    gram,
    inertia_bounds,
    min_eig_rel,
    pick_block,
    pick_scalar,
    reciprocal_gram,
    rep_norm,
    require,
    scale_of,
    zero_pairs_inside,
)

WORKLOADS = ("certify-embed", "interpolate-greedy", "small-many")

#: Faults in the program that make an operation fail on every run, on inputs
#: that do not depend on the seed. They stay counted as failed until mended.
#: Each maps to (text its check's failure message holds, description); a
#: failure that does not read like its fault is unexpected.
FAULTS = {
    "a": ("closed-form Gram", "kernels.Dirichlet sums a 200-term series, which is inaccurate "
          "near |z| = 1 (ROADMAP 5b), so the embedding cannot rebuild the closed-form Gram"),
    "b": ("KeyError", "serialize does not validate the input schema (ROADMAP 5a), so a "
          "KeyError escapes cli.main where exit status 2 is due"),
    "c": ("exact (", "interpolate._range_split cuts the numerically singular Szego Pick "
          "matrix at 1e-9 relative and treats the rest as exact, so the scalar extension "
          "disk is far wider than the exact one"),
    "d": ("norm_pick:", "suites.norm_pick_equivalence_suite compares rep_operator_norm "
          "against 1 + 1e-8 while is_psd accepts the Pick matrix under its 1e-9 relative "
          "slack, so the two disagree on a trial near the boundary"),
}
#: Seed of the check-equivalences command: the suites' own seed at which
#: fault (d) shows. Also the seed of the fixed Szego problem of fault (c).
FAULT_SEED = 5


@dataclass
class Outcome:
    code: int | None
    error: str | None  # "Type: message" of an exception that escaped cli.main
    stderr: str
    output: str | None
    doc: dict | None = None

    def report(self) -> dict:
        require(self.error is None, f"{self.error} escaped cli.main")
        if self.doc is None:
            require(self.output is not None and os.path.exists(self.output), "no report written")
            with open(self.output, encoding="utf-8") as f:
                self.doc = json.load(f)
        return self.doc


@dataclass
class Op:
    name: str
    command: str
    argv: list[str]
    check: Callable[[Outcome], None]
    perturb: Callable[[Outcome], Outcome]
    output: str | None = None
    known_fault: str | None = None
    evaluations: int = 0
    trials: int = 0


def edit_report(edit: Callable[[dict], None]) -> Callable[[Outcome], Outcome]:
    def perturb(o: Outcome) -> Outcome:
        doc = copy.deepcopy(o.report())
        edit(doc)
        return replace(o, doc=doc)

    return perturb


# ---------------------------------------------------------------------------
# input files


def pair(z) -> list[float]:
    return [float(np.real(z)), float(np.imag(z))]


def pairs(a) -> list:
    a = np.asarray(a)
    if a.ndim == 0:
        return pair(a)
    return [pairs(x) for x in a]


def kernel_json(kind: str) -> dict:
    return {"type": "ball", "m": 2} if kind == "ball" else {"type": kind}


def point_json(kind: str, p):
    return float(p) if kind == "sobolev" else pairs(p)


def points_doc(kind: str, pts) -> dict:
    return {"kernel": kernel_json(kind), "points": [point_json(kind, p) for p in pts]}


class Inputs:
    """Writes one workload's files; every draw comes from ``rng``."""

    def __init__(self, workdir: str, rng: np.random.Generator):
        self.dir = workdir
        self.rng = rng

    def write(self, name: str, doc) -> str:
        path = os.path.join(self.dir, name)
        with open(path, "w", encoding="utf-8") as f:
            if isinstance(doc, str):
                f.write(doc)
            else:
                json.dump(doc, f)
        return path

    def op(self, name: str, argv: list[str], check, known_fault=None, **counts) -> Op:
        """``argv`` plus ``--output`` to this operation's report file;
        ``check`` is a (check, perturb) pair."""
        out = os.path.join(self.dir, f"{name}.report.json")
        ck, perturb = check
        return Op(name, argv[0], argv + ["--output", out], ck, perturb, out, known_fault, **counts)


def disk_points(rng, n: int, radius: float) -> np.ndarray:
    return radius * np.sqrt(rng.uniform(0.0, 1.0, n)) * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, n))


def draw_points(rng, kind: str, n: int) -> np.ndarray:
    if kind == "sobolev":
        return rng.uniform(0.0, 1.0, n)
    if kind == "ball":
        x = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
        r = 0.9 * rng.uniform(0.0, 1.0, n) ** 0.25
        return x / np.linalg.norm(x, axis=1)[:, None] * r[:, None]
    return disk_points(rng, n, 0.9)


def distinct(pts) -> bool:
    flat = np.asarray(pts).reshape(len(pts), -1)
    return len(np.unique(flat, axis=0)) == len(flat)


def certified_points(rng, kind: str, n: int, draw=None) -> np.ndarray:
    """Points whose reciprocal Gram has one clearly positive eigenvalue and
    no other within ``BAND`` of the zero threshold; hairlines are redrawn."""
    while True:
        pts = draw(rng, n) if draw else draw_points(rng, kind, n)
        if distinct(pts) and deciding_margin_ok(eigvalsh(reciprocal_gram(kind, pts)), 1):
            return pts


# ---------------------------------------------------------------------------
# checks


def _f_matrix(K, base: int) -> np.ndarray:
    idx = [i for i in range(K.shape[0]) if i != base]
    return 1.0 - np.outer(K[idx, base], K[base, idx]) / (K[np.ix_(idx, idx)] * K[base, base].real)


def check_certified(K: np.ndarray, H: np.ndarray):
    """Affirmative certificate: blocks, inertia band per block, F sweep."""
    comps = components(K)
    bounds = [inertia_bounds(eigvalsh(H[np.ix_(b, b)])) for b in comps]
    swept = sorted(i for b in comps if len(b) > 1 for i in b)
    spots = {}
    for block in (b for b in comps if len(b) > 1):
        Kb = K[np.ix_(block, block)]
        for local in sorted({0, len(block) // 2, len(block) - 1}):
            w = eigvalsh(_f_matrix(Kb, local))
            spots[block[local]] = (float(w[0]), scale_of(w))

    def check(o: Outcome) -> None:
        r = o.report()
        require(o.code == 0 and r["verdict"] is True, f"verdict {r['verdict']} on a cNP sample")
        require([tuple(b) for b in r["blocks"]] == comps, "blocks differ from the connected components")
        require(r["zero_pattern_consistent"] is True, "consistent zero pattern reported inconsistent")
        require(len(r["block_inertias"]) == len(comps), "one inertia per block expected")
        for block, ine, ((pmin, pmax), (nmin, nmax)) in zip(comps, r["block_inertias"], bounds):
            require(ine["n_pos"] == 1 and pmin <= 1 <= pmax, f"H inertia {ine} on block of {len(block)}")
            require(nmin <= ine["n_neg"] <= nmax, f"n_neg {ine['n_neg']} outside [{nmin}, {nmax}]")
            require(ine["n_pos"] + ine["n_zero"] + ine["n_neg"] == len(block), "inertia does not sum")
        checks = r["f_matrix_checks"]
        require(sorted(c["base"] for c in checks) == swept, "F sweep does not cover every base once")
        for c in checks:
            require(c["min_eigenvalue"] >= -ZERO_EIG_REL * len(K), f"F at base {c['base']} not PSD")
            if c["base"] in spots:
                mine, scale = spots[c["base"]]
                require(abs(c["min_eigenvalue"] - mine) <= 1e-8 * scale,
                        f"F min eigenvalue at base {c['base']} is {c['min_eigenvalue']:.3e}, "
                        f"{mine:.3e} from the closed-form Gram")

    def edit(doc):
        doc["block_inertias"][0]["n_pos"] += 1
        doc["block_inertias"][0]["n_zero"] -= 1

    return check, edit_report(edit)


def check_embedded(K: np.ndarray):
    def check(o: Outcome) -> None:
        r = o.report()
        require(o.code == 0 and r["embedded"] is True and r["base"] == 0, "sample not embedded at base 0")
        pts = r["points"]
        require(len(pts) == len(K), "one embedded point per sample point expected")
        delta = complex_array([p["delta"] for p in pts])
        coords = complex_array([p["coords"] for p in pts]) if r["m"] else np.zeros((len(K), 0))
        require(coords.shape == (len(K), r["m"]), "coordinates do not have m entries")
        worst = float(np.max(np.linalg.norm(coords, axis=1)))
        require(worst < 1.0, f"coordinate of norm {worst:.9f} is outside the open ball")
        rebuilt = np.outer(delta.conj(), delta) / (1.0 - coords @ coords.conj().T)
        err = float(np.max(np.abs(rebuilt - K)) / max(1.0, np.max(np.abs(K))))
        require(err <= GRAM_RTOL, f"embedding rebuilds the closed-form Gram with relative error {err:.2e}")

    def edit(doc):
        doc["points"][1]["delta"][0] *= 1.001

    return check, edit_report(edit)


def check_refuted_by_h(H: np.ndarray):
    w = eigvalsh(H)
    (pmin, pmax), _ = inertia_bounds(w)
    scale = scale_of(w)

    def check(o: Outcome) -> None:
        r = o.report()
        wit = r["witness"]
        require(o.code == 1 and r["verdict"] is False, "a Bergman sample was certified")
        require(r["method"] == "h_inertia" and wit["kind"] == "h_inertia", f"method {r['method']}")
        mus = np.asarray(wit["positive_eigenvalues"], dtype=float)
        V = complex_array(wit["eigenvectors"]).reshape(len(H), -1)
        require(V.shape[1] == len(mus) and pmin <= len(mus) <= pmax and len(mus) >= 2,
                f"{len(mus)} positive eigenvalues reported, expected [{pmin}, {pmax}]")
        for k, mu in enumerate(mus):
            v = V[:, k]
            require(mu > ZERO_EIG_REL * scale / BAND, f"witness eigenvalue {mu:.3e} is not positive")
            res = float(np.linalg.norm(H @ v - mu * v))
            require(abs(np.linalg.norm(v) - 1.0) <= 1e-8 and res <= 1e-8 * scale,
                    f"witness vector {k} is not an eigenvector of 1/K (residual {res:.2e})")

    def edit(doc):
        doc["witness"]["positive_eigenvalues"][0] *= 1.01

    return check, edit_report(edit)


def check_refuted_by_zero(K: np.ndarray):
    comps = components(K)
    zeros = zero_pairs_inside(K)

    def check(o: Outcome) -> None:
        r = o.report()
        wit = r["witness"]
        require(o.code == 1 and r["verdict"] is False, "inconsistent zero pattern was certified")
        require(r["method"] == "zero_pattern" and r["zero_pattern_consistent"] is False, f"method {r['method']}")
        require([tuple(b) for b in r["blocks"]] == comps, "blocks differ from the connected components")
        require(tuple(sorted(wit["pair"])) in zeros, f"witness pair {wit['pair']} is not a connected zero")

    def edit(doc):
        doc["witness"]["pair"] = [0, 0]

    return check, edit_report(edit)


def check_partition(K: np.ndarray):
    comps = components(K)
    zeros = zero_pairs_inside(K)

    def check(o: Outcome) -> None:
        r = o.report()
        require(o.code == (1 if zeros else 0), f"exit status {o.code}")
        require([tuple(b) for b in r["blocks"]] == comps, "blocks differ from the connected components")
        require(r["consistent"] is (not zeros), "consistency flag is wrong")
        require({tuple(sorted(v)) for v in r["violations"]} == zeros and len(r["violations"]) == len(zeros),
                "violations are not exactly the zero pairs inside blocks")

    def edit(doc):
        doc["consistent"] = not doc["consistent"]

    return check, edit_report(edit)


def check_interpolated(K_all: np.ndarray, lam: np.ndarray, exact=None):
    n_eval = len(K_all) - len(lam)

    def check(o: Outcome) -> None:
        r = o.report()
        require(o.code == 0 and r["solvable"] is True and r["cnp_certified"] is True, "problem not solvable")
        values = complex_array(r["values"]).reshape(-1)
        require(len(values) == n_eval, f"{len(values)} values for {n_eval} evaluation points")
        if exact is not None:
            err = float(np.max(np.abs(values - exact)))
            require(err <= VALUE_TOL, f"greedy values miss the unique interpolant by {err:.2e}")
            return
        require(float(np.max(np.abs(values))) <= 1.0 + 1e-9, "a committed value has modulus > 1")
        slack = min_eig_rel(pick_scalar(K_all, np.concatenate([lam, values])))
        require(slack >= -PICK_FLOOR, f"Pick matrix with committed values has min eigenvalue {slack:.2e}")

    def edit(doc):
        doc["values"][0][0] += 0.5

    return check, edit_report(edit)


def check_point_disk(value: complex):
    """Extension of extremal (Blaschke) data: the exact disk is the point
    ``value``."""

    def check(o: Outcome) -> None:
        r = o.report()
        require(o.code == 0 and r["feasible"] is True, "extension reported infeasible")
        c, rad = complex(*r["disk"]["center"]), float(r["disk"]["radius"])
        require(abs(c - value) <= VALUE_TOL and rad <= VALUE_TOL,
                f"disk ({c:.6f}, {rad:.2e}) is not the Blaschke value {value:.6f}")

    def edit(doc):
        doc["disk"]["center"][0] += 0.5

    return check, edit_report(edit)


def check_disk(disk):
    """Extension of strictly feasible data against its exact disk."""

    def check(o: Outcome) -> None:
        r = o.report()
        require(o.code == 0 and r["feasible"] is True, "extension reported infeasible")
        fault = disk_boundary_fault(disk, complex(*r["disk"]["center"]), float(r["disk"]["radius"]))
        require(fault is None, fault)

    def edit(doc):
        doc["disk"]["center"][0] += 0.5

    return check, edit_report(edit)


def check_ball(K_ext: np.ndarray, targets: np.ndarray):
    def check(o: Outcome) -> None:
        r = o.report()
        require(o.code == 0 and r["feasible"] is True, "matrix extension reported infeasible")
        C = complex_array(r["ball"]["center"]).reshape(targets.shape[1:])
        slack = min_eig_rel(pick_block(K_ext, np.concatenate([targets, C[None]])))
        require(slack >= -PICK_FLOOR, f"ball center fails the block Pick test ({slack:.2e})")
        require(np.linalg.norm(C, 2) <= 1.0 + 1e-9, "ball center is not a contraction")
        for side in ("left_factor", "right_factor"):
            F = complex_array(r["ball"][side])
            require(min_eig_rel(F) >= -ZERO_EIG_REL, f"{side} is not PSD")

    def edit(doc):
        doc["ball"]["center"][0][0][0] += 0.5

    return check, edit_report(edit)


def check_exit_2(o: Outcome) -> None:
    require(o.error is None, f"{o.error} escaped cli.main")
    require(o.code == 2 and o.stderr.startswith("cnpkit: error:"), f"exit status {o.code} on malformed input")


def check_equivalences(o: Outcome) -> None:
    r = o.report()
    v = r["vector_complete"]
    require(v["trials"] == v["row_extension_ok"] == 100 and not v["failures"], "vector_complete failures")
    require(v["matrix_extension_ok"] == [[3, 100]], f"matrix extensions {v['matrix_extension_ok']}")
    for key, trials in (("certificate_equivalence", 500), ("norm_pick", 300)):
        s = r[key]
        require(s["trials"] == s["agreements"] == trials and not s["disagreements"],
                f"{key}: {s['agreements']}/{trials} agree, disagreements {s['disagreements']}")
    require(o.code == 0 and r["all_passed"] is True, "suites disagree")


def _exit_code(code: int):
    return lambda o: replace(o, code=code, error=None, stderr="")


def _edit_equivalences(doc):
    doc["certificate_equivalence"]["agreements"] -= 1


# ---------------------------------------------------------------------------
# workloads


def certify_embed(inp: Inputs, small: bool) -> list[Op]:
    """Affirmative certificates (full F sweep) and their ball embeddings."""
    n = 8 if small else 120
    ops = []

    def add(name, kind, pts, fault=None):
        path = inp.write(f"{name}.json", points_doc(kind, pts))
        ops.append(inp.op(name, ["certify", "--points", path],
                          check_certified(gram(kind, pts), reciprocal_gram(kind, pts)), fault))
        ops.append(inp.op(f"{name}.embed", ["embed", "--points", path, "--base", "0"],
                          check_embedded(gram(kind, pts)), fault))

    for kind in ("szego", "dirichlet", "sobolev", "ball"):
        add(kind, kind, certified_points(inp.rng, kind, n))

    # Explicit Gram: a permuted direct sum of three samples.
    K = block_diag(*(gram(k, certified_points(inp.rng, k, n // 3)) for k in ("szego", "dirichlet", "sobolev")))
    perm = inp.rng.permutation(len(K))
    K = K[np.ix_(perm, perm)]
    K = (K + K.conj().T) / 2.0
    path = inp.write("explicit.json", {"type": "gram", "matrix": pairs(K), "labels": [f"g{i}" for i in perm]})
    ops.append(inp.op("explicit", ["certify", "--points", path], check_certified(K, 1.0 / np.where(K == 0, 1.0, K))))

    # Fixed sample, independent of the seed, reaching |z| = 0.999 (fault a).
    edge = np.random.default_rng(999)
    radii = np.concatenate([[0.999, 0.998, 0.995, 0.99], 0.97 * np.sqrt(edge.uniform(0.0, 1.0, 200))])

    def draw_edge(rng, m):
        return radii[:m] * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, m))

    add("dirichlet-edge", "dirichlet", certified_points(edge, "dirichlet", 12 if small else 60, draw_edge), "a")
    return ops


def _problem_doc(kind, pts, targets) -> dict:
    if targets.ndim == 1:
        t = {"scalar": pairs(targets)}
    else:
        t = {"matrix": {"mu": targets.shape[1], "nu": targets.shape[2], "data": pairs(targets)}}
    return {"sample": points_doc(kind, pts), "targets": t}


def interpolate_greedy(inp: Inputs, small: bool) -> list[Op]:
    """Greedy interpolant values and one scalar extension per problem.

    The strictly feasible Szego problem is drawn from ``FAULT_SEED`` whatever
    the workload seed, at full data size also in the small mode: its
    extension disk fails its check on every run (fault c).
    """
    n, m = (6, 5) if small else (40, 120)
    ops = []

    def fresh(rng, kind, count, taken):
        while True:
            pts = draw_points(rng, kind, count)
            if distinct(np.concatenate([taken, pts])):
                return pts

    for name, kind in (("blaschke", "szego"), ("szego", "szego"), ("sobolev", "sobolev")):
        rng, size, fault = inp.rng, n, None
        if name == "szego":
            rng, size, fault = np.random.default_rng(FAULT_SEED), 40, "c"
        data = certified_points(rng, kind, size)
        q = fresh(rng, kind, 1, data)[0]
        if kind == "szego":
            zeros = disk_points(rng, 3 if name == "blaschke" else 2, 0.7)
            lam = blaschke(zeros, data, 1.0 if name == "blaschke" else 0.8)
        else:
            lam = disk_points(rng, size, 1.0)
            lam *= 0.9 / rep_norm(gram(kind, data), lam)
        evals = fresh(rng, kind, m, np.append(data, q))
        if name == "blaschke":
            exact, disk = blaschke(zeros, evals), check_point_disk(complex(blaschke(zeros, [q])[0]))
        else:
            exact, disk = None, check_disk(exact_disk(kind, data, lam, q))
        points = inp.write(f"{name}.points.json", points_doc(kind, data))
        problem = inp.write(f"{name}.problem.json", _problem_doc(kind, data, lam))
        eval_path = inp.write(f"{name}.eval.json", {"points": [point_json(kind, p) for p in evals]})
        new = inp.write(f"{name}.new.json", {"points": [point_json(kind, q)]})
        ops.append(inp.op(name, ["certify", "--points", points],
                          check_certified(gram(kind, data), reciprocal_gram(kind, data))))
        ops.append(inp.op(f"{name}.interpolate", ["interpolate", "--problem", problem, "--eval", eval_path],
                          check_interpolated(gram(kind, np.concatenate([data, evals])), lam, exact), evaluations=m))
        ops.append(inp.op(f"{name}.extend", ["extend", "--problem", problem, "--eval", new], disk, fault))
    return ops


def _tree_gram(rng, n: int) -> np.ndarray:
    """Diagonally dominant Hermitian matrix whose nonzero graph is a tree,
    so some connected pair is zero (an inconsistent zero pattern)."""
    K = np.zeros((n, n), dtype=complex)
    for i in range(1, n):
        j = int(rng.integers(0, i))
        K[i, j] = (0.2 + 0.8 * rng.uniform()) * np.exp(2j * np.pi * rng.uniform())
        K[j, i] = np.conj(K[i, j])
    K += np.diag(1.0 + np.sum(np.abs(K), axis=1) + rng.uniform(0.0, 1.0, n))
    perm = rng.permutation(n)
    return K[np.ix_(perm, perm)]


def _block_gram(rng, n: int) -> np.ndarray:
    """Permuted direct sum of dense Szegő blocks (a consistent zero pattern)."""
    cuts = np.sort(rng.choice(np.arange(1, n), size=min(int(rng.integers(0, 4)), n - 1), replace=False))
    K = np.zeros((n, n), dtype=complex)
    for lo, hi in zip(np.r_[0, cuts], np.r_[cuts, n]):
        K[lo:hi, lo:hi] = gram("szego", certified_points(rng, "szego", hi - lo))
    perm = rng.permutation(n)
    K = K[np.ix_(perm, perm)]
    return (K + K.conj().T) / 2.0


def _gram_doc(K) -> dict:
    return {"type": "gram", "matrix": pairs(K)}


def small_many(inp: Inputs, small: bool) -> list[Op]:
    """Equivalence suites, then many small commands where fixed costs dominate."""
    counts = (1, 1, 2, 2) if small else (100, 40, 100, 40)
    rng = inp.rng
    # The suites draw their own inputs from --seed; at FAULT_SEED one
    # norm_pick trial fails on every run (fault d).
    ops = [inp.op("check-equivalences", ["check-equivalences", "--seed", str(FAULT_SEED)],
                  (check_equivalences, edit_report(_edit_equivalences)), "d", trials=900)]

    # Sizes follow a fixed schedule, so every seed gives the same mix of sizes.
    for i in range(counts[0]):
        n = 3 + i % 18
        while True:
            pts = disk_points(rng, n, 0.9)
            w = eigvalsh(reciprocal_gram("bergman", pts))
            k = int(np.sum(w > ZERO_EIG_REL * scale_of(w)))
            if distinct(pts) and k >= 2 and deciding_margin_ok(w, k):
                break
        path = inp.write(f"bergman{i}.json", points_doc("bergman", pts))
        ops.append(inp.op(f"bergman{i}", ["certify", "--points", path],
                          check_refuted_by_h(reciprocal_gram("bergman", pts))))

    for i in range(counts[1]):
        K = _tree_gram(rng, 3 + i % 8)
        path = inp.write(f"zero{i}.json", _gram_doc(K))
        ops.append(inp.op(f"zero{i}", ["certify", "--points", path], check_refuted_by_zero(K)))

    for i in range(counts[2]):
        n = 3 + i // 2 % 18
        K = _tree_gram(rng, n) if i % 2 else _block_gram(rng, n)
        path = inp.write(f"partition{i}.json", _gram_doc(K))
        ops.append(inp.op(f"partition{i}", ["partition", "--points", path], check_partition(K)))

    for i in range(counts[3]):
        mu, nu, n = 1 + i // 2 % 3, 1 + i // 6 % 3, 16 + i // 2 % 9
        kind = "sobolev" if i % 2 else "szego"
        while True:
            pts = draw_points(rng, kind, n + 1)
            if distinct(pts):
                break
        data, q = pts[:n], pts[n]
        if kind == "sobolev":
            L = rng.standard_normal((n, mu, nu)) + 1j * rng.standard_normal((n, mu, nu))
            L *= 0.8 / rep_norm(gram(kind, data), L)
        else:
            A = rng.standard_normal((2, mu, nu)) + 1j * rng.standard_normal((2, mu, nu))
            A *= 0.45 / np.linalg.norm(A, 2, axis=(1, 2))[:, None, None]
            L = A[0][None] + data[:, None, None] * A[1][None]
        problem = inp.write(f"matrix{i}.problem.json", _problem_doc(kind, data, L))
        new = inp.write(f"matrix{i}.new.json", {"points": [point_json(kind, q)]})
        ops.append(inp.op(f"matrix{i}", ["extend", "--problem", problem, "--eval", new],
                          check_ball(gram(kind, pts), L)))

    # Malformed input; the last two hit fault (b) on every run.
    good = inp.write("malformed.problem.json", _problem_doc("szego", np.array([0.0, 0.5]), np.array([0.0, 0.25])))
    one = inp.write("malformed.new.json", {"points": [[0.25, 0.0]]})
    no_nu = _problem_doc("szego", np.array([0.0, 0.5]), np.zeros((2, 1, 2)))
    del no_nu["targets"]["matrix"]["nu"]
    malformed = (
        ("malformed-domain", ["certify", "--points", inp.write("m1.json", points_doc("szego", [0.0, 1.2]))], None),
        ("malformed-json", ["certify", "--points", inp.write("m2.json", '{"kernel": {"type": "szego"},')], None),
        ("malformed-eval-key", ["interpolate", "--problem", good, "--eval",
                                inp.write("m3.json", {"pts": [[0.25, 0.0]]})], "b"),
        ("malformed-matrix-nu", ["extend", "--problem", inp.write("m4.json", no_nu), "--eval", one], "b"),
    )
    for name, argv, fault in malformed:
        ops.append(inp.op(name, argv, (check_exit_2, _exit_code(0)), fault))
    return ops


BUILDERS = {
    "certify-embed": certify_embed,
    "interpolate-greedy": interpolate_greedy,
    "small-many": small_many,
}


def build(workload: str, seed: int, workdir: str, small: bool) -> list[Op]:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return BUILDERS[workload](Inputs(workdir, rng), small)
