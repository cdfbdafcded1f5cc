"""cnpkit benchmark: seeded CLI workloads, independent output checks, traced layers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify-embed --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

A run starts a worker process (``worker.py``) that imports only cnpkit and
numpy, writes the workload's inputs under ``.perfbench_work/``, warms the
worker up on a small copy of the workload, then has it repeat passes over
all of the workload's commands until ``--seconds`` of pass time have been
measured. Each command is ``cnpkit.cli.main(argv)`` called in the worker's
process; every outcome is checked here after its pass, outside the timed
region. With ``--trace 0`` the last line of standard output holds the
end-to-end metrics; with ``--trace 1`` every other pass has the public
functions of each cnpkit module wrapped (see ``tracing.py``) and the last
line holds the per-layer metrics, while the spans go to ``.perfbench_out/``.
``--smoke`` runs every operation kind of every workload once at small size,
with tracing on, and checks that every check rejects a deliberately
perturbed outcome.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: One BLAS thread keeps timings steady on a shared machine; always <= nproc.
BLAS_THREADS = 1
#: Fewest set-up samples of a run; one is taken after every pass.
SETUP_MIN = 5
#: Fixed work that does not use cnpkit, run in a fresh interpreter before the
#: first pass and after every set-up sample. This machine's speed changes by
#: up to a third in phases of seconds to minutes; the time of this script
#: follows those phases, so each pass is scaled by ``CALIBRATION_REF_S`` over
#: the calibration time around it (see ``end_to_end``).
CALIBRATION = """
import json
import numpy as np
rng = np.random.default_rng(0)
a = rng.standard_normal((60, 60)) + 1j * rng.standard_normal((60, 60))
h = a + a.conj().T
for _ in range(30):
    np.linalg.eigvalsh(h)
d = {}
for i in range(60000):
    d[i % 1009] = d.get(i % 1009, 0) + i
json.loads(json.dumps([[float(x), float(-x)] for x in rng.standard_normal(20000)]))
"""
#: Calibration time of the reference speed the end-to-end times are given at.
CALIBRATION_REF_S = 0.25
P95_MIN_BEYOND = 10


def configure_environment() -> None:
    """Fix BLAS threads before numpy loads, and drop a stray CNPKIT_SEED."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("CNPKIT_SEED", None)


class ProgramMissing(Exception):
    """The worker could not import cnpkit from the checkout."""


class Worker:
    """The ``worker.py`` process that runs cnpkit (see its docstring)."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        if self._recv() is None:
            self.close()
            raise ProgramMissing(f"the worker exited with status {self.proc.returncode}")

    def _send(self, msg: dict) -> None:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()

    def _recv(self):
        line = self.proc.stdout.readline()
        return json.loads(line) if line else None

    def run_pass(self, ops, traced: bool = False, pass_no: int = 0):
        """One timed pass over ``ops``; returns its wall time, outcomes and
        per-command times."""
        from workloads import Outcome

        for op in ops:
            if op.output and os.path.exists(op.output):
                os.remove(op.output)
        self._send({"ops": [op.argv for op in ops], "op_names": [op.name for op in ops],
                    "trace": traced, "pass_no": pass_no})
        reply = self._recv()
        if reply is None:
            raise RuntimeError("the worker ended during a pass")
        outcomes = [Outcome(code, error, stderr, op.output)
                    for op, (_, code, error, stderr) in zip(ops, reply["outcomes"])]
        return reply["wall"], outcomes, [o[0] for o in reply["outcomes"]]

    def end(self, trace_path=None) -> dict:
        """Ends the worker and returns its last reply."""
        self._send({"end": True, "trace_path": trace_path})
        reply = self._recv()
        self.proc.stdin.close()
        self.proc.wait()
        return reply

    def close(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()


def blas_threads():
    import ctypes

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "")
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_set": BLAS_THREADS,
        "blas_threads_seen": blas_threads(),
    }


def judge(op, outcome):
    """Failure reason, or None when the outcome passes its check."""
    from oracles import CheckFailed

    try:
        op.check(outcome)
    except CheckFailed as exc:
        return str(exc)
    except Exception as exc:  # a report missing a field fails its check
        return f"check raised {type(exc).__name__}: {exc}"
    return None


def expected(op, reason) -> bool:
    from workloads import FAULTS

    return op.known_fault is not None and FAULTS[op.known_fault][0] in reason


class Ledger:
    """Attempted and failed operations over the measured passes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures: dict[str, dict] = {}

    def add(self, ops, outcomes):
        from workloads import FAULTS

        for op, outcome in zip(ops, outcomes):
            self.attempted += 1
            reason = judge(op, outcome)
            if reason is None:
                continue
            self.failed += 1
            known = expected(op, reason)
            self.correct &= known
            entry = self.failures.setdefault(op.name, {
                "op": op.name, "count": 0, "reason": reason,
                "fault": FAULTS[op.known_fault][1] if known else "unexpected",
            })
            entry["count"] += 1


def fresh_interpreter(code: str, *args: str, env=None) -> float:
    """Wall time of ``python -c code args`` in a fresh interpreter."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"fresh interpreter exited {proc.returncode}: {proc.stderr.decode()[-300:]}")
    return elapsed


def setup_time(workdir: str) -> float:
    """Fresh interpreter: import cnpkit and certify three Szegő points."""
    pts = os.path.join(workdir, "setup.points.json")
    out = os.path.join(workdir, "setup.report.json")
    with open(pts, "w", encoding="utf-8") as f:
        json.dump({"kernel": {"type": "szego"}, "points": [[0, 0], [0.5, 0], [0, 0.3]]}, f)
    code = "import sys, cnpkit.cli; sys.exit(cnpkit.cli.main(sys.argv[1:]))"
    elapsed = fresh_interpreter(code, "certify", "--points", pts, "--output", out,
                                env=dict(os.environ, PYTHONPATH=SRC))
    with open(out, encoding="utf-8") as f:
        verdict = json.load(f)["verdict"]
    os.remove(out)
    if verdict is not True:
        raise RuntimeError("set-up certify did not certify three Szegő points")
    return elapsed


def summary(ops, pass_walls, op_times, setup) -> dict:
    """Medians of the set-up samples, passes and commands, and the rates."""
    by_cmd: dict[str, list[float]] = {}
    every = []
    evaluations = trials = 0.0
    eval_time = trial_time = 0.0
    for times in op_times:
        for op, t in zip(ops, times):
            by_cmd.setdefault(op.command, []).append(t)
            every.append(t)
            if op.evaluations:
                evaluations += op.evaluations
                eval_time += t
            if op.trials:
                trials += op.trials
                trial_time += t
    figures = {
        "setup_s": statistics.median(setup),
        "run_s": statistics.median(pass_walls),
        "certify_p50_s": statistics.median(by_cmd["certify"]),
        "cmd_p50_s": statistics.median(every),
    }
    figures.update({f"{cmd}_p50_s": statistics.median(v) for cmd, v in sorted(by_cmd.items())})
    if len(every) * 0.05 >= P95_MIN_BEYOND:
        figures["cmd_p95_s"] = statistics.quantiles(every, n=20, method="inclusive")[-1]
    if evaluations:
        figures["evaluations_per_s"] = evaluations / eval_time
    if trials:
        figures["equivalence_trials_per_s"] = trials / trial_time
    return figures


def end_to_end(ops, pass_walls, op_times, setup, calibration, rss_mb) -> tuple[dict, dict]:
    """Bounded metrics for the last line, and the per-command details.

    Times are given at the reference speed: pass ``k`` and the set-up sample
    after it are scaled by ``CALIBRATION_REF_S`` over the mean of the
    calibration samples taken just before and just after them. The details
    keep the figures as measured under ``raw``."""
    scales = [2.0 * CALIBRATION_REF_S / (c0 + c1) for c0, c1 in zip(calibration, calibration[1:])]
    scaled = summary(ops, [w * k for w, k in zip(pass_walls, scales)],
                     [[t * k for t in times] for times, k in zip(op_times, scales)],
                     [t * k for t, k in zip(setup, scales)])
    metrics = {k: (scaled[k], "s") for k in ("setup_s", "run_s", "certify_p50_s", "cmd_p50_s")}
    metrics["peak_rss_mb"] = (rss_mb, "MB")
    details = {k: v for k, v in scaled.items() if k not in metrics}
    details.update({"commands_timed": sum(map(len, op_times)), "speed_scale": scales,
                    "raw": summary(ops, pass_walls, op_times, setup),
                    "pass_s": pass_walls, "setup_s": setup, "calibration_s": calibration})
    return metrics, details


def per_layer(per_pass: dict, pass_walls) -> dict:
    """Median over the traced (even) passes; the odd passes ran untraced."""
    from tracing import COUNT_METRICS, TIME_METRICS

    rows = [per_pass[p] for p in sorted(per_pass, key=int)]
    metrics = {k: (statistics.median(r[k] for r in rows), "s") for k in TIME_METRICS}
    for k in COUNT_METRICS:  # counts repeat exactly from pass to pass
        metrics[k] = (statistics.median_low(r[k] for r in rows), "bytes" if k.endswith("_bytes") else "count")
    metrics["trace.run_s"] = (statistics.median(pass_walls[0::2]), "s")
    metrics["trace.untraced_run_s"] = (statistics.median(pass_walls[1::2]), "s")
    return metrics


@contextlib.contextmanager
def work_directory(name: str):
    """A fresh directory under ``.perfbench_work/``, removed afterwards."""
    path = os.path.join(ROOT, ".perfbench_work", name)
    os.makedirs(path)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(path))


def measure(args) -> int:
    from workloads import build

    worker = Worker()
    try:
        with work_directory(f"{args.workload}-{os.getpid()}") as workdir:
            print("perfbench machine " + json.dumps(machine()), flush=True)
            os.makedirs(os.path.join(workdir, "warm"))
            ops = build(args.workload, args.seed, workdir, small=False)
            warm = build(args.workload, args.seed, os.path.join(workdir, "warm"), small=True)
            worker.run_pass(warm)

            # A traced run alternates traced and untraced passes, so that the
            # tracing overhead is measured in the same stretch of time. An
            # untraced run takes a set-up sample after every pass, and a
            # calibration sample before the first pass and after every set-up
            # sample, so that each pass is bracketed by two calibrations.
            ledger = Ledger()
            pass_walls, op_times, setup = [], [], []
            calibration = [] if args.trace else [fresh_interpreter(CALIBRATION)]
            while sum(pass_walls) < args.seconds or (args.trace and len(pass_walls) < 2):
                traced = bool(args.trace) and len(pass_walls) % 2 == 0
                wall, outcomes, times = worker.run_pass(ops, traced, len(pass_walls))
                pass_walls.append(wall)
                op_times.append(times)
                ledger.add(ops, outcomes)
                if not args.trace:
                    setup.append(setup_time(workdir))
                    calibration.append(fresh_interpreter(CALIBRATION))
            while not args.trace and len(setup) < SETUP_MIN:
                setup.append(setup_time(workdir))
                calibration.append(fresh_interpreter(CALIBRATION))

            trace_path = None
            if args.trace:
                outdir = os.path.join(ROOT, ".perfbench_out")
                os.makedirs(outdir, exist_ok=True)
                trace_path = os.path.join(outdir, f"trace-{args.workload}.jsonl.gz")
            reply = worker.end(trace_path)
            if args.trace:
                metrics = per_layer(reply["per_pass"], pass_walls)
                details = {"pass_s": pass_walls, "trace_file": os.path.relpath(trace_path, ROOT),
                           "spans": reply["spans"]}
            else:
                metrics, details = end_to_end(ops, pass_walls, op_times, setup, calibration,
                                              reply["peak_rss_mb"])
            print("perfbench workload " + json.dumps({
                "workload": args.workload, "seed": args.seed, "trace": args.trace,
                "passes": len(pass_walls), "operations_per_pass": len(ops),
                "attempted": ledger.attempted, "failed": ledger.failed,
                "failures": list(ledger.failures.values()), "details": details,
            }), flush=True)
            print(json.dumps({
                "correct": ledger.correct,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }), flush=True)
    finally:
        worker.close()
    return 0


def smoke(seed: int) -> int:
    """Every operation kind once at small size, traced, with check self-tests."""
    from workloads import WORKLOADS, build

    problems = []
    worker = Worker()
    try:
        with work_directory(f"smoke-{os.getpid()}") as workdir:
            print("perfbench machine " + json.dumps(machine()), flush=True)
            for workload in WORKLOADS:
                os.makedirs(os.path.join(workdir, workload))
                ops = build(workload, seed, os.path.join(workdir, workload), small=True)
                wall, outcomes, _ = worker.run_pass(ops, traced=True)
                rejected = 0
                for op, outcome in zip(ops, outcomes):
                    reason = judge(op, outcome)
                    if reason is not None:
                        if not expected(op, reason):
                            problems.append(f"{workload}/{op.name}: {reason}")
                        continue
                    if op.known_fault:
                        problems.append(f"{workload}/{op.name}: known fault {op.known_fault} did not show")
                    if judge(op, op.perturb(outcome)) is None:
                        problems.append(f"{workload}/{op.name}: check accepted a perturbed outcome")
                    else:
                        rejected += 1
                print(f"perfbench smoke {workload}: {len(ops)} operations in {wall:.2f} s, "
                      f"{rejected} perturbed outcomes rejected, kinds "
                      f"{sorted({op.command for op in ops})}", flush=True)
            reply = worker.end()
            if not reply["spans"]:
                problems.append("the traced passes recorded no spans")
    finally:
        worker.close()
    for p in problems:
        print(f"perfbench smoke FAILED {p}", flush=True)
    return 1 if problems else 0


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required unless --smoke is given")
    return args


def main(argv=None) -> int:
    configure_environment()
    args = parse_args(argv)
    # A terminated run still stops its worker and removes its work directory.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        return smoke(args.seed) if args.smoke else measure(args)
    except ProgramMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
