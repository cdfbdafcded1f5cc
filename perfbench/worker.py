"""The process that runs cnpkit for the benchmark.

``run.py`` starts it and talks to it in JSON lines over stdin and stdout, so
that this process holds only cnpkit, numpy and the tracer: its peak resident
memory is the program's, not the harness's. It imports cnpkit from the
checkout's ``src/`` (exit status 2 when that fails), then answers:

- ``{"ops": [argv, ...], "trace": bool, "pass_no": k, "op_names": [...]}``:
  one timed pass, each argv run as ``cnpkit.cli.main(argv)`` in process; the
  reply holds the pass's wall time and, per command, its time, exit status,
  escaped exception (``"Type: message"``) and standard error;
- ``{"end": true, "trace_path": path or null}``: writes the spans there and
  replies with the per-layer rows of every traced pass and this process's
  peak resident memory, then exits.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def import_program():
    sys.path.insert(0, SRC)
    import cnpkit.cli

    where = os.path.realpath(cnpkit.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"cnpkit was imported from {where}, not from this checkout")
    return cnpkit.cli


def peak_rss_mb() -> float:
    """High-water resident set of this process since its exec. Not
    ``ru_maxrss``: Linux carries the parent's high-water mark across exec."""
    with open("/proc/self/status", encoding="ascii") as f:
        kb = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
    return kb / 1024.0


def run_pass(cli, argvs, names, tracer=None, pass_no=0):
    """One timed pass; a program exception is an outcome, never fatal."""
    outcomes = []
    t0 = perf_counter()
    for argv, name in zip(argvs, names):
        if tracer is not None:
            tracer.pass_no, tracer.op = pass_no, name
        err = io.StringIO()
        code = error = None
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            try:
                code = cli.main(argv)
            except (Exception, SystemExit) as exc:
                error = f"{type(exc).__name__}: {exc}"
            elapsed = perf_counter() - start
        outcomes.append([elapsed, code, error, err.getvalue()])
    return perf_counter() - t0, outcomes


def main() -> int:
    try:
        cli = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import cnpkit from {SRC}: {exc}", file=sys.stderr)
        return 2
    from tracing import Tracer

    tracer = Tracer()
    send = sys.stdout
    send.write(json.dumps({"ready": True}) + "\n")
    send.flush()
    for line in sys.stdin:
        msg = json.loads(line)
        if msg.get("end"):
            reply = {"per_pass": {}, "spans": len(tracer.spans), "peak_rss_mb": peak_rss_mb()}
            if tracer.spans:
                reply["per_pass"] = tracer.per_pass()
            if msg["trace_path"]:
                tracer.write(msg["trace_path"])
            send.write(json.dumps(reply) + "\n")
            send.flush()
            return 0
        traced = tracer if msg["trace"] else None
        if traced:
            traced.install()
        try:
            wall, outcomes = run_pass(cli, msg["ops"], msg["op_names"], traced, msg["pass_no"])
        finally:
            if traced:
                traced.remove()
        send.write(json.dumps({"wall": wall, "outcomes": outcomes}) + "\n")
        send.flush()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
