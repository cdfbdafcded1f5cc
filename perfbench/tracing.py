"""Per-layer spans recorded from outside cnpkit.

The tracer replaces each public function below at every ``cnpkit`` module
attribute that holds it, so calls the program makes through
``cnpkit.cli.certify_cnp``, ``cnpkit.interpolate.gram`` or
``cnpkit.certify.f_matrix`` all pass through a wrapper. Nothing under
``src/`` changes. A span records its name, start, end, parent span, the pass
it ran in and the benchmark operation (request) it belongs to. Spans stay in
memory until ``write`` is called at the end of the run.

A layer's self time is the sum of its spans' durations minus the durations
of their direct child spans.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter


def _calls(args, result):
    return 1


def _report_bytes(args, result):
    return len(args[1].encode("utf-8"))


#: (module, function, time metric, count metric, count of one call).
TARGETS = (
    ("cli", "main", "cli.self_s", None, None),
    ("serialize", "load_json", "serialize.load_s", None, None),
    ("serialize", "parse_points_doc", "serialize.load_s", None, None),
    ("serialize", "parse_targets_doc", "serialize.load_s", None, None),
    ("serialize", "parse_eval_doc", "serialize.load_s", None, None),
    ("serialize", "canonical_dumps", "serialize.write_s", None, None),
    ("serialize", "atomic_write_text", "serialize.write_s", "serialize.report_bytes", _report_bytes),
    ("kernels", "gram", "kernels.gram_s", "kernels.gram_calls", _calls),
    ("kernels", "irreducible_partition", "kernels.partition_s", None, None),
    ("certify", "certify_cnp", "certify.certify_s", "certify.f_checks",
     lambda args, r: len(r.f_min_eigs)),
    ("certify", "f_matrix", "certify.f_matrix_s", "certify.f_matrix_calls", _calls),
    ("embed", "universal_embedding", "embed.embed_s", "embed.rank_sum", lambda args, r: int(r.m)),
    ("hermitian", "gram_factor", "hermitian.gram_factor_s", None, None),
    ("hermitian", "is_psd", "hermitian.is_psd_s", "hermitian.is_psd_calls", _calls),
    ("interpolate", "solvable", "interpolate.solvable_s", None, None),
    ("interpolate", "evaluate_interpolant", "interpolate.evaluate_s", "interpolate.evaluations",
     lambda args, r: len(r)),
    ("interpolate", "extend_one_point_scalar", "interpolate.extend_scalar_s", None, None),
    ("interpolate", "extend_one_point_matrix", "interpolate.extend_matrix_s", None, None),
    ("interpolate", "rep_operator_norm", "interpolate.rep_norm_s", None, None),
    ("suites", "certificate_equivalence_suite", "suites.certificate_s", None, None),
    ("suites", "norm_pick_equivalence_suite", "suites.norm_pick_s", None, None),
    ("suites", "vector_complete_suite", "suites.vector_complete_s", None, None),
)

TIME_METRICS = tuple(dict.fromkeys(t[2] for t in TARGETS))
COUNT_METRICS = tuple(dict.fromkeys(t[3] for t in TARGETS if t[3]))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, pass, op]
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.pass_no = -1
        self.op = ""
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        mods = {n: m for n, m in sys.modules.items() if n == "cnpkit" or n.startswith("cnpkit.")}
        for module, func, metric, count_key, count in TARGETS:
            original = getattr(mods[f"cnpkit.{module}"], func)
            wrapper = self._wrap(metric, original, count_key, count)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _wrap(self, name, fn, count_key, count):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1, self.pass_no, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if count_key is not None:
                self.counts[self.pass_no][count_key] += count(args, result)
            return result

        return traced

    def per_pass(self) -> dict[int, dict[str, float]]:
        """Self time of every layer metric, and every count, for each pass."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: dict.fromkeys(TIME_METRICS, 0.0))
        for i, (name, start, end, _, pass_no, _) in enumerate(self.spans):
            out[pass_no][name] += end - start - child[i]
        for pass_no, row in out.items():
            counts = self.counts.get(pass_no, {})
            for key in COUNT_METRICS:
                row[key] = counts.get(key, 0)
        return dict(out)

    def write(self, path: str) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as f:
            for i, (name, start, end, parent, pass_no, op) in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": name, "start_s": start - t0, "end_s": end - t0,
                    "parent": parent, "pass": pass_no, "op": op,
                }) + "\n")
