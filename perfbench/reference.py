"""One-off reference figures, not a workload.

Certification time of seeded Szegő samples at n in {30, 100, 200, 400}, and
``evaluate_interpolant`` with 100 data points and 100 evaluation points, all
with one BLAS thread. Run from the root of a checkout:

    python3 perfbench/reference.py [--seed 0]

Each figure is the median of a few repetitions (one at n = 400); it prints
one JSON line with the machine details and one per figure.
"""

from __future__ import annotations

import argparse
import json
import statistics
from time import perf_counter

from run import configure_environment, machine
from worker import import_program


def timed(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    seed = parser.parse_args().seed
    configure_environment()
    import_program()
    import cnpkit as ck
    import numpy as np

    from oracles import blaschke
    from workloads import certified_points, disk_points

    rng = np.random.default_rng(seed)
    print(json.dumps({"machine": machine()}), flush=True)
    for n in (30, 100, 200, 400):
        sample = ck.gram(ck.Szego(), certified_points(rng, "szego", n))
        gram_s = timed(lambda: ck.gram(ck.Szego(), sample.points), 3)
        cert_s = timed(lambda: ck.certify_cnp(sample), 1 if n == 400 else 3)
        print(json.dumps({"figure": "certify_szego", "n": n, "gram_s": gram_s, "certify_s": cert_s}), flush=True)

    data = certified_points(rng, "szego", 100)
    zeros = disk_points(rng, 2, 0.7)
    problem = ck.PickProblem.scalar(ck.gram(ck.Szego(), data), blaschke(zeros, data, 0.8))
    evals = disk_points(rng, 100, 0.9)
    eval_s = timed(lambda: ck.evaluate_interpolant(problem, evals), 3)
    print(json.dumps({"figure": "evaluate_interpolant", "n": 100, "N": 100, "seconds": eval_s}), flush=True)


if __name__ == "__main__":
    main()
