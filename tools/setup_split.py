"""Print where a workload's set-up time goes, instance by instance.

    python3 tools/setup_split.py --workload gram_bound --seed 1 --reps 300

A benchmark pass sets up each base instance of a workload
(``perfbench.suite.WORKLOADS``) in three steps: it generates the base
instance (``suite.base_problem``), relabels it by the seeded permutation
of ``suite.permutations`` (``suite.relabel``) and prepares it
(``suite.prepare``). This script runs the three steps ``--reps`` times
per instance, on a fresh problem each time, and prints the best of those
times for each step in milliseconds, one line per instance. It calls
``perfbench.suite`` and changes nothing in it. As ``perfbench/run.py``
does by default, it runs with one BLAS thread, and the solver is
imported from the ``src`` directory of the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.run import THREAD_VARS  # noqa: E402

STEPS = ("generate", "relabel", "prepare")


def split(workload: str, seed: int, reps: int) -> dict:
    """``{spec: {step: best milliseconds}}`` for every base instance of
    the workload, over ``reps`` set-ups of each."""
    from perfbench import suite

    wl = suite.WORKLOADS[workload]
    perms = suite.permutations(wl, seed)
    best = {}
    for inst in wl.instances:
        times = []
        for _ in range(reps):
            t0 = time.perf_counter()
            base = suite.base_problem(inst.spec)
            t1 = time.perf_counter()
            prob = suite.relabel(base, perms[inst.spec])
            t2 = time.perf_counter()
            suite.prepare(prob)
            t3 = time.perf_counter()
            times.append((t1 - t0, t2 - t1, t3 - t2))
        best[inst.spec] = {step: 1e3 * min(t) for step, t in zip(STEPS, zip(*times))}
    return best


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of perfbench.suite.WORKLOADS")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--reps", type=int, required=True)
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")
    for var in THREAD_VARS:   # before numpy is imported
        os.environ[var] = "1"
    from perfbench import suite

    if args.workload not in suite.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(suite.WORKLOADS)}")
    print(f"{args.workload}, seed {args.seed}, best of {args.reps} set-ups, ms:")
    for spec, ms in split(args.workload, args.seed, args.reps).items():
        print(f"{spec}: " + ", ".join(f"{step} {ms[step]:.3f}" for step in STEPS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
