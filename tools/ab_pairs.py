"""Compare this checkout's benchmark with a git revision's in alternating
pairs of runs.

    python3 tools/ab_pairs.py --against REV --workload mixed_families --pairs 10 --seconds 40

exports revision REV with ``git archive`` into a temporary directory, as
``tools/trajectory_digest.py --against`` does, and runs
``perfbench/run.py --workload W --seed S --seconds T`` from that export
and from this checkout, N times each, in pairs. The export runs first in
odd pairs and the checkout in even ones. After each run it prints that
run's ``solve_ref``, ``setup_s`` and ``total_ref``. For every end-to-end metric of
``BENCHMARK.json`` it then prints each side's median and quartiles over
its runs, the relative change of the medians, the pairs the checkout won
(a tie counts for neither side) and whether a gain is shown: the
checkout won at least nine tenths of the pairs and the medians lie
further apart, in the better direction, than the quartiles of REV's
runs. Only the pairs in which both runs passed their check count; the
number left out is printed. The exit code is 1 when a run failed its
check or printed no result, else 0. The export is deleted on exit, also
when SIGTERM stops the comparison.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from bench_record import exported, parse_output  # noqa: E402

WIN_SHARE = 0.9
PAIR_METRICS = ("solve_ref", "setup_s", "total_ref")   # printed run by run


def run_once(root: Path, workload: str, seed: int, seconds: float) -> tuple:
    """``(metrics, ok)`` of one ``perfbench/run.py`` run of the copy under
    ``root``: ``{name: value}`` from its final JSON line (None when it
    printed none), and whether the run exited 0 with its check passed."""
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        stdout=subprocess.PIPE, text=True)
    try:
        result = parse_output(proc.stdout, [workload])[1][workload]
    except ValueError:
        return None, False
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    return metrics, proc.returncode == 0 and result.get("correct") is True


def pair_line(k: int, side: str, metrics, ok: bool) -> str:
    """The line printed after one run: the pair, the side, how the run
    ended and the metrics of ``PAIR_METRICS`` it reported."""
    shown = "no result" if metrics is None else "ok" if ok else "CHECK FAILED"
    values = [f"{name} {metrics[name]:.6g}" for name in PAIR_METRICS
              if metrics and name in metrics]
    return ", ".join([f"pair {k} {side}: {shown}"] + values)


def quartiles(values: list) -> tuple:
    """``(q1, median, q3)``, linearly interpolated."""
    return tuple(float(q) for q in np.percentile(values, [25, 50, 75]))


def checked_pairs(runs: list) -> tuple:
    """``(pairs, left_out)`` from ``runs``, one
    ``((rev_metrics, rev_ok), (checkout_metrics, checkout_ok))`` per pair
    as :func:`run_once` returned them: the metrics of the pairs in which
    both runs passed their check, and how many pairs were left out."""
    pairs = [(a, b) for (a, a_ok), (b, b_ok) in runs if a_ok and b_ok]
    return pairs, len(runs) - len(pairs)


def summarize(pairs: list, better: dict) -> list:
    """One row per metric of ``better`` (``{name: "lower" | "higher"}``)
    over ``pairs``, a list of ``(rev_metrics, checkout_metrics)`` dicts of
    ``{name: value}``; a side that printed no result is None and its pair
    is left out. Each row holds the name, each side's quartiles, the
    relative change of the medians, the wins of the checkout, the pairs
    counted and whether a gain is shown."""
    full = [(a, b) for a, b in pairs if a is not None and b is not None]
    rows = []
    for name, direction in better.items():
        got = [(a[name], b[name]) for a, b in full if name in a and name in b]
        if not got:
            continue
        sign = 1.0 if direction == "lower" else -1.0
        old, new = quartiles([a for a, _ in got]), quartiles([b for _, b in got])
        wins = sum(sign * (a - b) > 0 for a, b in got)
        rows.append({
            "metric": name, "rev": old, "checkout": new,
            "change": new[1] / old[1] - 1.0 if old[1] else float("nan"),
            "wins": wins, "pairs": len(got),
            "gain": wins >= WIN_SHARE * len(got)
            and sign * (old[1] - new[1]) > old[2] - old[0]})
    return rows


def format_rows(rows: list) -> list:
    def q(t):
        return f"{t[1]:.6g} [{t[0]:.6g}, {t[2]:.6g}]"
    return [f"{r['metric']}: rev {q(r['rev'])}, checkout {q(r['checkout'])}, "
            f"change {100 * r['change']:+.1f} %, checkout won {r['wins']} of {r['pairs']}"
            f"{', gain shown' if r['gain'] else ''}" for r in rows]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV", required=True,
                        help="git revision to compare this checkout with")
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    runs, failed = [], 0
    with exported(args.against) as tmp:
        sides = {"rev": tmp, "checkout": ROOT}
        for k in range(args.pairs):
            order = ["rev", "checkout"] if k % 2 == 0 else ["checkout", "rev"]
            got = {}
            for side in order:
                got[side] = run_once(sides[side], args.workload, args.seed, args.seconds)
                failed += not got[side][1]
                print(pair_line(k + 1, side, *got[side]), flush=True)
            runs.append((got["rev"], got["checkout"]))
    pairs, left_out = checked_pairs(runs)
    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs of {args.seconds:g} s "
          f"runs, {args.against} against this checkout:")
    if left_out:
        print(f"{left_out} of {args.pairs} pairs left out, since a run in them failed "
              f"its check or printed no result")
    for line in format_rows(summarize(pairs, better)):
        print(line)
    if failed:
        print(f"{failed} run(s) failed their check or printed no result")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
