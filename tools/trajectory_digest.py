"""Print one digest line per solve, to check that a change leaves the
iterates bit for bit the same.

    python3 tools/trajectory_digest.py > before.txt   # on the old commit
    python3 tools/trajectory_digest.py > after.txt    # on the new one
    diff before.txt after.txt

or, in one step, ``python3 tools/trajectory_digest.py --against REV``:
it exports revision REV with ``git archive`` into a temporary directory,
runs that export's copy of this script and then this checkout's, prints
a unified diff of the two outputs and exits 1 when they differ.

With ``--iterations`` only the label, the status, the iteration count,
the final sigma and the final tau to 6 significant digits of each line
are printed or compared. ``--against REV --iterations`` then shows in
one step that a change which moves the iterates by a few ulps changed no
solve's ending, iteration count or final step. ``tests/trajectory_record.txt``
holds this output, and a test reruns the solves against it.

The solves are those of the benchmark (every instance and solver of
``perfbench.suite.WORKLOADS``, with the seed-1 relabelings) plus cadmm
on ``biq:20:7``, a long run (2 621 iterations), and on ``ebiq:10:5``, a
four-block run (1 278 iterations). ``ebiq:10:5`` is the one known loss
of removing the stall restart: with the restart it took 1 232
iterations, so it is now 4 % slower (``biq:20:7`` took 14 077). Each
line holds the status, the iteration count, the final sigma and tau,
the ``repr`` of every ``ResidualReport`` field, and the first 16 hex
digits of the sha256 of the tau history, of ``x`` and of each ``z``
block. Arrays are hashed after adding 0.0, so that -0.0 and 0.0 hash
the same. The solver is imported from the ``src`` directory of the
checkout this file sits in.
"""

from __future__ import annotations

import argparse
import dataclasses
import difflib
import hashlib
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))
sys.path.insert(0, str(ROOT / "tools"))

from bench_record import exported  # noqa: E402
from cadmm import cli  # noqa: E402
from perfbench import suite  # noqa: E402

SEED = 1
EXTRA = (("biq:20:7", "cadmm"), ("ebiq:10:5", "cadmm"))


def digest(a) -> str:
    a = np.ascontiguousarray(np.asarray(a, dtype=float) + 0.0)
    return hashlib.sha256(a.tobytes()).hexdigest()[:16]


def line(label: str, res) -> str:
    report = dataclasses.asdict(res.report) if res.report is not None else {}
    fields = [label, res.status, f"iters={res.iterations}",
              f"sigma={res.sigma_final!r}", f"tau={res.tau_final!r}"]
    fields += [f"{k}={v!r}" for k, v in report.items()]
    fields += [f"taus={digest(res.tau_history)}", f"x={digest(res.x)}"]
    fields += [f"z{i}={digest(z)}" for i, z in enumerate(res.z)]
    return " ".join(fields)


def solves():
    """``(label, problem, solver, max_iters)`` for every digested solve."""
    for workload in suite.WORKLOADS.values():
        perms = suite.permutations(workload, SEED)
        for inst in workload.instances:
            for solver in inst.solvers:
                prob = suite.generate(inst.spec, perms[inst.spec])
                yield f"{workload.name}/{inst.spec}/{solver}", prob, solver, inst.max_iters
    for spec, solver in EXTRA:
        yield f"extra/{spec}/{solver}", cli.generate_problem(spec), solver, None


def brief(line: str) -> str:
    """The label, status, iteration count and final sigma of a line, and
    its final tau to 6 significant digits."""
    *head, tau = line.split()[:5]
    return " ".join(head) + f" tau={float(tau.removeprefix('tau=')):.6g}"


def run_digest(root: Path) -> list:
    """The digest lines printed by the copy of this script under ``root``."""
    script = root / "tools" / "trajectory_digest.py"
    out = subprocess.run([sys.executable, str(script)], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    return out.splitlines(keepends=True)


def against(rev: str, iterations: bool) -> int:
    """Diff the digest of ``rev`` against this checkout's, or only the
    fields of :func:`brief` with ``iterations``; 1 if they differ."""
    with exported(rev) as tmp:
        old = run_digest(tmp)
    new = run_digest(ROOT)
    if iterations:
        old, new = ([brief(x) + "\n" for x in lines] for lines in (old, new))
    diff = list(difflib.unified_diff(old, new, fromfile=rev, tofile="checkout"))
    sys.stdout.writelines(diff)
    return 1 if diff else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="REV",
                        help="diff the digest of git revision REV against this checkout's")
    parser.add_argument("--iterations", action="store_true",
                        help="keep only each solve's label, status and "
                             "iteration count")
    args = parser.parse_args()
    if args.against:
        return against(args.against, args.iterations)
    for label, prob, solver, max_iters in solves():
        suite.prepare(prob)
        text = line(label, suite.solve(prob, solver, max_iters))
        print(brief(text) if args.iterations else text, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
