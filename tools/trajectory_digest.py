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
iterations, so it is now 4 % slower (``biq:20:7`` took 14 077). Then
come ten solves of the generic engine, each with ``engine.solve`` and
``engine.solve_direct_extended``: two random quadratic toys, the
divergence example started from ones (the corrected method with a
``stop`` rule on the constraint norm, the direct one at tau = 1), and
``to_multiblock`` of ``ebiq:8:1`` and ``fap:7:2`` at tol 0 for 60
iterations. Each line holds the status, the iteration count, the
final sigma and tau, the ``repr`` of every ``ResidualReport`` field,
and the first 16 hex digits of the sha256 of the tau history, of ``x``
and of each ``z`` block. Arrays are hashed after adding 0.0, so that
-0.0 and 0.0 hash the same. The solver is imported from the ``src`` directory of the
checkout this file sits in.
"""

from __future__ import annotations

import argparse
import dataclasses
import difflib
import functools
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
from cadmm import cli, dnnsdp, engine, toys  # noqa: E402
from cadmm.engine import SolverConfig  # noqa: E402
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


def dnnsdp_solve(prob, solver: str, max_iters):
    """A benchmark solve of ``prob``, set up as the benchmark sets it up."""
    suite.prepare(prob)
    return suite.solve(prob, solver, max_iters)


def engine_run(cfg, stop=None, tau=engine.DEXT_TAU, z0=None, x0=None):
    """``run(problem, solver)``: ``engine.solve`` with ``stop`` for
    "cadmm", ``engine.solve_direct_extended`` at ``tau`` for "dext"."""
    def run(prob, solver):
        if solver == "cadmm":
            return engine.solve(prob, cfg, stop=stop, z0=z0, x0=x0)
        return engine.solve_direct_extended(prob, cfg, tau=tau, z0=z0, x0=x0)
    return run


def engine_solves():
    """``(label, problem, run)`` for the generic engine's solves; see
    :func:`engine_run`."""
    toy = engine_run(SolverConfig(tol=1e-9, max_iters=5000))
    yield ("engine/toy:3:7", toys.random_quadratic_toy((3, 4, 5), 6, seed=7).problem,
           toy)
    yield ("engine/toy:4:3", toys.random_quadratic_toy(
        (4, 5, 6, 5), 8, seed=3, rho_blocks=(1,)).problem, toy)
    # a stop rule replaces the tolerance test of the corrected run
    yield "engine/divergence", toys.divergence_example(), engine_run(
        SolverConfig(tol=1e-10, max_iters=3000), stop=lambda fnorm: fnorm < 1e-10,
        tau=1.0, z0=[np.ones(1)] * 3, x0=np.ones(3))
    bridge = engine_run(SolverConfig(tol=0.0, max_iters=60))
    for spec in ("ebiq:8:1", "fap:7:2"):
        yield (f"engine/{spec}",
               dnnsdp.to_multiblock(cli.generate_problem(spec)), bridge)


def solves():
    """``(label, solve)`` for every digested solve, where ``solve()``
    returns its ``SolveResult``."""
    for workload in suite.WORKLOADS.values():
        perms = suite.permutations(workload, SEED)
        for inst in workload.instances:
            for solver in inst.solvers:
                prob = suite.generate(inst.spec, perms[inst.spec])
                yield (f"{workload.name}/{inst.spec}/{solver}",
                       functools.partial(dnnsdp_solve, prob, solver, inst.max_iters))
    for spec, solver in EXTRA:
        yield (f"extra/{spec}/{solver}",
               functools.partial(dnnsdp_solve, cli.generate_problem(spec), solver, None))
    for label, prob, run in engine_solves():
        for solver in ("cadmm", "dext"):
            yield f"{label}/{solver}", functools.partial(run, prob, solver)


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
    for label, run in solves():
        text = line(label, run())
        print(brief(text) if args.iterations else text, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
