"""Benchmark of cadmm: time to a certified eta < 1e-6 per workload.

    python3 perfbench/run.py --workload psd_bound --seed 1 --seconds 40 --trace 0

The solver is imported from the ``src`` directory of the checkout this
file sits in. With ``--trace 0`` the run repeats untraced passes of the
workload for ``--seconds`` and reports the end-to-end metrics named in
``BENCHMARK.json``: medians over the passes of times divided by the
time of a fixed reference computation run between the instances of a
pass (``reference.py``, ``suite.run_pass``), so that they do not move
with the load other tenants put on the host; set-up time is the fastest
of the run's set-ups, in seconds. With ``--trace 1`` it alternates untraced and
traced passes and reports the per-layer metrics, kernel
microbenchmarks and the tracing overhead. Every solve is checked
(``certify.py``). The last line of standard output is one JSON object;
the exit code is 1 when a check failed and 2 on a usage or set-up
error. Result documents, profiles and a full record of the run are
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPS = 4  # set-up-only repetitions before each untraced pass
MICRO_RESERVE_S = 4.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class SetupError(Exception):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   help="a workload of BENCHMARK.json, or 'all' to run each in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="BLAS threads, at most the usable cores (default 1)")
    return p.parse_args(argv)


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"{path} not found")
    with open(path) as fh:
        return json.load(fh)


def import_solver():
    """Import cadmm from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "cadmm" / "__init__.py").is_file():
        raise SetupError(f"no solver source at {src / 'cadmm'}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import cadmm

    if Path(cadmm.__file__).resolve().parent != (src / "cadmm").resolve():
        raise SetupError(f"cadmm imported from {cadmm.__file__}, not from {src}")
    return cadmm


def run_all(args, names) -> int:
    """Each workload in its own process, so that peak memory is per
    workload; the exit code is the worst of theirs."""
    worst = 0
    for name in names:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--threads", str(args.threads)]
        worst = max(worst, subprocess.run(argv).returncode)
    return worst


def summary(samples) -> dict:
    """Median, the highest of p99/p95/p90/p75/p50 with at least ten
    samples above it, and the sample count."""
    xs = sorted(samples)
    out = {"median": statistics.median(xs), "n": len(xs)}
    for p in (99, 95, 90, 75, 50):
        if len(xs) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(xs, n=100, method="inclusive")[p - 1]
            break
    return out


def untraced_passes(suite, reference, workload, perms, check, seconds):
    """Passes until the next one would end after ``seconds``, each after
    a few set-up-only repetitions, so that set-up is sampled across the
    whole run. Returns the passes and every set-up time measured."""
    passes, setups = [], []
    t0 = time.perf_counter()
    while True:
        t1 = time.perf_counter()
        setups += [suite.setup_seconds(workload, perms) for _ in range(SETUP_REPS)]
        passes.append(suite.run_pass(workload, perms, OUT / workload.name, check,
                                     reference))
        setups.append(passes[-1].setup_s)
        if time.perf_counter() - t0 + (time.perf_counter() - t1) > seconds:
            return passes, setups


def alternating_passes(suite, reference, tracing, cadmm, workload, perms, check,
                       seconds):
    """Untraced and traced passes in turn, at least one of each."""
    tracer = tracing.Tracer()
    passes = []
    t0 = time.perf_counter()
    while True:
        if sum(p.traced for p in passes) * 2 >= len(passes):
            passes.append(suite.run_pass(workload, perms, OUT / workload.name, check,
                                         reference))
        else:
            with tracer:
                tracer.wrap_layers(cadmm)
                passes.append(suite.run_pass(workload, perms, OUT / workload.name, check,
                                             reference, tracer))
        if passes[-1].traced and time.perf_counter() - t0 + passes[-1].total_s > seconds:
            return tracer, passes


def tally(passes) -> tuple:
    """(attempted, failed, solved, errors) over all passes. Every pass
    runs the same inputs, so each must repeat the first pass's statuses,
    iteration counts and final residuals exactly."""
    attempted = failed = solved = 0
    errors = []
    first = [(s.status, s.iterations, s.residual) for s in passes[0].solves]
    for k, p in enumerate(passes):
        for s, expect in zip(p.solves, first):
            attempted += 1
            errs = list(s.errors)
            got = (s.status, s.iterations, s.residual)
            if got != expect:
                errs.append(f"{s.spec} {s.solver}: pass {k} ended {got}, pass 0 {expect}")
            if errs:
                failed += 1
                errors.extend(errs)
            elif s.status == "Converged":
                solved += 1
    return attempted, failed, solved, errors


def end_to_end(passes, setups, solved, attempted) -> tuple:
    """The metrics, and summaries of the samples behind them and of the
    same times in seconds."""
    values = {
        "solve_ref": [p.solve_ref for p in passes],
        "setup_s": setups,
        "total_ref": [p.total_ref for p in passes],
        "iters": [p.iters for p in passes],
        "iter_ref": [p.solve_ref / max(p.iters, 1) for p in passes],
    }
    summaries = {k: summary(v) for k, v in values.items()}
    metrics = {k: s["median"] for k, s in summaries.items()}
    # set-up is reported in seconds, which the host's load moves, so as
    # the fastest of the run's set-ups rather than their median
    metrics["setup_s"] = min(setups)
    summaries["seconds"] = {
        "solve_s": summary([p.solve_s for p in passes]),
        "total_s": summary([p.total_s for p in passes]),
        "ms_per_iter": summary([p.solve_s / max(p.iters, 1) * 1e3 for p in passes]),
        "solve_call_s": summary([s.seconds for p in passes for s in p.solves]),
    }
    metrics["solved_frac"] = solved / attempted
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics, summaries


def describe(s: dict) -> str:
    tail = next((f"{k} {v:.6g}" for k, v in s.items() if k.startswith("p")),
                "no percentile with 10 samples above it")
    return f"median of {s['n']} {s['median']:.6g}; {tail}"


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        if args.workload == "all":
            return run_all(args, names)
        if args.workload not in names:
            raise SetupError(f"unknown workload {args.workload!r} (expected one of {names})")
        nproc = len(os.sched_getaffinity(0))
        if not 1 <= args.threads <= nproc:
            raise SetupError(f"refusing {args.threads} BLAS threads on {nproc} usable cores")
        for var in THREAD_VARS:
            os.environ[var] = str(args.threads)
        cadmm = import_solver()
    except (SetupError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    from perfbench import certify, envinfo, layers, micro, reference, suite, tracing

    env = envinfo.record(ROOT)
    blas = {lib["threads"] for lib in env["openblas"] if lib["threads"] is not None}
    if blas != {args.threads}:
        print(f"perfbench: BLAS thread counts {sorted(blas)} != {args.threads}",
              file=sys.stderr)
        return 2
    workload = suite.WORKLOADS[args.workload]
    perms = suite.permutations(workload, args.seed)
    ref = reference.Reference(suite.sizes(workload))
    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"

    check = functools.partial(certify.check, tol=suite.TOL,
                              refs=certify.load_references())

    if args.trace == 0:
        passes, setups = untraced_passes(suite, ref, workload, perms, check,
                                         args.seconds)
    else:
        tracer, passes = alternating_passes(
            suite, ref, tracing, cadmm, workload, perms, check,
            args.seconds - MICRO_RESERVE_S)
        tracer.save(OUT / f"{tag}-spans.npz")
    attempted, failed, solved, errors = tally(passes)

    if args.trace == 0:
        metrics, summaries = end_to_end(passes, setups, solved, attempted)
        declared = spec["end_to_end"]
    else:
        overhead = (statistics.median(p.solve_ref for p in passes if p.traced)
                    / statistics.median(p.solve_ref for p in passes if not p.traced)
                    - 1.0)
        metrics = layers.per_layer(tracer, [p for p in passes if p.traced], overhead,
                                   micro.run(args.seed), args.threads)
        summaries = {}
        declared = spec["per_layer"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(units):
        print(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} disagree with "
              "BENCHMARK.json", file=sys.stderr)
        return 2

    solves = [{"spec": s.spec, "solver": s.solver, "seconds": s.seconds,
               "status": s.status, "iterations": s.iterations, "eta": s.residual,
               "objective": s.objective, "traced": p.traced}
              for p in passes for s in p.solves]
    with open(OUT / f"{tag}.json", "w") as fh:
        json.dump({"args": vars(args), "environment": env, "metrics": metrics,
                   "summaries": summaries, "errors": errors, "solves": solves,
                   "solve_ref": [p.solve_ref for p in passes]},
                  fh, indent=1)
        fh.write("\n")

    print(f"environment: {json.dumps(env)}")
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    print(f"workload {workload.name}: {why}")
    print(f"passes: {len(passes)}; solves attempted {attempted}, failed {failed}, "
          f"solved {solved}")
    for err in errors:
        print(f"CHECK FAILED: {err}")
    for name in units:
        line = f"{name} = {metrics[name]:.6g} {units[name]}"
        if name in summaries:
            line += f" ({describe(summaries[name])})"
        print(line)
    for name, s in summaries.get("seconds", {}).items():
        print(f"raw {name}: {describe(s)}")
    correct = not errors
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": units[k]}
                                  for k in units}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
