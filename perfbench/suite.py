"""Workloads and the pass that runs one of them as ``cadmm bench`` would.

Each workload is a fixed list of base instances, each with its solvers.
A base instance is a ``family:size:seed`` spec for
``cadmm.cli.generate_problem``, or ``theta:size:seed:density`` for a
stable-set instance on a random graph of the given edge density (the CLI
fixes it at 0.3). The run seed does
not pick new random instances: it relabels the variables of each base
instance by a seeded permutation. A relabeled DNN-SDP is a different
input with the same optimum and the same difficulty, so a run's
iteration count is the same for every seed, while fresh random instances
of one family differ several-fold in iterations (cadmm on biq:80 with
generator seeds 1, 2, 3 took 2070, 7920 and 3069 iterations). The base
instances are small enough for a pass to take a few seconds, so that a
run holds a dozen passes or more.

One pass does what a ``cadmm bench`` user waits for: generate and
prepare each problem, run every solver on it, write one result document
per solve and both performance profiles. A pass times the reference
computation of ``reference.py`` before its first instance and after
each one, and divides each instance's times by the mean of the two
reference times around it: on a shared host the speed changes within a
pass, and an instance takes at most a second or so.
"""

from __future__ import annotations

import math
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from cadmm import cli, dnnsdp, io, problems
from cadmm.cones import ConePattern
from cadmm.dnnsdp import DnnSdpProblem, SolverConfig, TuningPolicy
from cadmm.linalg import SparseSymList, gram_factor

TOL = 1e-6
DEXT_TAU = 1.618
BOTH = ("cadmm", "dext")


@dataclass(frozen=True)
class Instance:
    spec: str
    solvers: tuple = ("cadmm",)
    max_iters: Optional[int] = None


@dataclass(frozen=True)
class Workload:
    name: str
    instances: tuple


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("psd_bound", (Instance("biq:48:2"),)),
    Workload("gram_bound", (Instance("theta:48:2:0.85"),)),
    Workload("mixed_families",
             (Instance("biq:14:5", BOTH), Instance("ebiq:8:2", BOTH),
              Instance("theta:14:1"), Instance("rcp:30:1", BOTH),
              Instance("fap:12:4", BOTH), Instance("qap:3:4"),
              Instance("fap:30:1", BOTH, max_iters=100))),
)}


def _relabel_list(a: SparseSymList, inv: np.ndarray) -> SparseSymList:
    rows = []
    for k in range(a.m):
        i, j, v = a.triples(k)
        pi, pj = inv[i], inv[j]
        rows.append((np.minimum(pi, pj), np.maximum(pi, pj), v))
    return SparseSymList(a.n, rows)


def relabel(prob: DnnSdpProblem, perm: np.ndarray) -> DnnSdpProblem:
    """The same problem with variable ``perm[p]`` renamed to ``p``.

    Constraint rows keep their order, so the Gram matrix is unchanged.
    Cached solver data in ``meta`` (keys starting with ``_``) is dropped.
    """
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size)
    ix = np.ix_(perm, perm)
    four = prob.A_I is not None
    return DnnSdpProblem(
        n=prob.n, C=prob.C[ix], A_E=_relabel_list(prob.A_E, inv),
        b_E=prob.b_E.copy(),
        A_I=_relabel_list(prob.A_I, inv) if four else None,
        b_I=prob.b_I.copy() if four else None,
        M=prob.M[ix], pattern=ConePattern(prob.pattern.kinds[ix]),
        meta={k: v for k, v in prob.meta.items() if not k.startswith("_")})


def base_problem(spec: str) -> DnnSdpProblem:
    parts = spec.split(":")
    if len(parts) == 4 and parts[0] == "theta":
        n, seed, density = int(parts[1]), int(parts[2]), float(parts[3])
        return problems.build_theta_plus(problems.random_graph(n, density, seed),
                                         name=f"theta{n}s{seed}d{parts[3]}")
    return cli.generate_problem(spec)


def permutations(workload: Workload, seed: int) -> dict:
    """The seeded relabeling of each base instance, by spec."""
    rng = np.random.default_rng(seed)
    sizes = {inst.spec: base_problem(inst.spec).n for inst in workload.instances}
    return {spec: rng.permutation(n) for spec, n in sizes.items()}


def sizes(workload: Workload) -> list:
    """The order n and Gram order m_E of each base instance."""
    probs = [base_problem(inst.spec) for inst in workload.instances]
    return [(p.n, p.A_E.m) for p in probs]


def generate(spec: str, perm: np.ndarray) -> DnnSdpProblem:
    return relabel(base_problem(spec), perm)


def prepare(prob: DnnSdpProblem) -> None:
    """Validation plus the operator set-up a solve would otherwise do on
    its first iteration."""
    prob.validate()
    gram_factor(prob.A_E)
    if prob.four_block:
        dnnsdp.cached_lambda_max(prob)


def setup_seconds(workload: Workload, perms: dict) -> float:
    """Wall time to generate and prepare every instance of the workload."""
    t0 = time.perf_counter()
    for inst in workload.instances:
        prepare(generate(inst.spec, perms[inst.spec]))
    return time.perf_counter() - t0


def solve(prob: DnnSdpProblem, solver: str, max_iters, callback=None):
    cfg = SolverConfig(tol=TOL, max_iters=max_iters)
    if solver == "cadmm":
        return dnnsdp.cadmm_solve(prob, cfg, TuningPolicy(), callback=callback)
    return dnnsdp.dext_solve(prob, cfg, tau=DEXT_TAU, policy=TuningPolicy(),
                             callback=callback)


@dataclass
class Solve:
    """What one solve call left behind, after its check. The problem and
    iterates are dropped so that memory does not grow with passes."""

    spec: str
    solver: str
    seconds: float
    status: str
    iterations: int
    residual: float
    restarts: int
    n: int
    m_E: int
    objective: Optional[float]
    errors: list
    sigma_changes: int = 0
    spans: tuple = (0, 0)   # index range of the solve's spans in the tracer


@dataclass
class Pass:
    setup_s: float = 0.0
    solve_s: float = 0.0
    total_s: float = 0.0   # wall time of the pass, reference timings excluded
    solve_ref: float = 0.0  # solve_s and total_s in reference units
    total_ref: float = 0.0
    solves: list = field(default_factory=list)
    traced: bool = False

    @property
    def iters(self) -> int:
        return sum(s.iterations for s in self.solves)


class _SigmaCounter:
    """Solve callback counting iterations whose sigma differs from the
    previous one's."""

    def __init__(self):
        self.last = None
        self.changes = 0

    def __call__(self, it, report):
        if self.last is not None and it.sigma != self.last:
            self.changes += 1
        self.last = it.sigma


def run_pass(workload: Workload, perms: dict, out_dir: Path, check, reference,
             tracer=None) -> Pass:
    """One timed pass, then ``check(spec, solver, prob, result)`` on
    every solve outside the timed region.

    The reference is timed before the first instance and after each one,
    outside the pass's times. With a tracer, spans are opened around each
    call into a layer and sigma changes are counted through the solve
    callback; without one, nothing but the clock is added. A solver exception is recorded as a
    failed solve and the pass goes on; the performance profiles are then
    skipped, since they need every (problem, solver) record. The profiles
    compare the solvers on the problems that all of them run.
    """

    def span(name):
        return tracer.span(name) if tracer is not None else nullcontext()

    out_dir.mkdir(parents=True, exist_ok=True)
    result = Pass(traced=tracer is not None)
    records, raw = [], []
    profiled = set()  # problems that every solver of the workload runs
    solvers = {s for inst in workload.instances for s in inst.solvers}
    refs = [reference.seconds()]
    paused = 0.0  # seconds spent timing the reference inside the pass
    t_pass = time.perf_counter()
    for inst in workload.instances:
        t0 = time.perf_counter()
        solve_s = 0.0
        with span("problems.generate"):
            prob = generate(inst.spec, perms[inst.spec])
        with span("bench.prepare"):
            prepare(prob)
        result.setup_s += time.perf_counter() - t0
        name = prob.meta.get("name", inst.spec)
        if set(inst.solvers) == solvers:
            profiled.add(name)
        for solver in inst.solvers:
            counter = _SigmaCounter() if tracer is not None else None
            lo = len(tracer.name_id) if tracer is not None else 0
            error = ""
            t1 = time.perf_counter()
            try:
                with span(f"dnnsdp.{solver}_solve"):
                    res = solve(prob, solver, inst.max_iters, callback=counter)
            except Exception:
                res, error = None, traceback.format_exc()
            t2 = time.perf_counter()
            solve_s += t2 - t1
            hi = len(tracer.name_id) if tracer is not None else 0
            raw.append((inst.spec, solver, prob, res, t2 - t1, error,
                        counter.changes if counter is not None else 0, (lo, hi)))
            if res is None:
                continue
            # io is looked up at call time, so a tracer's swap applies
            records.append(io.write_result(
                res, res.report, out_dir / f"{name}.{solver}.json",
                problem_name=name, solver_name=solver,
                config_echo={"tol": TOL, "max_iters": inst.max_iters,
                             "solver": solver}))
        t3 = time.perf_counter()
        refs.append(reference.seconds())
        paused += time.perf_counter() - t3
        scale = 0.5 * (refs[-2] + refs[-1])
        result.solve_s += solve_s
        result.solve_ref += solve_s / scale
        result.total_ref += (t3 - t0) / scale
    t4 = time.perf_counter()
    if len(records) == len(raw):
        compared = [r for r in records if r.problem in profiled]
        for metric in ("iterations", "time"):
            rows = io.emit_performance_profile(compared, metric=metric)
            io.write_profile_csv(rows, out_dir / f"profile_{metric}.csv")
    t5 = time.perf_counter()
    result.total_ref += (t5 - t4) / refs[-1]
    result.total_s = t5 - t_pass - paused

    for spec, solver, prob, res, seconds, error, changes, spans in raw:
        if res is None:
            result.solves.append(Solve(spec, solver, seconds, "Error", 0, math.inf, 0,
                                       prob.n, prob.A_E.m, None,
                                       [f"{spec} {solver}: raised\n{error}"],
                                       changes, spans))
            continue
        result.solves.append(Solve(
            spec, solver, seconds, res.status, res.iterations, res.residual,
            len(res.restarts), prob.n, prob.A_E.m,
            problems.family_objective(prob, res.x), check(spec, solver, prob, res),
            changes, spans))
    return result
