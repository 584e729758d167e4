# -*- coding: utf-8 -*-

"""
Command-line driver: solve a single problem, benchmark a solver matrix
over a manifest, or run the built-in self checks.

Exit codes: 0 converged, 2 hit the iteration cap, 3 diverged, 1 error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys

import numpy as np

from . import dnnsdp, engine, io, problems
from .dnnsdp import SolverConfig, TuningPolicy, cadmm_solve, dext_solve
from .linalg import SparseSymList, lambda_max_gram, project_psd, symmetrize

EXIT_BY_STATUS = {engine.CONVERGED: 0, engine.MAX_ITERS: 2, engine.DIVERGED: 3}
SOLVERS = ("cadmm", "dext")


# family: (smallest size, builder of (size, seed, name)). The smallest
# size is the generator's: ebiq needs three variables for its first
# inequality row, rcp a point in each of its two clusters, and fap the two
# ends of an edge.
FAMILIES = {
    "biq": (1, lambda n, seed, name: problems.build_biq(problems.random_biq(n, seed),
                                                        name=name)),
    "ebiq": (3, lambda n, seed, name: problems.build_ext_biq(problems.random_biq(n, seed),
                                                             name=name)),
    "theta": (1, lambda n, seed, name: problems.build_theta_plus(
        problems.random_graph(n, 0.3, seed), name=name)),
    "rcp": (2, lambda n, seed, name: problems.random_rcp(n, seed)),
    "fap": (2, lambda n, seed, name: problems.random_fap(n, seed)),
    "qap": (1, lambda n, seed, name: problems.random_qap(n, seed)),
}


def generate_problem(spec: str) -> dnnsdp.DnnSdpProblem:
    """Build a seeded instance from a "family:size:seed" spec string, or a
    theta instance at edge density d in (0, 1] from "theta:size:seed:d"."""
    parts = spec.split(":")
    density_text = parts.pop() if len(parts) == 4 and parts[0] == "theta" else None
    try:
        family, size_s, seed_s = parts
        n, seed = int(size_s), int(seed_s)
    except ValueError:
        raise ValueError(f"generate spec must be family:size:seed or "
                         f"theta:size:seed:density, with an integer size and seed, "
                         f"got {spec!r}") from None
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r} "
                         f"(expected biq, ebiq, theta, rcp, fap or qap)")
    smallest, build = FAMILIES[family]
    if n < smallest:
        raise ValueError(f"generate spec {spec!r}: family {family} needs a size of "
                         f"at least {smallest}, got {n}")
    if density_text is not None:
        try:
            density = float(density_text)
        except ValueError:
            density = math.nan
        if not 0.0 < density <= 1.0:
            raise ValueError(f"generate spec {spec!r}: density must be in (0, 1], "
                             f"got {density_text!r}")
        return problems.build_theta_plus(problems.random_graph(n, density, seed),
                                         name=f"theta{n}s{seed}d{density_text}")
    try:
        return build(n, seed, f"{family}{n}s{seed}")
    except ValueError as exc:
        raise ValueError(f"generate spec {spec!r}: {exc}") from exc


def _settings_from_args(args) -> tuple:
    """``(config, policy)`` of solve and bench, with every setting checked;
    settings the subcommand has no flag for keep their defaults."""
    dnnsdp.check_tau(args.tau)
    cfg = SolverConfig(**{f.name: getattr(args, f.name)
                          for f in dataclasses.fields(SolverConfig)
                          if hasattr(args, f.name)})
    return cfg, TuningPolicy(check_period=args.check_period)


def _run_one(prob, name: str, solver: str, cfg: SolverConfig, policy: TuningPolicy,
             tau: float, out):
    """Solve and print the summary line. With ``out`` given, also write the
    result document; its ``config`` records the run settings."""
    if solver == "cadmm":
        result = cadmm_solve(prob, cfg, policy)
    else:
        result = dext_solve(prob, cfg, tau=tau, policy=policy)
    echo = {**dataclasses.asdict(cfg), "solver": solver, "tau": tau,
            "policy": dataclasses.asdict(policy)}
    rec = (io.write_result(result, result.report, out, problem_name=name,
                           solver_name=solver, config_echo=echo) if out
           else io.record_from_result(name, solver, result))
    print(rec.summary_line())
    return result, rec


def cmd_solve(args) -> int:
    cfg, policy = _settings_from_args(args)
    prob = io.read_problem(args.problem) if args.problem else generate_problem(args.generate)
    name = prob.meta.get("name", args.problem or args.generate)
    result, _ = _run_one(prob, name, args.solver, cfg, policy, args.tau, args.out)
    if result.message:
        print(result.message, file=sys.stderr)
    return EXIT_BY_STATUS[result.status]


def cmd_bench(args) -> int:
    cfg, policy = _settings_from_args(args)
    manifest = io.read_json(args.manifest, "manifest ")
    where = f"manifest {args.manifest}"
    if not isinstance(manifest, dict) or "problems" not in manifest:
        raise ValueError(f"{where}: missing key 'problems'")
    for key in ("problems", "solvers"):
        if not isinstance(manifest.get(key, []), list):
            raise ValueError(f"{where}: {key!r} must be a list")
    # every solver name and problem is checked before any solve starts
    solvers = (args.solvers.split(",") if args.solvers
               else manifest.get("solvers", list(SOLVERS)))
    for i, solver in enumerate(solvers):
        if solver not in SOLVERS:
            raise ValueError(f"unknown solver {solver!r} (expected cadmm or dext)")
        if solver in solvers[:i]:
            raise ValueError(f"solver {solver!r} is listed twice")
    loaded = {}
    for i, entry in enumerate(manifest["problems"]):
        if not isinstance(entry, dict) or not {"generate", "path"} & entry.keys():
            raise ValueError(f"{where}: problem {i} needs a 'generate' or a 'path' key")
        for key in ("generate", "path"):
            if not isinstance(entry.get(key, ""), str):
                raise ValueError(f"{where}: problem {i}: {key!r} must be a string, "
                                 f"got {entry[key]!r}")
        prob = (generate_problem(entry["generate"]) if "generate" in entry
                else io.read_problem(entry["path"]))
        name = entry.get("name", prob.meta.get("name", "problem"))
        if not isinstance(name, str):
            raise ValueError(f"{where}: problem {i}: 'name' must be a string, got {name!r}")
        if name in ("", ".", "..") or {os.sep, os.altsep} & set(name):
            raise ValueError(f"{where}: problem {i}: 'name' must be a plain file name, "
                             f"got {name!r}")
        if name in loaded:
            raise ValueError(f"{where}: problem {i} repeats the name {name!r}")
        loaded[name] = prob
    os.makedirs(args.out_dir, exist_ok=True)
    records = []
    for name, prob in loaded.items():
        for solver in solvers:
            out = os.path.join(args.out_dir, f"{name}.{solver}.json")
            records.append(_run_one(prob, name, solver, cfg, policy, args.tau, out)[1])
    for metric in ("iterations", "time"):
        rows = io.emit_performance_profile(records, metric=metric)
        io.write_profile_csv(rows, os.path.join(args.out_dir, f"profile_{metric}.csv"))
    print(f"wrote {len(records)} records and 2 profiles to {args.out_dir}")
    return 0


def _check(name: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name} ({detail})")
    return ok


def cmd_check(args) -> int:
    rng = np.random.default_rng(args.seed)
    ok = True

    # adjoint identity on a random constraint collection
    n, m = 8, 6
    rows = []
    for _ in range(m):
        k = int(rng.integers(2, 6))
        i = rng.integers(0, n, size=k)
        j = rng.integers(0, n, size=k)
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        flat = lo * n + hi
        _, keep = np.unique(flat, return_index=True)
        rows.append((lo[keep], hi[keep], rng.standard_normal(keep.size)))
    a = SparseSymList(n, rows)
    worst = 0.0
    for _ in range(100):
        u = symmetrize(rng.standard_normal((n, n)))
        v = rng.standard_normal(m)
        lhs = float(a.apply(u) @ v)
        rhs = float(np.vdot(u, a.adjoint(v)))
        worst = max(worst, abs(lhs - rhs) /
                    (np.linalg.norm(u) * np.linalg.norm(v)))
    ok &= _check("adjoint identity", worst <= 1e-12, f"worst {worst:.2e}")

    # PSD projection: idempotent and Moreau decomposition
    x = symmetrize(rng.standard_normal((7, 7)))
    px = project_psd(x)
    moreau = np.linalg.norm(x - (px - project_psd(-x)))
    idem = np.linalg.norm(project_psd(px) - px)
    ok &= _check("psd projection Moreau + idempotent",
                 moreau <= 1e-10 and idem <= 1e-10,
                 f"moreau {moreau:.2e} idem {idem:.2e}")

    # power iteration vs dense Gram eigensolve
    lam = lambda_max_gram(a)
    dense = float(np.linalg.eigvalsh(a.gram()).max()) * (1.0 + 1e-6)
    rel = abs(lam - dense) / dense
    ok &= _check("gram spectral bound", rel <= 1e-6, f"rel {rel:.2e}")

    # correction identity and positive definiteness on a dense toy run
    from . import toys
    toy = toys.random_quadratic_toy((3, 4, 5, 4), 6, seed=args.seed,
                                    rho_blocks=(1,))
    ops = engine.build_theory_operators(toy.problem, engine.ALPHA)
    gmin = float(np.linalg.eigvalsh(0.5 * (ops.g + ops.g.T)).min())
    res = engine.solve(toy.problem, SolverConfig(tol=0.0, max_iters=60),
                       record_history=True)
    worst_id = 0.0
    for step in res.history:
        w_new = np.concatenate([v.ravel() for v in step["z_tilde"][1:]])
        w_old = np.concatenate([v.ravel() for v in step["z_tilde_prev"][1:]])
        w_pred = np.concatenate([v.ravel() for v in step["z"][1:]])
        lhs = ops.h @ (w_new - w_old)
        rhs = engine.ALPHA * (w_pred - w_old)
        worst_id = max(worst_id, float(np.linalg.norm(lhs - rhs)) /
                       (1.0 + float(np.linalg.norm(w_old))))
    ok &= _check("correction identity", worst_id <= 1e-9, f"worst {worst_id:.2e}")
    ok &= _check("correction operator positive definite", gmin > 0.0,
                 f"min eig {gmin:.2e}")

    # subproblem closed forms vs a projected-gradient pass on one instance
    prob = generate_problem(f"ebiq:8:{args.seed}")
    ops = dnnsdp.SolveOperands(prob)
    lamI = ops.lam
    it = dnnsdp.initial_iterate(prob, sigma=1.0, tau0=engine.TAU0)
    it.X = symmetrize(rng.standard_normal((prob.n, prob.n)))
    r1 = it.t_Z + prob.A_E.adjoint(it.t_yE) + it.S - prob.C
    y_closed = dnnsdp.update_yI(ops.at(1.0), it.X, r1, it.yI, prob.A_I.adjoint(it.yI))
    y = np.zeros(prob.A_I.m)
    step = 0.4 / lamI
    for _ in range(400):
        grad = (-prob.b_I + prob.A_I.apply(it.X)
                + prob.A_I.apply(prob.A_I.adjoint(y) + r1)
                + (lamI * (y - it.yI) - prob.A_I.apply(prob.A_I.adjoint(y - it.yI))))
        y = np.maximum(y - step * grad, 0.0)
    gap = float(np.linalg.norm(y - y_closed))
    ok &= _check("inequality-block closed form", gap <= 1e-8, f"gap {gap:.2e}")

    # end-to-end tiny solve with self-certifying residuals
    small = generate_problem(f"biq:10:{args.seed}")
    res2 = cadmm_solve(small, SolverConfig(tol=1e-6))
    ok &= _check("end-to-end certificate", res2.status == engine.CONVERGED
                 and res2.report.eta < 1e-6,
                 f"iters {res2.iterations} eta {res2.report.eta:.2e}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cadmm",
        description="Corrected multi-block ADMM for doubly nonnegative SDPs")
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = SolverConfig()
    check_period = dict(type=int, default=TuningPolicy().check_period, metavar="N",
                        help="iterations between sigma checks, 0 keeps sigma fixed "
                             "(default %(default)s)")

    ps = sub.add_parser("solve", help="solve one problem")
    source = ps.add_mutually_exclusive_group(required=True)
    source.add_argument("--problem", help="path to a problem document")
    source.add_argument("--generate",
                        help="instance spec family:size:seed, or theta:size:seed:density "
                             "for theta at an edge density in (0, 1]")
    ps.add_argument("--solver", choices=SOLVERS, default="cadmm")
    ps.add_argument("--tau", type=float, default=dnnsdp.DEXT_TAU,
                    help="fixed multiplier step for dext")
    ps.add_argument("--sigma", type=float, default=defaults.sigma)
    ps.add_argument("--tol", type=float, default=defaults.tol)
    ps.add_argument("--max-iters", type=int, default=None)
    ps.add_argument("--check-period", **check_period)
    ps.add_argument("--out", help="write the result document here")
    ps.set_defaults(func=cmd_solve)

    pb = sub.add_parser("bench", help="run a solver matrix over a manifest")
    pb.add_argument("--manifest", required=True,
                    help='JSON manifest {"problems": [{"generate"|"path", "name"}]}')
    pb.add_argument("--solvers", help="comma-separated subset of cadmm,dext")
    pb.add_argument("--tau", type=float, default=dnnsdp.DEXT_TAU)
    pb.add_argument("--tol", type=float, default=defaults.tol)
    pb.add_argument("--max-iters", type=int, default=None)
    pb.add_argument("--check-period", **check_period)
    pb.add_argument("--out-dir", default="bench_out")
    pb.set_defaults(func=cmd_bench)

    pc = sub.add_parser("check", help="run the built-in invariant checks")
    pc.add_argument("--seed", type=int, default=0)
    pc.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
