# -*- coding: utf-8 -*-

"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from cadmm import engine
from cadmm.cli import main as cli_main
from cadmm.dnnsdp import (SolveOperands, SolverConfig, TuningPolicy, cadmm_solve,
                          cadmm_step, cached_lambda_max, initial_iterate,
                          to_multiblock, update_S, update_Z, update_yE,
                          update_yI)
from cadmm.engine import build_theory_operators, solve
from cadmm.io import read_profile_csv, read_result
from cadmm.problems import (Graph, brute_force_biq, build_biq, build_ext_biq,
                            build_theta_plus, family_objective, random_biq,
                            random_fap, random_graph, random_rcp)

from conftest import assert_tau_law
from test_dnnsdp import random_state

REPO_ROOT = Path(__file__).resolve().parents[1]


def report(criterion, ok, detail=""):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}"
          + (f" - {detail}" if detail else ""))
    assert ok, f"criterion {criterion}: {detail}"


def w_concat(vals):
    return np.concatenate([np.asarray(v).ravel() for v in vals[1:]])


def dense_instances():
    """20 seeded dense problems with p in {3, 4, 5} and total dim <= 100."""
    from cadmm.toys import random_quadratic_toy
    specs = []
    for seed in range(20):
        p = 3 + seed % 3
        dims = [3 + (seed + i) % 5 for i in range(p)]
        x_dim = max(dims) + 2
        rho_blocks = (1,) if seed % 2 == 0 else (p - 2,)
        assert sum(dims) <= 100
        specs.append(random_quadratic_toy(dims, x_dim, seed=seed,
                                          rho_blocks=rho_blocks))
    return specs


class TestCriterion1And2:
    def test_correction_identity_and_positive_definiteness(self):
        t0 = time.perf_counter()
        worst_identity = 0.0
        min_gap = np.inf
        taus = []
        for toy in dense_instances():
            cfg = SolverConfig(tol=0.0, max_iters=60)
            ops = build_theory_operators(toy.problem, engine.ALPHA)
            g_sym = 0.5 * (ops.g + ops.g.T)
            min_gap = min(min_gap, float(np.linalg.eigvalsh(g_sym).min()))
            res = solve(toy.problem, cfg, record_history=True)
            taus.append(res.tau_history)
            for step in res.history:
                lhs = ops.h @ (w_concat(step["z_tilde"])
                               - w_concat(step["z_tilde_prev"]))
                rhs = engine.ALPHA * (w_concat(step["z"])
                                   - w_concat(step["z_tilde_prev"]))
                denom = 1.0 + np.linalg.norm(w_concat(step["z_tilde_prev"]))
                worst_identity = max(worst_identity,
                                     float(np.linalg.norm(lhs - rhs)) / denom)
        elapsed = time.perf_counter() - t0
        report("1", worst_identity <= 1e-9 and elapsed < 10.0,
               f"worst correction-identity residual {worst_identity:.2e} "
               f"over 20 instances in {elapsed:.1f}s")
        report("2", min_gap > 0.0,
               f"smallest eigenvalue of the correction operator {min_gap:.2e}")
        for th in taus:
            assert_tau_law(th)


class TestCriterion3:
    def test_step_size_law(self):
        checked = 0
        for prob, policy in [
            (build_biq(random_biq(15, 2)), TuningPolicy()),
            (build_theta_plus(random_graph(15, 0.3, 4)), TuningPolicy()),
            (random_rcp(12, 1), TuningPolicy.disabled()),
            (random_fap(9, 2), TuningPolicy()),
            (build_ext_biq(random_biq(10, 4)), TuningPolicy()),
        ]:
            res = cadmm_solve(prob, SolverConfig(tol=1e-6, max_iters=4000), policy)
            assert_tau_law(res.tau_history)
            checked += 1
        from cadmm.toys import random_quadratic_toy
        for seed in range(3):
            toy = random_quadratic_toy((3, 4, 5, 4), 7, seed=seed,
                                       rho_blocks=(1,))
            res = solve(toy.problem, SolverConfig(tol=1e-8, max_iters=3000))
            assert_tau_law(res.tau_history)
            checked += 1
        report("3", True, f"step-size law held on {checked} solves "
                          "(nonincreasing over the run, floor absorbing)")


class TestCriterion4:
    def test_specialized_equals_generic(self):
        worst = 0.0
        for seed, n in [(1, 15), (2, 12), (3, 15), (4, 10), (5, 13)]:
            prob = build_ext_biq(random_biq(n, seed))
            cfg = SolverConfig(tol=0.0, max_iters=200)
            gres = engine.solve(to_multiblock(prob), cfg, record_history=True)
            it, ops = initial_iterate(prob, cfg.sigma, engine.TAU0), SolveOperands(prob)
            for step in gres.history:
                it = cadmm_step(it, ops)
                for a, b in zip([it.yI, it.Z, it.yE, it.S], step["z"]):
                    worst = max(worst, float(np.max(np.abs(a - b))))
                worst = max(worst, float(np.max(np.abs(it.X - step["x"]))))
                worst = max(worst, abs(it.tau - step["tau"]))
        report("4", worst <= 1e-10,
               f"per-iterate deviation over 5 instances x 200 iterations: {worst:.2e}")


class TestCriterion5:
    def test_subproblem_oracles(self):
        from conftest import pg_oracle_S, pg_oracle_Z, pg_oracle_yI
        from conftest import dense_gram_independent
        worst = {"yI": 0.0, "Z": 0.0, "yE": 0.0, "S": 0.0}
        for seed in range(20):
            prob = build_ext_biq(random_biq(7, seed + 100))
            lam, ops = cached_lambda_max(prob), SolveOperands(prob)
            it = random_state(prob, seed)
            sig = it.sigma
            ops.at(sig)
            r1 = it.t_Z + prob.A_E.adjoint(it.t_yE) + it.S - prob.C
            got = update_yI(ops, it.X / sig, r1, it.yI, prob.A_I.adjoint(it.yI))
            oracle = pg_oracle_yI(prob, lam, it.X, r1, it.yI, sig)
            worst["yI"] = max(worst["yI"],
                              float(np.linalg.norm(got - oracle))
                              / (1 + np.linalg.norm(oracle)))

            adjI = prob.A_I.adjoint(got)
            r2 = adjI + prob.A_E.adjoint(it.t_yE) + it.S - prob.C
            got_z = update_Z(ops, it.X / sig, r2)
            oracle_z = pg_oracle_Z(prob, it.X, r2, sig)
            worst["Z"] = max(worst["Z"],
                             float(np.linalg.norm(got_z - oracle_z))
                             / (1 + np.linalg.norm(oracle_z)))

            r3 = adjI + got_z + it.S - prob.C
            got_ye = update_yE(ops, it.X / sig, r3)
            gram = dense_gram_independent(prob.A_E)
            rhs = prob.b_E / sig - prob.A_E.apply(it.X / sig + r3)
            oracle_ye = np.linalg.solve(gram, rhs)
            worst["yE"] = max(worst["yE"],
                              float(np.linalg.norm(got_ye - oracle_ye))
                              / (1 + np.linalg.norm(oracle_ye)))

            r4 = adjI + got_z + prob.A_E.adjoint(got_ye) - prob.C
            got_s, _ = update_S(ops, it.X / sig, r4, 0)
            oracle_s = pg_oracle_S(it.X, r4, sig, prob.n)
            worst["S"] = max(worst["S"],
                             float(np.linalg.norm(got_s - oracle_s))
                             / (1 + np.linalg.norm(oracle_s)))
        ok = all(v <= 1e-8 for v in worst.values())
        report("5", ok, "closed forms vs oracles, worst relative gaps: "
               + ", ".join(f"{k}={v:.1e}" for k, v in worst.items()))


class TestCriterion6:
    @pytest.mark.parametrize("name,prob", [
        ("biq n=20", build_biq(random_biq(20, 1))),
        ("theta G(20,0.3)", build_theta_plus(random_graph(20, 0.3, 1))),
        ("rcp n=20 kappa=2", random_rcp(20, 3)),
        ("fap 10 vertices", random_fap(10, 5)),
    ])
    def test_self_certified_convergence(self, name, prob):
        t0 = time.perf_counter()
        res = cadmm_solve(prob, SolverConfig(tol=1e-6, max_iters=20000))
        elapsed = time.perf_counter() - t0
        ok = (res.status == "Converged" and res.report.eta < 1e-6
              and elapsed < 60.0)
        assert_tau_law(res.tau_history)
        report("6", ok, f"{name}: {res.iterations} iterations, "
               f"eta {res.report.eta:.2e}, {elapsed:.1f}s")


class TestCriterion7:
    @pytest.mark.parametrize("n", [5, 10])
    def test_complete_graph(self, n):
        g = Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))
        res = cadmm_solve(build_theta_plus(g), SolverConfig(tol=1e-8))
        val = family_objective(build_theta_plus(g), res.x)
        ok = res.status == "Converged" and abs(val - 1.0) <= 1e-5
        report("7", ok, f"complete graph n={n}: value {val:.8f}")

    @pytest.mark.parametrize("n", [5, 10])
    def test_empty_graph(self, n):
        prob = build_theta_plus(Graph(n, ()))
        res = cadmm_solve(prob, SolverConfig(tol=1e-8))
        val = family_objective(prob, res.x)
        ok = res.status == "Converged" and abs(val - n) <= 1e-4 * n
        report("7", ok, f"empty graph n={n}: value {val:.6f}")


class TestCriterion8:
    def test_relaxation_bounds(self):
        worst_slack = -np.inf
        for seed in range(10):
            d = random_biq(10, seed + 200)
            prob = build_biq(d)
            res = cadmm_solve(prob, SolverConfig(tol=1e-7))
            assert res.status == "Converged"
            relax = family_objective(prob, res.x)
            exact = brute_force_biq(d)
            worst_slack = max(worst_slack, relax - exact)
        report("8", worst_slack <= 1e-5,
               f"10 instances, max (relaxation - exact) = {worst_slack:.2e}")


class TestCriterion9:
    def test_four_block_extended_biq(self):
        prob = build_ext_biq(random_biq(15, 9))
        mins = []

        def cb(it, rep):
            mins.append(float(it.yI.min()))

        t0 = time.perf_counter()
        res = cadmm_solve(prob, SolverConfig(tol=1e-6, max_iters=40000), callback=cb)
        elapsed = time.perf_counter() - t0
        comps = res.report.components()
        ok = (res.status == "Converged" and len(comps) == 10
              and all(v < 1e-6 for v in comps.values())
              and min(mins) >= 0.0)
        assert_tau_law(res.tau_history)
        report("9", ok, f"extended biq n=15: {res.iterations} iterations, "
               f"eta {res.report.eta:.2e}, min y_I {min(mins):.1e}, "
               f"{elapsed:.1f}s, all {len(comps)} components < 1e-6")


class TestCriterion10:
    def test_benchmark_profiles(self, tmp_path):
        manifest = {"problems": [
            {"name": "biq10a", "generate": "biq:10:1"},
            {"name": "biq10b", "generate": "biq:10:2"},
            {"name": "biq10c", "generate": "biq:10:3"},
            {"name": "theta10a", "generate": "theta:10:1"},
            {"name": "theta10b", "generate": "theta:10:2"},
            {"name": "rcp10a", "generate": "rcp:10:1"},
            {"name": "rcp10b", "generate": "rcp:10:2"},
            {"name": "fap8a", "generate": "fap:8:1"},
            {"name": "fap8b", "generate": "fap:8:2"},
            {"name": "qap3", "generate": "qap:3:1"},
        ]}
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(manifest))
        outdir = tmp_path / "bench"
        code = cli_main(["bench", "--manifest", str(mpath),
                         "--solvers", "cadmm,dext", "--out-dir", str(outdir)])
        assert code == 0
        recs = [read_result(outdir / f"{e['name']}.{s}.json")
                for e in manifest["problems"] for s in ("cadmm", "dext")]
        fractions = {}
        for solver in ("cadmm", "dext"):
            solved = sum(1 for r in recs
                         if r.solver == solver and r.status == "Converged")
            fractions[solver] = solved / len(manifest["problems"])
        ok = True
        for metric in ("iterations", "time"):
            rows = read_profile_csv(outdir / f"profile_{metric}.csv")
            for solver in ("cadmm", "dext"):
                ys = [y for (s, _, y) in rows if s == solver]
                ok &= all(b >= a for a, b in zip(ys, ys[1:]))
                ok &= ys[-1] == pytest.approx(fractions[solver])
        report("10", ok, f"profiles over 10 problems x 2 solvers valid; "
               f"solve fractions {fractions} (no superiority asserted)")


class TestCriterion11:
    def test_reference_rows_documented(self):
        readme = (REPO_ROOT / "README.md").read_text()
        anchors = ["theta4", "311", "1.84", "be100.1", "1670"]
        ok = all(a in readme for a in anchors) and "not reproducible" in readme
        report("11", ok,
               "reference iteration counts documented with a "
               "non-reproducibility note")
