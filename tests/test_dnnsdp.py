# -*- coding: utf-8 -*-

import dataclasses
import functools
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from cadmm import dnnsdp, engine, linalg
from cadmm.cli import generate_problem
from cadmm.cones import (ConePattern, project_pattern, project_pattern_dual,
                         project_pattern_unchecked)
from cadmm.dnnsdp import (SIGMA_MAX, SIGMA_MIN, DnnSdpProblem, ResidualReport,
                          SolveOperands, SolverConfig, TuningPolicy,
                          cached_lambda_max,
                          cadmm_solve, cadmm_step, dext_solve, dext_step,
                          initial_iterate, objective_values, residuals,
                          to_multiblock, tune_sigma, update_S, update_Z,
                          update_yE, update_yI)
from cadmm.io import write_problem
from cadmm.linalg import (GramSingularError, SparseSymList,
                          gram_factor, gram_solve, gram_solve_unchecked, lambda_max_gram,
                          project_psd, project_psd_unchecked, symmetrize)
from cadmm.problems import (BiqData, build_biq, build_ext_biq, build_theta_plus,
                            random_biq, random_fap, random_graph, random_rcp)

from conftest import (assert_tau_law, dense_gram_independent, pg_oracle_S,
                      pg_oracle_Z, pg_oracle_yI, random_sym)

ROOT = Path(__file__).resolve().parent.parent


def exact_kkt_instance():
    """Order-2 instance with a hand-checked KKT tuple: the one-variable
    binary problem whose relaxation is tight at x = 1."""
    prob = build_biq(BiqData(Q=np.zeros((1, 1)), c=np.array([-1.0])))
    it = initial_iterate(prob, sigma=1.0, tau0=1.95)
    it.X = np.array([[1.0, 1.0], [1.0, 1.0]])
    it.S = np.array([[1.0, -1.0], [-1.0, 1.0]])
    it.yE = np.array([-1.0, -1.0])
    it.Z = np.zeros((2, 2))
    it.t_Z, it.t_yE = it.Z.copy(), it.yE.copy()
    return prob, it


def random_four_block(seed, n=8):
    return build_ext_biq(random_biq(n, seed))


def operands_of_order(n):
    """The operands of a problem of order n, for the S update, which
    reads only their PSD projection."""
    return SolveOperands(build_biq(random_biq(n - 1, 1)))


def random_state(prob, seed):
    rng = np.random.default_rng(seed)
    it = initial_iterate(prob, sigma=float(rng.uniform(0.5, 2.0)), tau0=1.95)
    n = prob.n
    it.X = random_sym(rng, n)
    s = rng.standard_normal((n, n))
    it.S = s @ s.T / n
    it.t_Z = project_pattern_dual(random_sym(rng, n), prob.pattern)
    it.Z = it.t_Z.copy()
    it.t_yE = rng.standard_normal(prob.A_E.m)
    it.yE = it.t_yE.copy()
    if prob.four_block:
        it.yI = np.abs(rng.standard_normal(prob.A_I.m))
    return it


class TestSubproblemUpdates:
    def test_yI_inactive_projection(self):
        prob = random_four_block(1, n=6)
        lam = cached_lambda_max(prob)
        m_i = prob.A_I.m
        # choose b_I large enough that the unconstrained minimizer is
        # already nonnegative, so the projection is inactive
        b_pos = np.abs(prob.A_I.apply(prob.C)) + 1.0
        prob_pos = DnnSdpProblem(n=prob.n, C=prob.C, A_E=prob.A_E, b_E=prob.b_E,
                                 A_I=prob.A_I, b_I=b_pos, pattern=prob.pattern)
        zero = np.zeros((prob.n, prob.n))
        r = zero - prob.C
        got = update_yI(SolveOperands(prob_pos).at(1.0), zero, r, np.zeros(m_i), zero)
        # with x = 0, center = 0 and r = -C the shifted point is
        # (b_I/sigma + A_I C)/lam elementwise, positive by construction
        expect = (b_pos / 1.0 + prob.A_I.apply(prob.C)) / lam
        assert (expect > 0).all()
        assert np.allclose(got, expect, atol=1e-12)

    def test_yI_strongly_negative_data_projects_to_zero(self):
        prob = random_four_block(2, n=6)
        lam = cached_lambda_max(prob)
        b_neg = -np.abs(prob.b_I) - 10.0 * lam
        prob_neg = DnnSdpProblem(n=prob.n, C=prob.C * 0, A_E=prob.A_E, b_E=prob.b_E,
                                 A_I=prob.A_I, b_I=b_neg, pattern=prob.pattern)
        zero = np.zeros((prob.n, prob.n))
        got = update_yI(SolveOperands(prob_neg).at(1.0), zero, zero, np.zeros(prob.A_I.m),
                        zero)
        assert np.allclose(got, 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_yI_matches_projected_gradient(self, seed):
        prob = random_four_block(seed + 10, n=7)
        lam = cached_lambda_max(prob)
        it = random_state(prob, seed)
        r = it.t_Z + prob.A_E.adjoint(it.t_yE) + it.S - prob.C
        got = update_yI(SolveOperands(prob).at(it.sigma), it.X / it.sigma, r, it.yI,
                        prob.A_I.adjoint(it.yI))
        oracle = pg_oracle_yI(prob, lam, it.X, r, it.yI, it.sigma)
        assert np.linalg.norm(got - oracle) <= 1e-8 * (1 + np.linalg.norm(oracle))

    def test_Z_all_free_pattern_gives_zero(self, rng):
        prob = build_theta_plus(random_graph(6, 0.4, 3))
        free = DnnSdpProblem(n=prob.n, C=prob.C, A_E=prob.A_E, b_E=prob.b_E,
                             pattern=ConePattern.all_free(prob.n))
        out = update_Z(SolveOperands(free).at(1.3), random_sym(rng, 6) / 1.3,
                       random_sym(rng, 6))
        assert np.allclose(out, 0.0)

    def test_Z_projecting_the_origin(self, rng):
        prob = build_theta_plus(random_graph(6, 0.4, 3))
        x = random_sym(rng, 6)
        r = (prob.M - x) / 2.0  # sigma = 2 makes M/sigma - X/sigma - r = 0
        assert np.allclose(update_Z(SolveOperands(prob).at(2.0), x / 2.0, r), 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_Z_matches_projected_gradient(self, seed):
        prob = random_fap(7, seed + 1)
        it = random_state(prob, seed)
        r = prob.A_E.adjoint(it.t_yE) + it.S - prob.C
        got = update_Z(SolveOperands(prob).at(it.sigma), it.X / it.sigma, r)
        oracle = pg_oracle_Z(prob, it.X, r, it.sigma)
        assert np.linalg.norm(got - oracle) <= 1e-8 * (1 + np.linalg.norm(oracle))

    @pytest.mark.parametrize("spec, zeros", [("biq:8:1", False), ("theta:10:1", False),
                                             ("fap:8:1", True)])
    def test_dual_projection_keeps_the_bits_of_the_clipped_one(self, rng, spec, zeros):
        # without a Zero entry in the dual pattern the operands leave out
        # the min with +inf; NaN, signed zeros and infinities keep their bits
        prob = generate_problem(spec)
        bounds = prob.pattern.dual().bounds()
        assert bool((bounds[1] == 0.0).any()) == zeros
        special = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf])
        project = SolveOperands(prob).project_dual
        for _ in range(10):
            x = random_sym(rng, prob.n)
            x.flat[rng.choice(x.size, x.size // 2, replace=False)] = rng.choice(
                special, x.size // 2)
            got, want = project(x), project_pattern_unchecked(x, bounds)
            assert got.tobytes() == want.tobytes()
            assert got.dtype == want.dtype and got.shape == want.shape

    def test_yE_zero_case(self):
        prob = build_biq(random_biq(5, 4))
        zero_b = DnnSdpProblem(n=prob.n, C=prob.C, A_E=prob.A_E,
                               b_E=np.zeros(prob.A_E.m), pattern=prob.pattern)
        n = prob.n
        got = update_yE(SolveOperands(zero_b).at(1.0), np.zeros((n, n)), np.zeros((n, n)))
        assert np.allclose(got, 0.0)

    def test_yE_orthonormal_rows(self, rng):
        rows = [([0], [0], [1.0]), ([0], [1], [1.0 / np.sqrt(2)])]
        a = SparseSymList(2, rows)
        prob = DnnSdpProblem(n=2, C=np.zeros((2, 2)), A_E=a, b_E=np.zeros(2))
        x = random_sym(rng, 2)
        r = random_sym(rng, 2)
        got = update_yE(SolveOperands(prob).at(1.5), x / 1.5, r)
        rhs = prob.b_E / 1.5 - a.apply(x / 1.5 + r)
        assert np.allclose(got, rhs, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_yE_gradient_vanishes(self, seed):
        prob = build_biq(random_biq(6, seed + 20))
        it = random_state(prob, seed)
        r = it.Z + it.S - prob.C
        y = update_yE(SolveOperands(prob).at(it.sigma), it.X / it.sigma, r)
        # gradient of the literal objective -b'y + <X, A*y> + sigma/2||A*y + r||^2
        grad = (-prob.b_E + prob.A_E.apply(it.X)
                + it.sigma * prob.A_E.apply(prob.A_E.adjoint(y) + r))
        assert np.linalg.norm(grad) <= 1e-10 * (1 + np.linalg.norm(prob.b_E))

    def test_yE_matches_independent_dense_solve(self, seed=3):
        prob = build_biq(random_biq(6, seed))
        it = random_state(prob, seed)
        r = it.Z + it.S - prob.C
        y = update_yE(SolveOperands(prob).at(it.sigma), it.X / it.sigma, r)
        gram = dense_gram_independent(prob.A_E)
        rhs = prob.b_E / it.sigma - prob.A_E.apply(it.X / it.sigma + r)
        expect = np.linalg.solve(gram, rhs)
        assert np.linalg.norm(y - expect) <= 1e-10 * (1 + np.linalg.norm(expect))

    def test_S_already_psd(self, rng):
        s = rng.standard_normal((6, 6))
        target = s @ s.T / 6
        x = np.zeros((6, 6))
        got, _ = update_S(operands_of_order(6), x, -target, 0)  # r = -target: a psd argument
        assert np.linalg.norm(got - target) <= 1e-12

    def test_S_negative_definite_argument(self):
        n = 5
        got, _ = update_S(operands_of_order(n), np.zeros((n, n)), np.eye(n), 0)  # argument = -I
        assert np.allclose(got, 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_S_matches_projected_gradient(self, seed):
        prob = build_biq(random_biq(6, seed + 30))
        it = random_state(prob, seed)
        r = it.Z + prob.A_E.adjoint(it.yE) - prob.C
        got, _ = update_S(SolveOperands(prob), it.X / it.sigma, r, 0)
        oracle = pg_oracle_S(it.X, r, it.sigma, prob.n)
        assert np.linalg.norm(got - oracle) <= 1e-8 * (1 + np.linalg.norm(oracle))


class TestCadmmStep:
    def test_fixed_point_at_exact_kkt(self):
        prob, it = exact_kkt_instance()
        out = cadmm_step(it, SolveOperands(prob))
        for a, b in [(out.Z, it.Z), (out.yE, it.yE), (out.S, it.S), (out.X, it.X),
                     (out.t_Z, it.t_Z), (out.t_yE, it.t_yE)]:
            assert np.linalg.norm(np.asarray(a) - np.asarray(b)) <= 1e-12

    def test_residuals_vanish_at_exact_kkt(self):
        prob, it = exact_kkt_instance()
        rep = residuals(it, prob)
        assert rep.eta <= 1e-10
        assert abs(rep.eta_g) <= 1e-10

    def test_iterate_has_no_first_or_last_block_centres(self):
        # yI and S are their own centres; a slotted iterate refuses a
        # stray centre instead of keeping an attribute nothing reads
        it = random_state(random_four_block(5, n=5), 5)
        with pytest.raises(AttributeError):
            it.t_S = it.S.copy()

    def test_correction_recursion_uses_corrected_base(self):
        # the corrected Z update must recurse from the corrected point, not
        # from the previous prediction
        prob = random_four_block(6, n=7)
        it = random_state(prob, 6)
        it.Z = it.t_Z + 0.3 * random_sym(np.random.default_rng(0), prob.n)
        out = cadmm_step(it, SolveOperands(prob))
        d_s = out.S - it.S
        d_ye = prob.A_E.adjoint(out.t_yE - it.t_yE)
        expect = it.t_Z + engine.ALPHA * (out.Z - it.t_Z) - (d_ye + d_s)
        assert np.linalg.norm(out.t_Z - expect) <= 1e-12
        wrong_base = it.Z + engine.ALPHA * (out.Z - it.Z) - (d_ye + d_s)
        assert np.linalg.norm(out.t_Z - wrong_base) > 1e-6

    def test_correction_matches_generic_formula(self):
        prob = random_four_block(7, n=7)
        it = random_state(prob, 7)
        out = cadmm_step(it, SolveOperands(prob))
        expect_ye = (it.t_yE + engine.ALPHA * (out.yE - it.t_yE)
                     - gram_solve(prob.A_E, prob.A_E.apply(out.S - it.S)))
        assert np.linalg.norm(out.t_yE - expect_ye) <= 1e-12


GENERIC_CASES = [
    (lambda s: build_biq(random_biq(8, s)), 1),
    (lambda s: random_fap(7, s), 2),
    (lambda s: build_ext_biq(random_biq(8, s)), 3),
]


class TestGenericEquivalence:
    @pytest.mark.parametrize("builder,seed", GENERIC_CASES)
    def test_trajectories_agree(self, builder, seed):
        prob = builder(seed)
        iters = 40
        cfg = SolverConfig(tol=0.0, max_iters=iters)
        gres = engine.solve(to_multiblock(prob), cfg, record_history=True)
        it, ops = initial_iterate(prob, cfg.sigma, engine.TAU0), SolveOperands(prob)
        for step in gres.history:
            it = cadmm_step(it, ops)
            if prob.four_block:
                spec_vals = [it.yI, it.Z, it.yE, it.S]
            else:
                spec_vals = [it.Z, it.yE, it.S]
            for a, b in zip(spec_vals, step["z"]):
                assert np.max(np.abs(a - b)) <= 1e-10
            assert np.max(np.abs(it.X - step["x"])) <= 1e-10
            assert abs(it.tau - step["tau"]) <= 1e-12

    @pytest.mark.parametrize("builder,seed", GENERIC_CASES)
    def test_direct_extended_trajectories_agree(self, builder, seed):
        prob = builder(seed)
        mb = to_multiblock(prob)
        cfg = SolverConfig(tol=0.0)
        it, ops = initial_iterate(prob, cfg.sigma, engine.TAU0), SolveOperands(prob)
        for k in (10, 20, 30, 40):
            while it.k < k:
                it = dext_step(it, ops, 1.618)
            gres = engine.solve_direct_extended(
                mb, dataclasses.replace(cfg, max_iters=k), tau=1.618)
            assert gres.iterations == k
            spec_vals = [it.Z, it.yE, it.S]
            if prob.four_block:
                spec_vals.insert(0, it.yI)
            for a, b in zip(spec_vals, gres.z):
                assert np.max(np.abs(a - b)) <= 1e-10
            assert np.max(np.abs(it.X - gres.x)) <= 1e-10


class TestResiduals:
    def test_single_violated_row(self):
        # one unit-norm equality row violated by 0.5 with zero right-hand side
        a = SparseSymList(2, [([0], [0], [1.0])])
        prob = DnnSdpProblem(n=2, C=np.zeros((2, 2)), A_E=a, b_E=np.zeros(1))
        it = initial_iterate(prob, 1.0, 1.95)
        it.X = np.array([[0.5, 0.0], [0.0, 0.0]])
        rep = residuals(it, prob)
        assert rep.eta_P == pytest.approx(0.5)

    def test_matches_independent_reimplementation(self):
        # literal recomputation of every component, coded separately; the
        # fap states have a shift M != 0 and no inequality block
        cases = [(random_four_block(seed + 40, n=6), seed + 40) for seed in range(4)]
        cases += [(random_fap(7, seed), seed) for seed in (1, 2)]
        for prob, seed in cases:
            it = random_state(prob, seed)
            rep = residuals(it, prob)
            X, S, Z, yE, yI = it.X, it.S, it.Z, it.yE, it.yI
            C, M, pat = prob.C, prob.M, prob.pattern
            nx, ns, nz = (np.linalg.norm(X), np.linalg.norm(S), np.linalg.norm(Z))
            dual_map = Z + prob.A_E.adjoint(yE) + S - C
            dual_obj = prob.b_E @ yE + np.vdot(M, Z)
            if prob.four_block:
                dual_map = dual_map + prob.A_I.adjoint(yI)
                dual_obj = dual_obj + prob.b_I @ yI
            exp = {
                "eta_P": np.linalg.norm(prob.A_E.apply(X) - prob.b_E)
                / (1 + np.linalg.norm(prob.b_E)),
                "eta_D": np.linalg.norm(dual_map) / (1 + np.linalg.norm(C)),
                "eta_S": np.linalg.norm(project_psd(-X)) / (1 + nx),
                "eta_K": np.linalg.norm((X - M) - project_pattern(X - M, pat))
                / (1 + nx),
                "eta_Sstar": np.linalg.norm(project_psd(-S)) / (1 + ns),
                "eta_Kstar": np.linalg.norm(Z - project_pattern_dual(Z, pat))
                / (1 + nz),
                "eta_C1": abs(np.vdot(X, S)) / (1 + nx + ns),
                "eta_C2": abs(np.vdot(X - M, Z)) / (1 + nx + nz),
            }
            if prob.four_block:
                exp["eta_I"] = np.linalg.norm(
                    np.maximum(0.0, prob.b_I - prob.A_I.apply(X))) / (
                    1 + np.linalg.norm(prob.b_I))
                exp["eta_Istar"] = np.linalg.norm(np.maximum(0.0, -yI)) / (
                    1 + np.linalg.norm(yI))
            got = rep.components()
            assert got.keys() == exp.keys()
            for key, val in exp.items():
                assert got[key] == pytest.approx(val, rel=1e-10, abs=1e-14), key
            cx = np.vdot(C, X)
            gap = (cx - dual_obj) / (1 + abs(cx + dual_obj))
            assert rep.eta_g == pytest.approx(gap, rel=1e-12)

    def test_three_block_has_no_inequality_components(self):
        prob = build_biq(random_biq(4, 2))
        it = initial_iterate(prob, 1.0, 1.95)
        rep = residuals(it, prob)
        assert rep.eta_I is None
        assert "eta_I" not in rep.components()
        assert len(rep.components()) == 8

    def test_eta_is_max_of_components(self):
        prob = random_four_block(41, n=6)
        it = random_state(prob, 41)
        rep = residuals(it, prob)
        assert rep.eta == max(rep.components().values())

    def test_one_psd_projection_per_iteration(self, monkeypatch):
        # the S update projects; the certificate takes eigenvalues only
        calls = []

        def counted(m, negatives):
            calls.append(m.shape)
            return project_psd_unchecked(m, negatives)

        monkeypatch.setattr(dnnsdp, "project_psd_unchecked", counted)
        prob = build_biq(random_biq(6, 3))
        assert not prob.four_block
        it = cadmm_step(random_state(prob, 3), SolveOperands(prob))
        residuals(it, prob)
        assert calls == [(prob.n, prob.n)]


class TestConstraintMapsInTheLoop:
    """The loop applies A and A* through the entry arrays and reuses the
    adjoints the previous sweep computed."""

    def test_no_scipy_sparse_on_import(self):
        # the collections keep no sparse matrix, so scipy.sparse is not
        # even loaded
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        code = ("import sys, cadmm, cadmm.cli, cadmm.toys; "
                "print(sorted(m for m in sys.modules if m.startswith('scipy.sparse')))")
        proc = subprocess.run([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    @pytest.mark.parametrize("seed", range(3))
    def test_cached_adjoints_change_nothing(self, seed):
        prob = random_four_block(seed + 30, n=7)
        ops = SolveOperands(prob)
        bare = random_state(prob, seed)
        assert bare.adj_yI is None and bare.adj_t_yE is None
        cached = dataclasses.replace(bare, adj_yI=prob.A_I.adjoint(bare.yI),
                                     adj_t_yE=prob.A_E.adjoint(bare.t_yE))
        fields = [f.name for f in dataclasses.fields(dnnsdp.DnnSdpIterate)]
        for step in (cadmm_step, lambda it, ops: dext_step(it, ops, 1.618)):
            a, b = step(bare, ops), step(cached, ops)
            for name in fields:
                u, v = getattr(a, name), getattr(b, name)
                assert (np.array_equal(u, v) if isinstance(u, np.ndarray) else u == v), name
            # what a step leaves is what the next sweep would compute
            assert np.array_equal(a.adj_yI, prob.A_I.adjoint(a.yI))
            if a.adj_t_yE is not None:
                assert np.array_equal(a.adj_t_yE, prob.A_E.adjoint(a.t_yE))
        assert cadmm_step(bare, ops).adj_t_yE is None   # t_yE was corrected
        assert dext_step(bare, ops, 1.0).adj_t_yE is not None


def summed(C, *terms):
    """The terms added one at a time, left to right, then C subtracted."""
    acc = terms[0]
    for t in terms[1:]:
        acc = acc + t
    return acc - C


def reference_sweep_sums(it, prob, new):
    """Each block update's input and ``f_pred``/``f_full`` as the terms of
    the constraint map summed in sweep order: every block's term at its
    centre until it is updated and at its new value after, the updated
    block's term left out, and C subtracted last. ``new`` maps block names
    to the sweep's new blocks."""
    order = ["yI", "Z", "yE", "S"] if prob.four_block else ["Z", "yE", "S"]
    maps = {"yI": prob.A_I.adjoint if prob.four_block else None,
            "Z": lambda z: z, "yE": prob.A_E.adjoint, "S": lambda s: s}
    centres = {"yI": it.yI, "Z": it.t_Z, "yE": it.t_yE, "S": it.S}
    terms = {name: maps[name](centres[name]) for name in order}
    inputs, f_pred = {}, None
    for name in order:
        inputs[name] = summed(prob.C, *(t for k, t in terms.items() if k != name))
        terms[name] = maps[name](new[name])
        if f_pred is None:
            f_pred = summed(prob.C, *terms.values())
    return inputs, f_pred, summed(prob.C, *terms.values())


class TestSweepSums:
    """The sweep sums each partial constraint map once, with shared
    prefixes, and still gets every bit of the term-by-term sums."""

    STEPS = {"cadmm": cadmm_step, "dext": lambda it, ops: dext_step(it, ops, 1.618)}

    @pytest.mark.parametrize("step", sorted(STEPS))
    @pytest.mark.parametrize("spec", ["biq:10:2", "fap:9:3", "ebiq:7:3", "ebiq:9:1"])
    def test_update_inputs_and_maps_in_sweep_order(self, monkeypatch, spec, step):
        prob = generate_problem(spec)
        ops = SolveOperands(prob)
        args = {}
        for name in ("update_yI", "update_Z", "update_yE", "update_S"):
            original = getattr(dnnsdp, name)

            def recorded(*a, name=name, original=original):
                out = original(*a)
                # xs, r, new block (update_S also returns its count)
                args[name] = (a[1], a[2], out[0] if name == "update_S" else out)
                return out

            monkeypatch.setattr(dnnsdp, name, recorded)
        sweeps = []
        original_sweep = dnnsdp._sweep

        def recorded_sweep(it, ops):
            args.clear()
            out = original_sweep(it, ops)
            sweeps.append((it, dict(args), out))
            return out

        monkeypatch.setattr(dnnsdp, "_sweep", recorded_sweep)
        it = random_state(prob, 4)
        for _ in range(15):
            it = self.STEPS[step](it, ops)
        assert len(sweeps) == 15
        for k, (before, calls, out) in enumerate(sweeps):
            yI, Z, yE, S, f_pred, f_full, adj_yI, adj_yE, _ = out
            new = {"yI": yI, "Z": Z, "yE": yE, "S": S}
            inputs, ref_pred, ref_full = reference_sweep_sums(before, prob, new)
            assert list(calls) == [f"update_{name}" for name in inputs]
            for name, ref in inputs.items():
                xs, r, new_block = calls[f"update_{name}"]
                assert np.array_equal(xs, before.X / before.sigma), (k, name)
                assert np.array_equal(r, ref), (k, name)
                assert new_block is new[name]
            assert np.array_equal(f_pred, ref_pred), k
            assert np.array_equal(f_full, ref_full), k
            assert np.array_equal(adj_yE, prob.A_E.adjoint(yE))
            if prob.four_block:
                assert np.array_equal(adj_yI, prob.A_I.adjoint(yI))


FAMILY_SPECS = ["biq:8:1", "ebiq:6:1", "theta:10:1", "rcp:12:1", "fap:8:1", "qap:3:1"]


def checked_operands(prob):
    """Operands of ``prob`` rebound to the public kernels, checks
    included: the reference the loop's unchecked cores are held to."""
    ops = SolveOperands(prob)
    ops.apply_E, ops.adjoint_E = prob.A_E.apply, prob.A_E.adjoint
    if prob.four_block:
        ops.apply_I, ops.adjoint_I = prob.A_I.apply, prob.A_I.adjoint
    ops.solve_E = functools.partial(gram_solve, prob.A_E)
    ops.project_dual = lambda z: project_pattern_dual(z, prob.pattern)
    # the public projection's symmetrization, then the core at the loop's count
    ops.project_psd = lambda b, negatives: project_psd_unchecked(symmetrize(b), negatives)
    return ops


class TestSolveOperands:
    """The loop prepares its operands once and calls the unchecked kernel
    cores; on the loop's inputs they give the bits of the public kernels."""

    @pytest.mark.parametrize("spec", FAMILY_SPECS)
    def test_cores_equal_the_public_kernels(self, spec):
        prob = generate_problem(spec)
        prob.validate()
        rng = np.random.default_rng(5)
        x = random_sym(rng, prob.n)
        for a in (prob.A_E, prob.A_I):
            if a is None:
                continue
            y = rng.standard_normal(a.m)
            assert np.array_equal(a.apply_unchecked(x), a.apply(x))
            assert np.array_equal(a.adjoint_unchecked(y), a.adjoint(y))
        rhs = rng.standard_normal(prob.A_E.m)
        assert np.array_equal(gram_solve_unchecked(gram_factor(prob.A_E), rhs),
                              gram_solve(prob.A_E, rhs))
        for pattern in (prob.pattern, prob.pattern.dual()):
            assert np.array_equal(project_pattern_unchecked(x, pattern.bounds()),
                                  project_pattern(x, pattern))
        assert np.array_equal(project_pattern_unchecked(x, prob.pattern.dual().bounds()),
                              project_pattern_dual(x, prob.pattern))
        for n in (prob.n, 30):
            m = random_sym(rng, n)
            assert np.array_equal(project_psd_unchecked(m, 0)[0], project_psd(m))

    def test_both_gram_factor_kinds_are_covered(self):
        kinds = set()
        for spec in FAMILY_SPECS:
            prob = generate_problem(spec)
            kinds.add(gram_factor(prob.A_E).ndim)
        assert kinds == {1, 2}

    @pytest.mark.parametrize("spec", FAMILY_SPECS)
    @pytest.mark.parametrize("step", sorted(TestSweepSums.STEPS))
    def test_loop_operands_give_the_checked_trajectory(self, spec, step):
        prob = generate_problem(spec)
        lean, checked = SolveOperands(prob), checked_operands(prob)
        run = TestSweepSums.STEPS[step]
        a = b = initial_iterate(prob, 0.7, engine.TAU0)
        fields = [f.name for f in dataclasses.fields(dnnsdp.DnnSdpIterate)]
        for _ in range(30):
            a, b = run(a, lean), run(b, checked)
            for name in fields:
                u, v = getattr(a, name), getattr(b, name)
                assert (np.array_equal(u, v) if isinstance(u, np.ndarray) else u == v), name

    @pytest.mark.parametrize("spec", ["ebiq:6:1", "fap:8:1"])
    def test_sigma_change_remakes_the_scaled_data(self, spec):
        # after a sigma change the sweep reads b_E, b_I and M over the new
        # sigma, as the update functions do on fresh operands at it
        prob = generate_problem(spec)
        ops, fresh = SolveOperands(prob), SolveOperands(prob)
        it = initial_iterate(prob, 1.0, engine.TAU0)
        for _ in range(5):
            it = cadmm_step(it, ops)
        assert ops.sigma == 1.0
        moved = dataclasses.replace(it, sigma=1.5)
        got = dnnsdp._sweep(moved, ops)
        assert ops.sigma == 1.5
        assert np.array_equal(ops.M_s, prob.M / 1.5)
        yI, Z, yE, S = got[:4]
        xs = moved.X / 1.5
        fresh.at(1.5)
        adj_t_yE = prob.A_E.adjoint(moved.t_yE)
        if prob.four_block:
            r = moved.t_Z + adj_t_yE + moved.S - prob.C
            assert np.array_equal(yI, update_yI(fresh, xs, r, moved.yI, moved.adj_yI))
            P = prob.A_I.adjoint(yI)
            r = P + adj_t_yE + moved.S - prob.C
        else:
            P = 0.0
            r = adj_t_yE + moved.S - prob.C
        assert np.array_equal(Z, update_Z(fresh, xs, r))
        P = P + Z
        assert np.array_equal(yE, update_yE(fresh, xs, P + moved.S - prob.C))
        assert all(map(np.array_equal, (S, got[8]), update_S(
            fresh, xs, P + prob.A_E.adjoint(yE) - prob.C, moved.negatives)))

    def test_bridge_prepares_its_operands_once(self, monkeypatch):
        made = []
        init = SolveOperands.__init__

        def counted(self, prob, *args, **kwargs):
            made.append(prob)
            init(self, prob, *args, **kwargs)

        monkeypatch.setattr(SolveOperands, "__init__", counted)
        prob = generate_problem("ebiq:8:1")
        res = engine.solve(to_multiblock(prob), SolverConfig(tol=0.0, max_iters=5))
        assert res.iterations == 5
        assert len(made) == 1 and made[0] is prob

    def test_bridge_refuses_a_dependent_row_when_called(self):
        rows = [([0], [0], [1.0]), ([0, 1], [0, 1], [1.0, 1.0]), ([1], [1], [1.0])]
        prob = DnnSdpProblem(n=2, C=np.eye(2), A_E=SparseSymList(2, rows),
                             b_E=np.ones(3))
        with pytest.raises(GramSingularError, match="^A_E: "):
            to_multiblock(prob)

    @pytest.mark.parametrize("spec", FAMILY_SPECS)
    def test_a_solve_projects_exactly_symmetric_inputs(self, monkeypatch, spec):
        inputs = []

        def recorded(b, negatives):
            inputs.append(np.array_equal(b.view(np.uint64), b.T.view(np.uint64)))
            return project_psd_unchecked(b, negatives)

        monkeypatch.setattr(dnnsdp, "project_psd_unchecked", recorded)
        res = cadmm_solve(generate_problem(spec), SolverConfig(max_iters=300))
        assert len(inputs) == res.iterations
        assert all(inputs)


class TestProjectionRoute:
    """The S update picks its LAPACK route from the count of nonpositive
    eigenvalues of the previous projection, which the iterate carries."""

    def test_the_iterate_carries_the_count_of_its_s_update(self, monkeypatch):
        counts = []
        real = dnnsdp.project_psd_unchecked

        def recorded(b, negatives):
            out = real(b, negatives)
            counts.append((negatives, out[1]))
            return out

        monkeypatch.setattr(dnnsdp, "project_psd_unchecked", recorded)
        prob = generate_problem("qap:3:4")
        ops = SolveOperands(prob)
        it = initial_iterate(prob, 1.0, engine.TAU0)
        assert it.negatives == 0
        for _ in range(20):
            before, it = it.negatives, cadmm_step(it, ops)
            assert counts[-1] == (before, it.negatives)
        # qap:3:4 has many nonpositive eigenvalues in its S inputs
        assert 4 * it.negatives >= prob.n

    def test_a_second_solve_in_one_process_has_the_same_bits(self, monkeypatch):
        # the count lives on the iterate, so no solve leaves a route behind
        # for the next. A count left behind would start the second
        # biq:14:5 solve (n = 15) on dsyevd, after theta:14:1's final 4,
        # and the first on dsyevr, after qap:3:4's final 2; a fresh
        # iterate starts every solve on dsyevr. (qap:3:4 itself ends with
        # the same bits whichever route its first projection takes.)
        taken = []
        real = linalg._nonpositive_eigenvectors_dsyevd
        monkeypatch.setattr(linalg, "_nonpositive_eigenvectors_dsyevd",
                            lambda b: taken.append(b.shape[0]) or real(b))
        specs = ["qap:3:4", "biq:14:5", "qap:3:4", "theta:14:1", "biq:14:5"]
        results = [cadmm_solve(generate_problem(spec)) for spec in specs]
        assert {9, 14, 15} <= set(taken)
        for first, again in ((results[0], results[2]), (results[1], results[4])):
            assert (first.status, first.iterations) == (again.status, again.iterations)
            assert first.report == again.report and first.tau_history == again.tau_history
            assert first.sigma_final == again.sigma_final
            for a, b in zip([first.x, *first.z], [again.x, *again.z]):
                assert np.array_equal(a, b)


class TestSweepCertificate:
    """The loop certifies each iterate from its sweep's constraint map."""

    @pytest.mark.parametrize("solve,spec", [(cadmm_solve, "biq:14:5"),
                                            (cadmm_solve, "ebiq:8:2"),
                                            (dext_solve, "ebiq:8:2"),
                                            (cadmm_solve, "qap:3:4")],
                             ids=["cadmm-biq:14:5", "cadmm-ebiq:8:2", "dext-ebiq:8:2",
                                  "cadmm-qap:3:4"])
    def test_loop_report_matches_full_recomputation(self, solve, spec):
        # every in-loop report against the full check of the same iterate;
        # an iterate without a report cannot have stopped the run, since a
        # component that needs no eigenvalues is not below tol, and the
        # returned report is the full check of the last one
        prob = generate_problem(spec)
        tol, period = SolverConfig().tol, TuningPolicy().check_period
        seen = []
        res = solve(prob, callback=lambda it, rep: seen.append(
            (it, rep, residuals(it, prob))))
        assert res.status == "Converged"
        assert len(seen) == res.iterations
        # these runs end long before the sigma checks freeze, so every
        # check_period-th iteration is a sigma check
        assert res.iterations < dnnsdp.FREEZE_FRACTION * 20000
        assert seen[-1][1] is not None
        assert any(loop is None for _, loop, _ in seen)
        for it, loop, fresh in seen:
            assert it.f_full is not None
            if loop is None:
                cheap = [fresh.eta_P, fresh.eta_D, fresh.eta_K, fresh.eta_C1, fresh.eta_C2]
                cheap += [fresh.eta_I] if prob.four_block else []
                assert fresh.eta >= tol and max(cheap) >= tol, it.k
                assert it.k % period != 0, it.k
                continue
            # every component but eta_D and eta_Sstar, eta_S included, is
            # the full check's value to the bit
            a, b = dataclasses.asdict(loop), dataclasses.asdict(fresh)
            for key in a.keys() - {"eta_D", "eta_Sstar"}:
                assert a[key] == b[key], (it.k, key)
            # the 4-block sweep sums in the order of the full check; the
            # 3-block one sums Z + A_E* y_E + S - C, so its eta_D is the norm
            # of that sum, which differs from the full check's by the
            # rounding of the terms (1e-9 of eta_D on qap:3:4, where the
            # terms cancel to 1e-8 of their size)
            if prob.four_block:
                assert loop.eta_D == fresh.eta_D
            else:
                terms = (it.Z, prob.A_E.adjoint(it.yE), it.S, prob.C)
                scale = 1 + np.linalg.norm(prob.C)
                assert loop.eta_D == np.linalg.norm(
                    terms[0] + terms[1] + terms[2] - terms[3]) / scale
                rounding = 4 * np.finfo(float).eps * sum(map(np.linalg.norm, terms)) / scale
                assert abs(loop.eta_D - fresh.eta_D) <= rounding, it.k
            assert loop.eta == pytest.approx(fresh.eta, rel=1e-12, abs=0)
            assert loop.eta_Sstar == 0.0
            assert 0.0 <= fresh.eta_Sstar <= 1e-15
        assert res.report == seen[-1][2]
        assert res.residual == res.report.eta

    @staticmethod
    def lower_bound(it, prob):
        """max(eta_D, eta_P, eta_K, eta_I, eta_C1, eta_C2) of an iterate of
        the loop, as the loop reads it, and the same without the
        complementarity terms."""
        norms = dnnsdp._block_norms(it)
        scales = dnnsdp._data_scales(prob)
        eta_P, eta_K, eta_I, eta_C1, eta_C2 = dnnsdp._lower_bounds(it, prob, norms, scales)
        feasibility = max(np.linalg.norm(it.f_full) / scales[1], eta_P, eta_K, eta_I or 0.0)
        return max(feasibility, eta_C1, eta_C2), feasibility

    @pytest.mark.parametrize("policy", [TuningPolicy.disabled(), TuningPolicy()],
                             ids=["disabled", "default"])
    def test_certificate_only_where_the_bound_may_stop(self, policy, monkeypatch):
        # the eigenvalues of X are computed once per full report and on no
        # other iteration: where the lower bound
        # max(eta_D, eta_P, eta_K, eta_C1, eta_C2) of eta is below tol, and
        # at the sigma checks besides
        prob = generate_problem("biq:14:5")
        tol = SolverConfig().tol
        freeze_after = int(dnnsdp.FREEZE_FRACTION * 20000)
        calls = []
        original = dnnsdp.psd_distance

        def counted(m):
            calls.append(m)
            return original(m)

        below, due, made = [], [], []

        def cb(it, rep):
            below.append(self.lower_bound(it, prob)[0] < tol)
            due.append(dnnsdp.sigma_check_due(it.k, policy, freeze_after))
            new = calls[sum(made):]
            assert all(m is it.X for m in new), it.k
            assert (rep is not None) == (len(new) == 1), it.k
            made.append(len(new))

        monkeypatch.setattr(dnnsdp, "psd_distance", counted)
        res = cadmm_solve(prob, policy=policy, callback=cb)
        assert res.status == "Converged" and res.iterations == len(below)
        # with sigma fixed no check is due, so made == below
        assert below[-1] and sum(made) == len(calls) - 2
        assert made == [int(b or d) for b, d in zip(below, due)]

    def test_complementarity_terms_rule_out_reports(self):
        # on qap:3:4 most iterates whose feasibility components are all
        # below tol still have eta_C1 or eta_C2 above it, so they get no
        # report
        prob = generate_problem("qap:3:4")
        tol = SolverConfig().tol
        seen = []
        res = cadmm_solve(prob, policy=TuningPolicy.disabled(), callback=lambda it, rep: (
            seen.append((rep is not None, *self.lower_bound(it, prob)))))
        assert res.status == "Converged" and len(seen) == res.iterations
        assert [made for made, _, _ in seen] == [bound < tol for _, bound, _ in seen]
        ruled_out = [not made and feasibility < tol for made, _, feasibility in seen]
        assert sum(ruled_out) > sum(made for made, _, _ in seen)

    def test_one_eigenvalue_call_per_iteration(self, monkeypatch):
        # X once per full report, then X and S once for the returned one
        calls, reports = [], []
        original = dnnsdp.psd_distance

        def counted(m):
            calls.append(m.shape)
            return original(m)

        monkeypatch.setattr(dnnsdp, "psd_distance", counted)
        res = cadmm_solve(generate_problem("biq:14:5"),
                          callback=lambda it, rep: reports.append(rep is not None))
        assert res.status == "Converged" and res.iterations == 367
        assert len(calls) == sum(reports) + 2
        assert len(calls) <= 0.1 * res.iterations + 2


class TestDivergenceGuard:
    def test_ordinary_iterate(self):
        prob = random_four_block(5, n=5)
        it = random_state(prob, 5)
        assert not dnnsdp._diverged(it, dnnsdp._block_norms(it))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 2e12, 1e200])
    def test_each_block(self, value):
        # 1e200 is finite, but the norm of a block of it overflows to inf
        prob = random_four_block(5, n=5)
        for name in ("yI", "Z", "yE", "S", "X"):
            it = random_state(prob, 5)
            block = getattr(it, name)
            if value == 1e200:
                block[...] = value
            else:
                block.flat[0] = value
            with np.errstate(over="ignore"):
                assert dnnsdp._diverged(it, dnnsdp._block_norms(it))[0] == name


class TestTuneSigma:
    def _report(self, primal, dual):
        return ResidualReport(eta_P=primal, eta_D=dual, eta_S=0.0, eta_K=0.0,
                              eta_Sstar=0.0, eta_Kstar=0.0, eta_C1=0.0, eta_C2=0.0)

    def test_balanced_unchanged(self):
        pol = TuningPolicy()
        rep = self._report(1e-3, 1e-3)
        assert tune_sigma(rep, 2.0, 50, pol, 1000) == 2.0

    def test_primal_dominant_shrinks_sigma(self):
        # the multiplier block carries the primal variable, so a lagging
        # primal side calls for a smaller penalty
        pol = TuningPolicy()
        rep = self._report(1e-1, 1e-3)
        assert tune_sigma(rep, 3.0, 50, pol, 1000) == pytest.approx(2.0)

    def test_dual_dominant_grows_sigma(self):
        pol = TuningPolicy()
        rep = self._report(1e-5, 1e-2)
        assert tune_sigma(rep, 3.0, 50, pol, 1000) == pytest.approx(4.5)

    def test_respects_bounds_period_and_freeze(self):
        pol = TuningPolicy()
        hot = self._report(1.0, 1e-9)
        assert tune_sigma(hot, SIGMA_MIN, 50, pol, 1000) == SIGMA_MIN  # floor
        assert tune_sigma(hot, 1.0, 51, pol, 1000) == 1.0              # off-period
        assert tune_sigma(hot, 1.0, 1000, pol, 1000) == 1.0            # frozen
        cold = self._report(1e-9, 1.0)
        assert tune_sigma(cold, SIGMA_MAX, 50, pol, 1000) == SIGMA_MAX  # cap

    def test_policy_has_two_settings_and_refuses_negatives(self):
        # one setting since the stall restart went; the name is kept
        names = [f.name for f in dataclasses.fields(TuningPolicy)]
        assert names == ["check_period"]
        assert TuningPolicy.disabled() == TuningPolicy(0)
        for name in names:
            with pytest.raises(ValueError, match=name):
                TuningPolicy(**{name: -1})


class TestSolvers:
    def test_biq_certificate_and_invariants(self):
        prob = build_biq(random_biq(12, 5))
        checks = {"ok": True}

        def cb(it, rep):
            if it.Z.min() < 0 or np.linalg.eigvalsh(it.S).min() < -1e-9 * (
                    1 + np.linalg.norm(it.S)):
                checks["ok"] = False

        res = cadmm_solve(prob, SolverConfig(tol=1e-6), callback=cb)
        assert res.status == "Converged"
        assert res.report.eta < 1e-6
        assert checks["ok"]
        assert_tau_law(res.tau_history)

    def test_weak_duality_at_termination(self):
        prob = build_biq(random_biq(10, 6))
        res = cadmm_solve(prob, SolverConfig(tol=1e-7))
        assert res.status == "Converged"
        vals = objective_values(prob, res)
        assert abs(vals["cx"] - vals["b_E_y"]) <= 10 * 1e-7 * (1 + abs(vals["cx"])) * 10

    def test_weak_duality_with_shift_on_fap(self):
        prob = random_fap(8, 4)
        res = cadmm_solve(prob, SolverConfig(tol=1e-8))
        assert res.status == "Converged"
        vals = objective_values(prob, res)
        gap = abs(vals["cx"] - vals["b_E_y"] - vals["M_Z"])
        assert gap <= 1e-5 * (1 + abs(vals["cx"]))

    def test_four_block_feasible_blocks_every_iteration(self):
        prob = random_four_block(8, n=7)
        mins = []

        def cb(it, rep):
            mins.append((it.yI.min(), it.Z.min() if prob.pattern.is_all_nonneg()
                         else 0.0, np.linalg.eigvalsh(it.S).min()))

        cadmm_solve(prob, SolverConfig(tol=1e-6, max_iters=300), callback=cb)
        worst_yI = min(m[0] for m in mins)
        worst_Z = min(m[1] for m in mins)
        worst_S = min(m[2] for m in mins)
        assert worst_yI >= 0.0
        assert worst_Z >= 0.0
        assert worst_S >= -1e-9

    def test_gap_includes_the_shift_on_fap(self):
        # the dual objective of the shifted cone carries <M, Z>; without it
        # this converged run read eta_g = -0.977
        prob = generate_problem("fap:12:4")
        assert np.any(prob.M != 0)
        res = cadmm_solve(prob)
        assert res.status == "Converged"
        vals = objective_values(prob, res)
        dual = vals["b_E_y"] + vals["M_Z"]
        gap = (vals["cx"] - dual) / (1 + abs(vals["cx"] + dual))
        assert res.report.eta_g == pytest.approx(gap, rel=1e-12)
        assert abs(res.report.eta_g) < 1e-3

    def test_dext_converges_on_easy_instance(self):
        prob = random_rcp(12, 2)
        res = dext_solve(prob, SolverConfig(tol=1e-6), tau=1.618)
        assert res.status == "Converged"
        assert res.report.eta < 1e-6

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), -1.0, 0.0])
    def test_dext_refuses_bad_tau(self, tau):
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            dext_solve(build_biq(random_biq(6, 1)), tau=tau)

    def test_solver_reports_max_iters(self):
        prob = build_biq(random_biq(12, 5))
        res = cadmm_solve(prob, SolverConfig(tol=1e-12, max_iters=10))
        assert res.status == "MaxIters"
        assert res.iterations == 10


class TestProblemValidation:
    def test_rejects_asymmetric_objective(self):
        a = SparseSymList(2, [([0], [0], [1.0])])
        with pytest.raises(ValueError, match="symmetric"):
            DnnSdpProblem(n=2, C=np.array([[0.0, 1.0], [0.0, 0.0]]), A_E=a,
                          b_E=np.zeros(1))

    def test_rejects_asymmetric_shift_naming_it(self):
        # an asymmetric M used to run to Converged with an asymmetric X
        prob = generate_problem("biq:6:1")
        M = prob.M.copy()
        M[0, 1] += 0.3
        with pytest.raises(ValueError, match="^M must be symmetric$"):
            dataclasses.replace(prob, M=M)

    def test_stores_c_and_m_exactly_symmetric(self, rng):
        prob = generate_problem("fap:8:1")
        for name in ("C", "M"):
            a = getattr(prob, name) + random_sym(rng, prob.n)
            a[0, 1] += 1e-12 * np.abs(a).max()   # asymmetric within 1e-10
            stored = getattr(dataclasses.replace(prob, **{name: a}), name)
            assert not np.array_equal(a, a.T)
            assert np.array_equal(stored, stored.T), name
            assert np.array_equal(stored, 0.5 * (a + a.T)), name

    @pytest.mark.parametrize("spec", ["biq:8:1", "ebiq:6:1", "theta:10:1", "rcp:12:1",
                                      "fap:8:1", "qap:3:1"])
    def test_exactly_symmetric_data_keeps_its_bits(self, spec):
        prob = generate_problem(spec)
        for name in ("C", "M"):
            a = getattr(prob, name)
            assert np.array_equal(a.view(np.uint64), a.T.view(np.uint64)), name
            again = getattr(dataclasses.replace(prob), name)
            assert np.array_equal(again.view(np.uint64), a.view(np.uint64)), name

    def test_caller_mutation_after_construction_leaves_c_and_m_alone(self):
        # the problem stores its own copies of exactly symmetric C and M, so
        # the loop's unchecked exact-symmetry assumption survives a caller
        # that changes its arrays afterwards
        base = generate_problem("fap:8:1")
        c, m = base.C.copy(), base.M.copy()
        prob = dataclasses.replace(base, C=c, M=m)
        kept = prob.C.copy(), prob.M.copy()
        c[0, 1] += 1.0
        m[1, 2] -= 1.0
        m[3] = np.nan
        for stored, want in zip((prob.C, prob.M), kept):
            assert np.array_equal(stored, want)
            assert np.array_equal(stored, stored.T)

    def test_rejects_mismatched_inequality_data(self):
        a = SparseSymList(2, [([0], [0], [1.0])])
        with pytest.raises(ValueError, match="both"):
            DnnSdpProblem(n=2, C=np.zeros((2, 2)), A_E=a, b_E=np.zeros(1),
                          A_I=a)

    def test_validate_checks_surjectivity(self):
        rows = [([0], [0], [1.0]), ([0], [0], [1.0])]
        a = SparseSymList(2, rows)
        prob = DnnSdpProblem(n=2, C=np.zeros((2, 2)), A_E=a, b_E=np.zeros(2))
        with pytest.raises(Exception, match="singular"):
            prob.validate()

    @pytest.mark.parametrize("name, value", [("C", np.nan), ("b_E", np.nan),
                                             ("b_I", -np.inf), ("M", np.inf)])
    def test_rejects_nonfinite_data_naming_the_field(self, name, value):
        a = SparseSymList(2, [([0], [0], [1.0])])
        data = dict(n=2, C=np.eye(2), A_E=a, b_E=np.ones(1), A_I=a,
                    b_I=np.zeros(1), M=np.zeros((2, 2)))
        data[name] = data[name].copy()
        data[name].flat[-1] = value
        with pytest.raises(ValueError, match=f"^{name} has non-finite entries"):
            DnnSdpProblem(**data)

    @pytest.mark.parametrize("name, value, message", [
        ("C", np.eye(3), r"C has shape \(3, 3\), expected \(2, 2\)"),
        ("C", np.zeros((2, 3)), r"C has shape \(2, 3\), expected \(2, 2\)"),
        ("M", np.zeros((3, 3)), r"M has shape \(3, 3\), expected \(2, 2\)"),
        ("M", np.zeros(4), r"M has shape \(4,\), expected \(2, 2\)"),
        ("b_E", np.ones((1, 1)), r"b_E has shape \(1, 1\), expected a vector"),
        ("b_I", np.zeros((1, 1)), r"b_I has shape \(1, 1\), expected a vector"),
        ("pattern", ConePattern.all_nonneg(3), "pattern has order 3, expected 2"),
        ("A_E", SparseSymList(3, [([0], [0], [1.0])]), "A_E has order 3, expected 2"),
        ("A_I", SparseSymList(1, [([0], [0], [1.0])]), "A_I has order 1, expected 2"),
        ("b_E", np.ones(2), r"b_E has length 2, expected 1 \(the rows of A_E\)"),
        ("b_I", np.zeros(0), r"b_I has length 0, expected 1 \(the rows of A_I\)"),
    ])
    def test_rejects_misshapen_data_naming_the_field(self, name, value, message):
        # each would otherwise first fail inside an iteration
        a = SparseSymList(2, [([0], [0], [1.0])])
        data = dict(n=2, C=np.eye(2), A_E=a, b_E=np.ones(1), A_I=a,
                    b_I=np.zeros(1), M=np.zeros((2, 2)))
        data[name] = value
        with pytest.raises(ValueError, match=f"^{message}$"):
            DnnSdpProblem(**data)

    @pytest.mark.parametrize("name, value, message", [
        ("A_E", None, "A_E must be a SparseSymList, got NoneType"),
        ("b_E", None, "b_E must be a vector, got None"),
        ("A_E", np.eye(2), "A_E must be a SparseSymList, got ndarray"),
        ("A_I", [([0], [0], [1.0])], "A_I must be a SparseSymList, got list"),
    ])
    def test_rejects_missing_or_foreign_constraint_data(self, name, value, message):
        # a problem without equality data used to be made, and then failed
        # in the solve or the document writer with an AttributeError
        a = SparseSymList(2, [([0], [0], [1.0])])
        data = dict(n=2, C=np.eye(2), A_E=a, b_E=np.ones(1), A_I=a, b_I=np.zeros(1))
        data[name] = value
        with pytest.raises(ValueError, match=f"^{message}$"):
            DnnSdpProblem(**data)

    @pytest.mark.parametrize("name, value, message", [
        ("n", 2.0, "n must be a positive integer, got 2.0"),
        ("n", "2", "n must be a positive integer, got '2'"),
        ("n", 0, "n must be a positive integer, got 0"),
        ("pattern", np.zeros((2, 2), dtype=int), "pattern must be a ConePattern, got ndarray"),
        ("pattern", "nonneg", "pattern must be a ConePattern, got str"),
    ])
    def test_rejects_a_foreign_order_or_pattern_naming_the_field(self, name, value, message):
        # an ndarray pattern used to fail with an AttributeError and n=2.0
        # with a bare TypeError, neither naming the field
        a = SparseSymList(2, [([0], [0], [1.0])])
        data = dict(n=2, C=np.eye(2), A_E=a, b_E=np.ones(1))
        data[name] = value
        with pytest.raises(ValueError, match=f"^{message}$"):
            DnnSdpProblem(**data)
        data[name] = {"n": np.int64(2), "pattern": ConePattern.all_nonneg(2)}[name]
        assert DnnSdpProblem(**data).n == 2

    @pytest.mark.parametrize("solve", [cadmm_solve, dext_solve], ids=["cadmm", "dext"])
    def test_solve_validates_first(self, solve):
        a = SparseSymList(2, [([0], [0], [1.0])])
        zero = SparseSymList(2, [([0], [1], [0.0])])
        prob = DnnSdpProblem(n=2, C=np.eye(2), A_E=a, b_E=np.ones(1), A_I=zero,
                             b_I=np.zeros(1))
        with pytest.raises(ValueError, match="inequality constraint map is zero"):
            solve(prob, SolverConfig(max_iters=3))

    @pytest.mark.parametrize("solve", [cadmm_solve, dext_solve], ids=["cadmm", "dext"])
    def test_overflowing_inequality_map_refused(self, solve):
        # ||A_I||^2 = 2e320: the trace bound is infinite, so the spectral
        # bound is that inf, returned before any power step and with no
        # warning; with it the y_I update would never move y_I
        a = SparseSymList(2, [([0], [0], [1.0])])
        big = SparseSymList(2, [([0], [1], [1e160])])
        prob = DnnSdpProblem(n=2, C=np.eye(2), A_E=a, b_E=np.ones(1), A_I=big,
                             b_I=np.zeros(1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^A_I: the spectral bound of A_I A_I\* "
                                                 r"overflows$"):
                solve(prob, SolverConfig(max_iters=3))
        assert cached_lambda_max(prob) == math.inf

    def test_validate_runs_the_power_iteration_once(self, monkeypatch):
        calls = []

        def counted(a, *args, **kwargs):
            calls.append(a)
            return lambda_max_gram(a, *args, **kwargs)

        monkeypatch.setattr(dnnsdp, "lambda_max_gram", counted)
        prob = random_four_block(3, n=5)
        prob.validate()
        assert cached_lambda_max(prob) > 0.0
        assert len(calls) == 1


class TestCachedBound:
    """The A_I spectral bound is cached on the A_I collection, not on the
    problem, so problems that share ``meta`` cannot share a stale bound."""

    def test_replaced_inequality_data_reads_its_own_bound(self):
        prob = generate_problem("ebiq:8:2")
        old = cached_lambda_max(prob)
        a = prob.A_I
        a3 = SparseSymList(prob.n, [(i, j, 3.0 * v) for i, j, v in map(a.triples, range(a.m))])
        scaled = dataclasses.replace(prob, A_I=a3, b_I=3.0 * prob.b_I)
        assert scaled.meta is prob.meta
        assert cached_lambda_max(scaled) == lambda_max_gram(a3)
        assert cached_lambda_max(scaled) > 8.0 * old
        res = cadmm_solve(scaled)
        assert res.status == "Converged"
        assert res.report.eta < 1e-6

    def test_solve_leaves_meta_unchanged(self, tmp_path):
        prob = generate_problem("ebiq:6:1")
        before = dict(prob.meta)
        cadmm_solve(prob, SolverConfig(max_iters=5))
        assert prob.meta == before
        write_problem(prob, tmp_path / "p.json")
        assert json.loads((tmp_path / "p.json").read_text())["meta"] == before
