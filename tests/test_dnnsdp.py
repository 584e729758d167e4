# -*- coding: utf-8 -*-

import dataclasses
import json

import numpy as np
import pytest

from cadmm import dnnsdp, engine
from cadmm.cli import generate_problem
from cadmm.cones import ConePattern, project_pattern, project_pattern_dual
from cadmm.dnnsdp import (SIGMA_MAX, SIGMA_MIN, DnnSdpProblem, ResidualReport,
                          SolverConfig, TuningPolicy, cached_lambda_max,
                          cadmm_solve, cadmm_step, dext_solve, dext_step,
                          initial_iterate,
                          maybe_restart, objective_values, residuals,
                          to_multiblock, tune_sigma, update_S, update_Z,
                          update_yE, update_yI)
from cadmm.io import write_problem
from cadmm.linalg import SparseSymList, gram_solve, lambda_max_gram, project_psd
from cadmm.problems import (BiqData, build_biq, build_ext_biq, build_theta_plus,
                            random_biq, random_fap, random_graph, random_rcp)

from conftest import (assert_tau_law, dense_gram_independent, pg_oracle_S,
                      pg_oracle_Z, pg_oracle_yI, random_sym)


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
        got = update_yI(prob_pos, lam, zero, r, np.zeros(m_i), 1.0)
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
        got = update_yI(prob_neg, lam, zero, zero, np.zeros(prob.A_I.m), 1.0)
        assert np.allclose(got, 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_yI_matches_projected_gradient(self, seed):
        prob = random_four_block(seed + 10, n=7)
        lam = cached_lambda_max(prob)
        it = random_state(prob, seed)
        r = it.t_Z + prob.A_E.adjoint(it.t_yE) + it.S - prob.C
        got = update_yI(prob, lam, it.X, r, it.yI, it.sigma)
        oracle = pg_oracle_yI(prob, lam, it.X, r, it.yI, it.sigma)
        assert np.linalg.norm(got - oracle) <= 1e-8 * (1 + np.linalg.norm(oracle))

    def test_Z_all_free_pattern_gives_zero(self, rng):
        prob = build_theta_plus(random_graph(6, 0.4, 3))
        free = DnnSdpProblem(n=prob.n, C=prob.C, A_E=prob.A_E, b_E=prob.b_E,
                             pattern=ConePattern.all_free(prob.n))
        out = update_Z(free, random_sym(rng, 6), random_sym(rng, 6), 1.3)
        assert np.allclose(out, 0.0)

    def test_Z_projecting_the_origin(self, rng):
        prob = build_theta_plus(random_graph(6, 0.4, 3))
        x = random_sym(rng, 6)
        r = (prob.M - x) / 2.0  # sigma = 2 makes M/sigma - X/sigma - r = 0
        assert np.allclose(update_Z(prob, x, r, 2.0), 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_Z_matches_projected_gradient(self, seed):
        prob = random_fap(7, seed + 1)
        it = random_state(prob, seed)
        r = prob.A_E.adjoint(it.t_yE) + it.S - prob.C
        got = update_Z(prob, it.X, r, it.sigma)
        oracle = pg_oracle_Z(prob, it.X, r, it.sigma)
        assert np.linalg.norm(got - oracle) <= 1e-8 * (1 + np.linalg.norm(oracle))

    def test_yE_zero_case(self):
        prob = build_biq(random_biq(5, 4))
        zero_b = DnnSdpProblem(n=prob.n, C=prob.C, A_E=prob.A_E,
                               b_E=np.zeros(prob.A_E.m), pattern=prob.pattern)
        n = prob.n
        got = update_yE(zero_b, np.zeros((n, n)), np.zeros((n, n)), 1.0)
        assert np.allclose(got, 0.0)

    def test_yE_orthonormal_rows(self, rng):
        rows = [([0], [0], [1.0]), ([0], [1], [1.0 / np.sqrt(2)])]
        a = SparseSymList(2, rows)
        prob = DnnSdpProblem(n=2, C=np.zeros((2, 2)), A_E=a, b_E=np.zeros(2))
        x = random_sym(rng, 2)
        r = random_sym(rng, 2)
        got = update_yE(prob, x, r, 1.5)
        rhs = prob.b_E / 1.5 - a.apply(x / 1.5 + r)
        assert np.allclose(got, rhs, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_yE_gradient_vanishes(self, seed):
        prob = build_biq(random_biq(6, seed + 20))
        it = random_state(prob, seed)
        r = it.Z + it.S - prob.C
        y = update_yE(prob, it.X, r, it.sigma)
        # gradient of the literal objective -b'y + <X, A*y> + sigma/2||A*y + r||^2
        grad = (-prob.b_E + prob.A_E.apply(it.X)
                + it.sigma * prob.A_E.apply(prob.A_E.adjoint(y) + r))
        assert np.linalg.norm(grad) <= 1e-10 * (1 + np.linalg.norm(prob.b_E))

    def test_yE_matches_independent_dense_solve(self, seed=3):
        prob = build_biq(random_biq(6, seed))
        it = random_state(prob, seed)
        r = it.Z + it.S - prob.C
        y = update_yE(prob, it.X, r, it.sigma)
        gram = dense_gram_independent(prob.A_E)
        rhs = prob.b_E / it.sigma - prob.A_E.apply(it.X / it.sigma + r)
        expect = np.linalg.solve(gram, rhs)
        assert np.linalg.norm(y - expect) <= 1e-10 * (1 + np.linalg.norm(expect))

    def test_S_already_psd(self, rng):
        s = rng.standard_normal((6, 6))
        target = s @ s.T / 6
        x = np.zeros((6, 6))
        got = update_S(x, -target, 1.0)  # r = -target makes the argument psd
        assert np.linalg.norm(got - target) <= 1e-12

    def test_S_negative_definite_argument(self):
        n = 5
        got = update_S(np.zeros((n, n)), np.eye(n), 1.0)  # argument = -I
        assert np.allclose(got, 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_S_matches_projected_gradient(self, seed):
        prob = build_biq(random_biq(6, seed + 30))
        it = random_state(prob, seed)
        r = it.Z + prob.A_E.adjoint(it.yE) - prob.C
        got = update_S(it.X, r, it.sigma)
        oracle = pg_oracle_S(it.X, r, it.sigma, prob.n)
        assert np.linalg.norm(got - oracle) <= 1e-8 * (1 + np.linalg.norm(oracle))


class TestCadmmStep:
    def test_fixed_point_at_exact_kkt(self):
        prob, it = exact_kkt_instance()
        out = cadmm_step(it, prob)
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
        out = cadmm_step(it, prob)
        d_s = out.S - it.S
        d_ye = prob.A_E.adjoint(out.t_yE - it.t_yE)
        expect = it.t_Z + engine.ALPHA * (out.Z - it.t_Z) - (d_ye + d_s)
        assert np.linalg.norm(out.t_Z - expect) <= 1e-12
        wrong_base = it.Z + engine.ALPHA * (out.Z - it.Z) - (d_ye + d_s)
        assert np.linalg.norm(out.t_Z - wrong_base) > 1e-6

    def test_correction_matches_generic_formula(self):
        prob = random_four_block(7, n=7)
        it = random_state(prob, 7)
        out = cadmm_step(it, prob)
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
        mb, z0, x0 = to_multiblock(prob)
        gres = engine.solve(mb, cfg, z0=z0, x0=x0, record_history=True)
        it = initial_iterate(prob, cfg.sigma, engine.TAU0)
        for step in gres.history:
            it = cadmm_step(it, prob)
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
        mb, z0, x0 = to_multiblock(prob)
        cfg = SolverConfig(tol=0.0)
        it = initial_iterate(prob, cfg.sigma, engine.TAU0)
        for k in (10, 20, 30, 40):
            while it.k < k:
                it = dext_step(it, prob, 1.618)
            gres = engine.solve_direct_extended(
                mb, dataclasses.replace(cfg, max_iters=k), tau=1.618, z0=z0, x0=x0)
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

        def counted(m):
            calls.append(m.shape)
            return project_psd(m)

        monkeypatch.setattr(dnnsdp, "project_psd", counted)
        prob = build_biq(random_biq(6, 3))
        assert not prob.four_block
        it = cadmm_step(random_state(prob, 3), prob)
        residuals(it, prob)
        assert calls == [(prob.n, prob.n)]

    def test_no_sparse_transpose_after_the_first_step(self, monkeypatch):
        # the transposed CSR of each collection is built once and reused
        prob = random_four_block(7, n=6)
        it = cadmm_step(initial_iterate(prob, 1.0, engine.TAU0), prob)
        csr_type = type(prob.A_E._csr)
        original = csr_type.transpose
        calls = []

        def counted(self, *args, **kwargs):
            calls.append(self.shape)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(csr_type, "transpose", counted)
        it = cadmm_step(it, prob)
        residuals(it, prob)
        dext_step(it, prob, 1.618)
        assert calls == []


class TestSweepCertificate:
    """The loop certifies each iterate from its sweep's constraint map."""

    @pytest.mark.parametrize("solve,spec", [(cadmm_solve, "biq:14:5"),
                                            (cadmm_solve, "ebiq:8:2"),
                                            (dext_solve, "ebiq:8:2")],
                             ids=["cadmm-biq:14:5", "cadmm-ebiq:8:2", "dext-ebiq:8:2"])
    def test_loop_report_matches_full_recomputation(self, solve, spec):
        # every in-loop report against the full check of the same iterate;
        # the returned report is the full check of the last one
        prob = generate_problem(spec)
        seen = []
        res = solve(prob, callback=lambda it, rep: seen.append(
            (it, rep, residuals(it, prob))))
        assert res.status == "Converged"
        assert len(seen) == res.iterations
        for it, loop, fresh in seen:
            assert it.f_full is not None
            a, b = dataclasses.asdict(loop), dataclasses.asdict(fresh)
            for key in a.keys() - {"eta_D", "eta_Sstar"}:
                assert a[key] == b[key], (it.k, key)
            # the 4-block sweep sums in the order of the full check; the
            # 3-block one does not, so its eta_D may move by an ulp
            if prob.four_block:
                assert loop.eta_D == fresh.eta_D
            assert loop.eta_D == pytest.approx(fresh.eta_D, rel=1e-12, abs=0)
            assert loop.eta == pytest.approx(fresh.eta, rel=1e-12, abs=0)
            assert loop.eta_Sstar == 0.0
            assert 0.0 <= fresh.eta_Sstar <= 1e-15
        assert res.report == seen[-1][2]
        assert res.residual == res.report.eta

    def test_one_eigenvalue_call_per_iteration(self, monkeypatch):
        # X on every iteration, then X and S once for the returned report
        calls = []
        original = dnnsdp.psd_distance

        def counted(m):
            calls.append(m.shape)
            return original(m)

        monkeypatch.setattr(dnnsdp, "psd_distance", counted)
        res = cadmm_solve(generate_problem("biq:14:5"))
        assert res.status == "Converged" and res.iterations == 367
        assert len(calls) == res.iterations + 2


class TestDivergenceGuard:
    def test_ordinary_iterate(self):
        prob = random_four_block(5, n=5)
        assert not dnnsdp._diverged(random_state(prob, 5))

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
                assert dnnsdp._diverged(it)[0] == name


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
        names = [f.name for f in dataclasses.fields(TuningPolicy)]
        assert names == ["check_period", "restart_stall_window"]
        assert TuningPolicy.disabled() == TuningPolicy(0, 0)
        for name in names:
            with pytest.raises(ValueError, match=name):
                TuningPolicy(**{name: -1})


class TestRestart:
    def test_no_restart_on_decreasing_history(self):
        prob = build_biq(random_biq(4, 3))
        it = random_state(prob, 3)
        it.k = 300
        pol = TuningPolicy()
        hist = list(np.geomspace(1.0, 1e-4, 301))
        out, restarted = maybe_restart(hist, it, pol, 1.95, last_restart=0)
        assert not restarted and out is it

    def test_restart_on_flat_history(self):
        prob = build_biq(random_biq(4, 3))
        it = random_state(prob, 3)
        it.k = 300
        it.tau = 0.7
        pol = TuningPolicy()
        hist = [1.0] * 301
        out, restarted = maybe_restart(hist, it, pol, 1.95, last_restart=0)
        assert restarted
        assert out.tau == pytest.approx(1.95)
        assert np.array_equal(out.t_Z, out.Z)
        assert np.array_equal(out.t_yE, out.yE)

    def test_restart_respects_window_spacing(self):
        prob = build_biq(random_biq(4, 3))
        it = random_state(prob, 3)
        it.k = 150
        pol = TuningPolicy()
        hist = [1.0] * 151
        _, restarted = maybe_restart(hist, it, pol, 1.95, last_restart=100)
        assert not restarted

    def test_step_after_restart_keeps_correction_identity(self):
        prob = build_biq(random_biq(6, 9))
        it = initial_iterate(prob, 1.0, engine.TAU0)
        for _ in range(5):
            it = cadmm_step(it, prob)
        restarted, _ = maybe_restart([1.0] * 101, dataclasses.replace(it),
                                     TuningPolicy(), engine.TAU0, -200)
        it2 = cadmm_step(restarted, prob)
        # corrected middle block must satisfy the triangular recursion
        expect = (restarted.t_yE + engine.ALPHA * (it2.yE - restarted.t_yE)
                  - gram_solve(prob.A_E, prob.A_E.apply(it2.S - restarted.S)))
        assert np.linalg.norm(it2.t_yE - expect) <= 1e-11


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
        assert_tau_law(res.tau_history, res.restarts)

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
        prob = random_rcp(12, 2, kappa=2)
        res = dext_solve(prob, SolverConfig(tol=1e-6), tau=1.618)
        assert res.status == "Converged"
        assert res.report.eta < 1e-6

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

    @pytest.mark.parametrize("solve", [cadmm_solve, dext_solve], ids=["cadmm", "dext"])
    def test_solve_validates_first(self, solve):
        a = SparseSymList(2, [([0], [0], [1.0])])
        zero = SparseSymList(2, [([0], [1], [0.0])])
        prob = DnnSdpProblem(n=2, C=np.eye(2), A_E=a, b_E=np.ones(1), A_I=zero,
                             b_I=np.zeros(1))
        with pytest.raises(ValueError, match="inequality constraint map is zero"):
            solve(prob, SolverConfig(max_iters=3))

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
