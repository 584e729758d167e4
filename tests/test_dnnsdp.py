# -*- coding: utf-8 -*-

import numpy as np
import pytest

from cadmm import engine
from cadmm.cones import ConePattern, project_pattern, project_pattern_dual
from cadmm.dnnsdp import (DnnSdpProblem, ResidualReport,
                          SolverConfig, TuningPolicy, cached_lambda_max,
                          cadmm_solve, cadmm_step, dext_solve, dext_step,
                          initial_iterate,
                          maybe_restart, objective_values, residuals,
                          to_multiblock, tune_sigma, update_S, update_Z,
                          update_yE, update_yI)
from cadmm.linalg import SparseSymList, gram_solve, project_psd
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
    it.t_Z, it.t_yE, it.t_S = it.Z.copy(), it.yE.copy(), it.S.copy()
    return prob, it


def random_four_block(seed, n=8):
    return build_ext_biq(random_biq(n, seed))


def random_state(prob, seed):
    rng = np.random.default_rng(seed)
    it = initial_iterate(prob, sigma=float(rng.uniform(0.5, 2.0)), tau0=1.95)
    n = prob.n
    it.X = random_sym(rng, n)
    s = rng.standard_normal((n, n))
    it.t_S = s @ s.T / n
    it.S = it.t_S.copy()
    it.t_Z = project_pattern_dual(random_sym(rng, n), prob.pattern)
    it.Z = it.t_Z.copy()
    it.t_yE = rng.standard_normal(prob.A_E.m)
    it.yE = it.t_yE.copy()
    if prob.four_block:
        it.t_yI = np.abs(rng.standard_normal(prob.A_I.m))
        it.yI = it.t_yI.copy()
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
        r = it.t_Z + prob.A_E.adjoint(it.t_yE) + it.t_S - prob.C
        got = update_yI(prob, lam, it.X, r, it.t_yI, it.sigma)
        oracle = pg_oracle_yI(prob, lam, it.X, r, it.t_yI, it.sigma)
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
        r = prob.A_E.adjoint(it.t_yE) + it.t_S - prob.C
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
        r = it.Z + it.t_S - prob.C
        y = update_yE(prob, it.X, r, it.sigma)
        # gradient of the literal objective -b'y + <X, A*y> + sigma/2||A*y + r||^2
        grad = (-prob.b_E + prob.A_E.apply(it.X)
                + it.sigma * prob.A_E.apply(prob.A_E.adjoint(y) + r))
        assert np.linalg.norm(grad) <= 1e-10 * (1 + np.linalg.norm(prob.b_E))

    def test_yE_matches_independent_dense_solve(self, seed=3):
        prob = build_biq(random_biq(6, seed))
        it = random_state(prob, seed)
        r = it.Z + it.t_S - prob.C
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
        out = cadmm_step(it, prob, SolverConfig())
        for a, b in [(out.Z, it.Z), (out.yE, it.yE), (out.S, it.S), (out.X, it.X),
                     (out.t_Z, it.t_Z), (out.t_yE, it.t_yE), (out.t_S, it.t_S)]:
            assert np.linalg.norm(np.asarray(a) - np.asarray(b)) <= 1e-12

    def test_residuals_vanish_at_exact_kkt(self):
        prob, it = exact_kkt_instance()
        rep = residuals(it, prob)
        assert rep.eta <= 1e-10
        assert abs(rep.eta_g) <= 1e-10

    def test_tilde_invariants(self):
        prob = random_four_block(5, n=7)
        it = random_state(prob, 5)
        out = cadmm_step(it, prob, SolverConfig())
        assert out.t_S is out.S
        assert out.t_yI is out.yI

    def test_correction_recursion_uses_corrected_base(self):
        # the corrected Z update must recurse from the corrected point, not
        # from the previous prediction
        prob = random_four_block(6, n=7)
        it = random_state(prob, 6)
        it.Z = it.t_Z + 0.3 * random_sym(np.random.default_rng(0), prob.n)
        cfg = SolverConfig()
        out = cadmm_step(it, prob, cfg)
        d_s = out.S - it.t_S
        d_ye = prob.A_E.adjoint(out.t_yE - it.t_yE)
        expect = it.t_Z + cfg.alpha * (out.Z - it.t_Z) - (d_ye + d_s)
        assert np.linalg.norm(out.t_Z - expect) <= 1e-12
        wrong_base = it.Z + cfg.alpha * (out.Z - it.Z) - (d_ye + d_s)
        assert np.linalg.norm(out.t_Z - wrong_base) > 1e-6

    def test_correction_matches_generic_formula(self):
        prob = random_four_block(7, n=7)
        it = random_state(prob, 7)
        cfg = SolverConfig()
        out = cadmm_step(it, prob, cfg)
        expect_ye = (it.t_yE + cfg.alpha * (out.yE - it.t_yE)
                     - gram_solve(prob.A_E, prob.A_E.apply(out.S - it.t_S)))
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
        cfg = SolverConfig(tol=0.0)
        cfg.max_iters = iters
        cfg.record_history = True
        mb, z0, x0 = to_multiblock(prob)
        gres = engine.solve(mb, cfg, z0=z0, x0=x0)
        it = initial_iterate(prob, cfg.sigma, cfg.tau0)
        step_cfg = SolverConfig(tol=0.0)
        for step in gres.history:
            it = cadmm_step(it, prob, step_cfg)
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
        it = initial_iterate(prob, cfg.sigma, cfg.tau0)
        for k in (10, 20, 30, 40):
            while it.k < k:
                it = dext_step(it, prob, cfg, 1.618)
            cfg.max_iters = k
            gres = engine.solve_direct_extended(mb, cfg, tau=1.618, z0=z0, x0=x0)
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
        # literal recomputation of every component, coded separately
        for seed in range(4):
            prob = random_four_block(seed + 40, n=6)
            it = random_state(prob, seed + 40)
            rep = residuals(it, prob)
            X, S, Z, yE, yI = it.X, it.S, it.Z, it.yE, it.yI
            C, M, pat = prob.C, prob.M, prob.pattern
            nx, ns, nz = (np.linalg.norm(X), np.linalg.norm(S), np.linalg.norm(Z))
            exp = {
                "eta_P": np.linalg.norm(prob.A_E.apply(X) - prob.b_E)
                / (1 + np.linalg.norm(prob.b_E)),
                "eta_D": np.linalg.norm(prob.A_I.adjoint(yI) + Z
                                        + prob.A_E.adjoint(yE) + S - C)
                / (1 + np.linalg.norm(C)),
                "eta_S": np.linalg.norm(project_psd(-X)) / (1 + nx),
                "eta_K": np.linalg.norm((X - M) - project_pattern(X - M, pat))
                / (1 + nx),
                "eta_Sstar": np.linalg.norm(project_psd(-S)) / (1 + ns),
                "eta_Kstar": np.linalg.norm(Z - project_pattern_dual(Z, pat))
                / (1 + nz),
                "eta_C1": abs(np.vdot(X, S)) / (1 + nx + ns),
                "eta_C2": abs(np.vdot(X - M, Z)) / (1 + nx + nz),
                "eta_I": np.linalg.norm(np.maximum(0.0, prob.b_I - prob.A_I.apply(X)))
                / (1 + np.linalg.norm(prob.b_I)),
                "eta_Istar": np.linalg.norm(np.maximum(0.0, -yI))
                / (1 + np.linalg.norm(yI)),
            }
            got = rep.components()
            for key, val in exp.items():
                assert got[key] == pytest.approx(val, rel=1e-10, abs=1e-14), key
            cx = np.vdot(C, X)
            gap = (cx - (prob.b_E @ yE + prob.b_I @ yI)) / (
                1 + abs(cx + prob.b_E @ yE + prob.b_I @ yI))
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
        pol = TuningPolicy(sigma_min=1.0, sigma_max=4.0)
        hot = self._report(1.0, 1e-9)
        assert tune_sigma(hot, 1.0, 50, pol, 1000) == 1.0          # floor
        assert tune_sigma(hot, 1.0, 51, pol, 1000) == 1.0          # off-period
        assert tune_sigma(hot, 1.0, 1000, pol, 1000) == 1.0        # frozen
        cold = self._report(1e-9, 1.0)
        assert tune_sigma(cold, 4.0, 50, pol, 1000) == 4.0         # cap


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
        assert np.array_equal(out.t_S, out.S)

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
        cfg = SolverConfig()
        it = initial_iterate(prob, 1.0, cfg.tau0)
        for _ in range(5):
            it = cadmm_step(it, prob, cfg)
        restarted, _ = maybe_restart([1.0] * 101, it.__class__(**vars(it)),
                                     TuningPolicy(), cfg.tau0, -200)
        it2 = cadmm_step(restarted, prob, cfg)
        # corrected middle block must satisfy the triangular recursion
        expect = (restarted.t_yE + cfg.alpha * (it2.yE - restarted.t_yE)
                  - gram_solve(prob.A_E, prob.A_E.apply(it2.S - restarted.t_S)))
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

        cfg = SolverConfig(tol=1e-6)
        cfg.max_iters = 300
        cadmm_solve(prob, cfg, callback=cb)
        worst_yI = min(m[0] for m in mins)
        worst_Z = min(m[1] for m in mins)
        worst_S = min(m[2] for m in mins)
        assert worst_yI >= 0.0
        assert worst_Z >= 0.0
        assert worst_S >= -1e-9

    def test_dext_converges_on_easy_instance(self):
        prob = random_rcp(12, 2, kappa=2)
        res = dext_solve(prob, SolverConfig(tol=1e-6), tau=1.618)
        assert res.status == "Converged"
        assert res.report.eta < 1e-6

    def test_solver_reports_max_iters(self):
        prob = build_biq(random_biq(12, 5))
        cfg = SolverConfig(tol=1e-12)
        cfg.max_iters = 10
        res = cadmm_solve(prob, cfg)
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
