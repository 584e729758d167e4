# -*- coding: utf-8 -*-

import dataclasses
import math

import numpy as np
import pytest

from cadmm import engine
from cadmm.dnnsdp import TuningPolicy
from cadmm.engine import (BlockSpec, IterateState, LinearBlockMap,
                          MultiBlockProblem, SolverConfig, build_theory_operators,
                          compute_delta, correct,
                          kkt_residual, predict, solve, solve_direct_extended,
                          update_multiplier, update_tau)
from cadmm.toys import divergence_example, random_quadratic_toy

from conftest import assert_tau_law, random_psd


def w_concat(vals):
    return np.concatenate([np.asarray(v).ravel() for v in vals[1:]])


class TestStepSizeFormulas:
    def test_delta_values(self):
        one = np.array([1.0])

        def vec(norm_sq):
            return np.array([math.sqrt(norm_sq)])

        assert compute_delta(vec(1.0), vec(1.0), 0.0, 0.1) == pytest.approx(0.9)
        assert compute_delta(vec(0.0), vec(1.0), 0.0, 0.1) == pytest.approx(-0.1)
        assert compute_delta(vec(4.0), vec(2.0), 2.0, 0.1) == pytest.approx(1.8)
        assert compute_delta(one, np.array([0.0]), 0.0, 0.1) == math.inf

    def test_tau_update(self):
        assert update_tau(1.95, 0.9, 0.1) == pytest.approx(1.9)
        assert update_tau(1.5, 2.0, 0.1) == pytest.approx(1.5)
        assert update_tau(1.2, -0.95, 0.1) == pytest.approx(0.1)
        # +inf sentinel saturates at the previous value
        assert update_tau(1.7, math.inf, 0.1) == pytest.approx(1.7)

    def test_multiplier_update(self):
        x = np.array([1.0, 2.0])
        f = np.array([0.5, -0.5])
        assert np.allclose(update_multiplier(x, 1.0, 1.0, np.zeros(2)), x)
        assert np.allclose(update_multiplier(x, 1.0, 1.0, f), x + f)
        assert np.allclose(update_multiplier(x, 1.9, 0.5, f), x + 0.95 * f)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"sigma": 0.0}, {"tol": -1.0}, {"tol": float("nan")},
        {"max_iters": 0}, {"max_iters": -3}, {"sigma": float("inf")},
        {"sigma": float("nan")}, {"max_iters": 10.5},
    ])
    def test_rejects_out_of_range(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("config, name", [(SolverConfig, "max_iters"),
                                              (TuningPolicy, "check_period")])
    def test_counts_must_be_integers(self, config, name):
        # a cap of 10.5 ran 11 iterations (while k < 10.5), and a period
        # of 2.5 checked sigma at k = 5, 10, ...
        for value in (2.5, 10.0, "10"):
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
                config(**{name: value})
        for value in (10, np.int64(10), np.int32(10)):
            assert getattr(config(**{name: value}), name) == 10

    def test_method_parameters_are_constants_in_range(self):
        assert [f.name for f in dataclasses.fields(SolverConfig)] == [
            "sigma", "tol", "max_iters"]
        assert 0 < engine.ALPHA < 1
        assert 0 < engine.TAU_BAR < 1
        assert 0 < engine.EPS < 0.5
        assert 1 < engine.TAU0 < 2

    @pytest.mark.parametrize("config, name, value", [
        (SolverConfig(), "max_iters", 0), (SolverConfig(), "sigma", -1.0),
        (TuningPolicy(), "check_period", -5),
    ])
    def test_frozen_after_validation(self, config, name, value):
        # validation runs only on construction, so a set field could skip it
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(config, name, value)
        assert getattr(config, name) != value


def literal_block_minimizer(data, x, r, center, sigma):
    """Independent dense minimizer of the literal subproblem objective
    theta(z) + <x, A*z> + sigma/2 ||A*z + r||^2 + sigma/2 ||z - center||^2_T,
    assembled from scratch."""
    a_adj = data.a_adj
    d = data.dim
    gram = a_adj.T @ a_adj
    t_mat = np.zeros((d, d)) if data.rho is None else data.rho * np.eye(d) - gram
    hess = data.p_mat + sigma * gram + sigma * t_mat
    lin = data.q_vec + a_adj.T @ x + sigma * a_adj.T @ r - sigma * t_mat @ center
    return np.linalg.solve(hess, -lin)


class TestPredict:
    def test_fixed_point_at_kkt(self):
        toy = random_quadratic_toy(3, (3, 4, 5), 6, seed=7)
        z_star, x_star = toy.kkt_solution()
        state = IterateState(z=[v.copy() for v in z_star],
                             z_tilde=[v.copy() for v in z_star],
                             x=x_star.copy(), tau=1.95)
        new_z, f_pred, f_full = predict(state, toy.problem, SolverConfig())
        assert np.linalg.norm(f_full) <= 1e-10
        for a, b in zip(new_z, z_star):
            assert np.linalg.norm(a - b) <= 1e-9

    def test_two_block_sweep_matches_dense_solves(self, rng):
        toy = random_quadratic_toy(2, (3, 4), 5, seed=3)
        z = [rng.standard_normal(3), rng.standard_normal(4)]
        x = rng.standard_normal(5)
        state = IterateState(z=[v.copy() for v in z],
                             z_tilde=[v.copy() for v in z], x=x, tau=1.95)
        cfg = SolverConfig(sigma=0.8)
        new_z, _, _ = predict(state, toy.problem, cfg)
        # block 1 with block 2 at its old value, block 2 with the new block 1
        d1, d2 = toy.data
        expect1 = literal_block_minimizer(d1, x, d2.a_adj @ z[1] - toy.problem.c,
                                          z[0], cfg.sigma)
        expect2 = literal_block_minimizer(d2, x, d1.a_adj @ expect1 - toy.problem.c,
                                          z[1], cfg.sigma)
        assert np.linalg.norm(new_z[0] - expect1) <= 1e-10
        assert np.linalg.norm(new_z[1] - expect2) <= 1e-10


class TestCorrect:
    def test_fixed_point(self, rng):
        toy = random_quadratic_toy(4, (3, 3, 3, 3), 6, seed=5)
        zt = [rng.standard_normal(3) for _ in range(4)]
        out = correct(toy.problem, zt, [v.copy() for v in zt], alpha=0.7)
        for a, b in zip(out, zt):
            assert np.linalg.norm(a - b) <= 1e-14

    def test_three_block_identity_maps_hand_expansion(self, rng):
        # with identity maps and T = 0 the middle-block recursion reads
        # zt2' = zt2 + alpha (z2 - zt2) - (zt3' - zt3)
        ident = LinearBlockMap(apply=lambda x: x, apply_adjoint=lambda z: z)
        blocks = tuple(
            BlockSpec(map=ident, subsolve=lambda *a: None, shape=(4,),
                      prox=lambda point, t: point, rho=None, einv=lambda v: v)
            for _ in range(3))
        prob = MultiBlockProblem(blocks=blocks, c=np.zeros(4))
        zt = [rng.standard_normal(4) for _ in range(3)]
        new_z = [rng.standard_normal(4) for _ in range(3)]
        alpha = 0.9
        out = correct(prob, zt, new_z, alpha)
        assert np.allclose(out[0], new_z[0])
        assert np.allclose(out[2], new_z[2])
        expect = zt[1] + alpha * (new_z[1] - zt[1]) - (out[2] - zt[2])
        assert np.allclose(out[1], expect, atol=1e-14)

    def test_operator_identity_on_random_instance(self, rng):
        toy = random_quadratic_toy(4, (3, 4, 5, 4), 7, seed=13, rho_blocks=(2,))
        alpha = 0.999
        ops = build_theory_operators(toy.problem, alpha)
        zt = [rng.standard_normal(s.shape[0]) for s in
              [np.zeros(b.shape) for b in toy.problem.blocks]]
        new_z = [rng.standard_normal(len(v)) for v in zt]
        out = correct(toy.problem, zt, new_z, alpha)
        lhs = ops.h @ (w_concat(out) - w_concat(zt))
        rhs = alpha * (w_concat(new_z) - w_concat(zt))
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * (1 + np.linalg.norm(w_concat(zt)))


class TestTheoryOperators:
    def test_two_block_corner(self):
        toy = random_quadratic_toy(2, (3, 4), 5, seed=2)
        alpha = 0.75
        ops = build_theory_operators(toy.problem, alpha)
        e2 = toy.data[1].gram()
        assert np.allclose(ops.m, e2, atol=1e-12)
        assert np.allclose(ops.h, alpha * np.eye(4), atol=1e-12)
        assert np.allclose(ops.g, alpha * e2, atol=1e-12)

    def test_three_block_identity_maps(self):
        ident = LinearBlockMap(apply=lambda x: x, apply_adjoint=lambda z: z)
        blocks = tuple(
            BlockSpec(map=ident, subsolve=lambda *a: None, shape=(3,),
                      prox=lambda point, t: point, rho=None, einv=lambda v: v)
            for _ in range(3))
        prob = MultiBlockProblem(blocks=blocks, c=np.zeros(3))
        alpha = 0.9
        ops = build_theory_operators(prob, alpha)
        eye = np.eye(3)
        assert np.allclose(ops.m, np.block([[eye, 0 * eye], [eye, eye]]))
        assert np.allclose(ops.h, np.block([[eye, eye], [0 * eye, alpha * eye]]))
        assert np.allclose(ops.g, np.block([[eye, eye], [eye, (1 + alpha) * eye]]))

    def test_positive_definite_on_random_instances(self):
        for seed in range(5):
            toy = random_quadratic_toy(4, (3, 4, 5, 4), 7, seed=seed,
                                       rho_blocks=(1,))
            ops = build_theory_operators(toy.problem, 0.999)
            sym_err = np.abs(ops.g - ops.g.T).max()
            assert sym_err <= 1e-9 * (1 + np.abs(ops.g).max())
            assert np.linalg.eigvalsh(0.5 * (ops.g + ops.g.T)).min() > 0.0

    def test_dimension_cap(self):
        toy = random_quadratic_toy(2, (400, 200), 100, seed=0, rho_blocks=(0, 1))
        with pytest.raises(ValueError, match="dense limit"):
            build_theory_operators(toy.problem, 0.9)


class TestKktResidual:
    def test_zero_at_oracle_point(self):
        toy = random_quadratic_toy(3, (3, 4, 5), 6, seed=21)
        z_star, x_star = toy.kkt_solution()
        assert kkt_residual(toy.problem, z_star, x_star) <= 1e-10

    def test_lower_bounded_by_constraint_norm(self, rng):
        toy = random_quadratic_toy(3, (3, 4, 5), 6, seed=22)
        z = [rng.standard_normal(d) for d in (3, 4, 5)]
        x = rng.standard_normal(6)
        adj = [b.map.apply_adjoint(v) for b, v in zip(toy.problem.blocks, z)]
        fnorm = np.linalg.norm(sum(adj) - toy.problem.c)
        assert kkt_residual(toy.problem, z, x) >= fnorm - 1e-12

    def test_indicator_block_direct_evaluation(self, rng):
        # theta = indicator of the nonnegative orthant, interior point z > 0,
        # map image positive: residual equals || z - max(0, z - A x) ||
        a_adj = np.abs(rng.standard_normal((4, 3))) + 0.1
        block = BlockSpec(
            map=LinearBlockMap(apply=lambda x: a_adj.T @ x,
                               apply_adjoint=lambda z: a_adj @ z),
            subsolve=lambda *a: None, shape=(3,), rho=None,
            prox=lambda point, t: np.maximum(point, 0.0))
        other = BlockSpec(
            map=LinearBlockMap(apply=lambda x: x.copy(),
                               apply_adjoint=lambda z: z.copy()),
            subsolve=lambda *a: None, shape=(4,), rho=None,
            prox=lambda point, t: point)
        prob = MultiBlockProblem(blocks=(block, other), c=np.zeros(4))
        z1 = np.abs(rng.standard_normal(3)) + 1.0
        x = np.abs(rng.standard_normal(4)) + 1.0
        z2 = -a_adj @ z1  # makes the constraint exactly feasible
        res = kkt_residual(prob, [z1, z2], x)
        direct = np.linalg.norm(z1 - np.maximum(z1 - a_adj.T @ x, 0.0))
        assert res == pytest.approx(max(direct, np.linalg.norm(x)), rel=1e-12)

    def test_prox_is_required(self):
        # the residual reads every block's prox, and so does the stopping test
        toy = random_quadratic_toy(2, (3, 3), 4, seed=23)
        with pytest.raises(TypeError, match="'prox'"):
            BlockSpec(map=toy.problem.blocks[0].map,
                      subsolve=toy.problem.blocks[0].subsolve, shape=(3,), rho=None)


class TestSolve:
    def test_feasibility_only_quadratics(self):
        # theta_i = 0: any feasible point is optimal; the constraint residual
        # must vanish
        toy = random_quadratic_toy(3, (3, 4, 5), 6, seed=31, zero_objective=True)
        cfg = SolverConfig(tol=0.0, max_iters=2000)
        res = solve(toy.problem, cfg,
                    stop=lambda state, fnorm: fnorm < 1e-10)
        assert res.status == "Converged"
        adj = [b.map.apply_adjoint(v) for b, v in zip(toy.problem.blocks, res.z)]
        assert np.linalg.norm(sum(adj) - toy.problem.c) < 1e-10

    def test_three_block_matches_kkt_oracle(self):
        toy = random_quadratic_toy(3, (4, 5, 6), 8, seed=32, rho_blocks=(1,))
        z_star, x_star = toy.kkt_solution()
        res = solve(toy.problem, SolverConfig(tol=1e-9, max_iters=5000))
        assert res.status == "Converged"
        for a, b in zip(res.z, z_star):
            assert np.linalg.norm(a - b) <= 1e-6

    def test_starts_at_kkt_point(self):
        toy = random_quadratic_toy(3, (3, 4, 5), 6, seed=33)
        z_star, x_star = toy.kkt_solution()
        res = solve(toy.problem, SolverConfig(tol=1e-8, max_iters=100),
                    z0=z_star, x0=x_star)
        assert res.status == "Converged"
        assert res.iterations <= 1

    def test_tau_history_law(self):
        toy = random_quadratic_toy(4, (3, 4, 4, 3), 6, seed=34, rho_blocks=(2,))
        res = solve(toy.problem, SolverConfig(tol=1e-9, max_iters=4000))
        assert res.status == "Converged"
        assert_tau_law(res.tau_history)
        assert res.tau_history[0] == pytest.approx(1.95)

    def test_correction_identity_along_trajectory(self):
        toy = random_quadratic_toy(4, (3, 4, 5, 4), 7, seed=35, rho_blocks=(1,))
        res = solve(toy.problem, SolverConfig(tol=0.0, max_iters=50),
                    record_history=True)
        ops = build_theory_operators(toy.problem, engine.ALPHA)
        for step in res.history:
            lhs = ops.h @ (w_concat(step["z_tilde"]) - w_concat(step["z_tilde_prev"]))
            rhs = engine.ALPHA * (w_concat(step["z"]) - w_concat(step["z_tilde_prev"]))
            denom = 1.0 + np.linalg.norm(w_concat(step["z_tilde_prev"]))
            assert np.linalg.norm(lhs - rhs) <= 1e-9 * denom

    def test_tilde_invariants_after_every_iteration(self):
        toy = random_quadratic_toy(3, (3, 4, 5), 6, seed=36)
        cfg = SolverConfig(tol=0.0, max_iters=30)
        res = solve(toy.problem, cfg, record_history=True)
        for step in res.history:
            assert np.array_equal(step["z_tilde"][0], step["z"][0])
            assert np.array_equal(step["z_tilde"][-1], step["z"][-1])

    def test_vanishing_changes_on_converged_run(self):
        toy = random_quadratic_toy(3, (4, 5, 6), 8, seed=37)
        cfg = SolverConfig(tol=1e-8, max_iters=5000)
        res = solve(toy.problem, cfg, record_history=True)
        assert res.status == "Converged"
        # each step of the last ten: the blocks after the first against the
        # centres they were computed around, and the multiplier against the
        # previous one
        steps = list(zip(res.history[-11:-1], res.history[-10:]))
        avg_blocks = np.mean([max(np.linalg.norm(z - zt) for z, zt in
                                  zip(step["z"][1:], step["z_tilde_prev"][1:]))
                              for _, step in steps])
        avg_x = np.mean([np.linalg.norm(step["x"] - prev["x"]) for prev, step in steps])
        assert avg_blocks < 10 * cfg.tol
        assert avg_x < 10 * cfg.tol


class TestDirectExtended:
    def test_two_block_classic_regime(self):
        toy = random_quadratic_toy(2, (4, 5), 6, seed=41)
        z_star, _ = toy.kkt_solution()
        res = solve_direct_extended(toy.problem, SolverConfig(tol=1e-9, max_iters=5000),
                                    tau=1.0)
        assert res.status == "Converged"
        for a, b in zip(res.z, z_star):
            assert np.linalg.norm(a - b) <= 1e-6

    def test_three_block_toy_matches_oracle(self):
        toy = random_quadratic_toy(3, (4, 5, 6), 8, seed=42)
        z_star, _ = toy.kkt_solution()
        res = solve_direct_extended(toy.problem,
                                    SolverConfig(tol=1e-9, max_iters=8000), tau=1.0)
        assert res.status == "Converged"
        for a, b in zip(res.z, z_star):
            assert np.linalg.norm(a - b) <= 1e-6

    def test_divergent_instance_is_survived(self):
        prob = divergence_example()
        cfg = SolverConfig(tol=1e-12, max_iters=2000)
        res = solve_direct_extended(prob, cfg, tau=1.0,
                                    z0=[np.ones(1)] * 3, x0=np.ones(3))
        assert res.status in ("MaxIters", "Diverged")
        assert np.isfinite(res.tau_final)

    def test_corrected_handles_the_divergent_instance(self):
        prob = divergence_example()
        res = solve(prob, SolverConfig(tol=0.0, max_iters=3000),
                    stop=lambda state, fnorm: fnorm < 1e-10,
                    z0=[np.ones(1)] * 3, x0=np.ones(3))
        assert res.status == "Converged"


class TestErrorContracts:
    def test_missing_middle_einv_fails_at_construction(self):
        ident = LinearBlockMap(apply=lambda x: x, apply_adjoint=lambda z: z)
        good = BlockSpec(map=ident, subsolve=lambda *a: None, shape=(3,),
                         prox=lambda point, t: point, rho=None, einv=lambda v: v)
        bad = BlockSpec(map=ident, subsolve=lambda *a: None, shape=(3,),
                        prox=lambda point, t: point, rho=None)
        with pytest.raises(ValueError, match="middle block 1"):
            MultiBlockProblem(blocks=(good, bad, good), c=np.zeros(3))
        # first and last blocks never need the inverse
        MultiBlockProblem(blocks=(bad, good, bad), c=np.zeros(3))

    def test_one_block_refused(self):
        toy = random_quadratic_toy(2, (3, 3), 4, seed=24)
        with pytest.raises(ValueError, match="^need at least two blocks$"):
            MultiBlockProblem(blocks=toy.problem.blocks[:1], c=toy.problem.c)

    def test_subsolve_failure_names_the_block(self):
        toy = random_quadratic_toy(3, (3, 4, 5), 6, seed=51)

        def broken(x, r, center, sigma):
            raise np.linalg.LinAlgError("singular")

        blocks = list(toy.problem.blocks)
        blocks[1] = BlockSpec(map=blocks[1].map, subsolve=broken,
                              shape=blocks[1].shape, rho=blocks[1].rho,
                              einv=blocks[1].einv, prox=blocks[1].prox)
        prob = MultiBlockProblem(blocks=tuple(blocks), c=toy.problem.c)
        with pytest.raises(RuntimeError, match="block 1 subproblem"):
            solve(prob, SolverConfig(tol=1e-6, max_iters=5))

    def test_probe_rejects_rho_below_gram_spectrum(self, rng):
        a_adj = rng.standard_normal((5, 3))
        block_map = LinearBlockMap(apply=lambda x: a_adj.T @ x,
                                   apply_adjoint=lambda z: a_adj @ z)
        lam = float(np.linalg.eigvalsh(a_adj.T @ a_adj).max())
        bad = BlockSpec(map=block_map, subsolve=lambda *a: np.zeros(3),
                        shape=(3,), prox=lambda point, t: point, rho=0.1 * lam)
        other = BlockSpec(map=LinearBlockMap(apply=lambda x: x,
                                             apply_adjoint=lambda z: z),
                          subsolve=lambda *a: np.zeros(5), shape=(5,),
                          prox=lambda point, t: point, rho=None)
        prob = MultiBlockProblem(blocks=(other, bad, other), c=np.zeros(5))
        with pytest.raises(ValueError, match="below the Gram spectrum"):
            prob.probe_operators()

    def test_probe_rejects_inconsistent_einv(self, rng):
        a_adj = rng.standard_normal((5, 3))
        block_map = LinearBlockMap(apply=lambda x: a_adj.T @ x,
                                   apply_adjoint=lambda z: a_adj @ z)
        bad = BlockSpec(map=block_map, subsolve=lambda *a: np.zeros(3),
                        shape=(3,), prox=lambda point, t: point, rho=None,
                        einv=lambda v: 2.0 * v)
        other = BlockSpec(map=LinearBlockMap(apply=lambda x: x,
                                             apply_adjoint=lambda z: z),
                          subsolve=lambda *a: np.zeros(5), shape=(5,),
                          prox=lambda point, t: point, rho=None)
        prob = MultiBlockProblem(blocks=(other, bad, other), c=np.zeros(5))
        with pytest.raises(ValueError, match="does not invert"):
            prob.probe_operators()


class TestQuadraticIdentity:
    def test_three_point_identity(self, rng):
        # 2 <u - v, T (u - w)> = ||u-v||_T^2 + ||u-w||_T^2 - ||v-w||_T^2
        for _ in range(20):
            t = random_psd(rng, 6)
            u, v, w = (rng.standard_normal(6) for _ in range(3))
            lhs = 2 * (u - v) @ t @ (u - w)
            rhs = ((u - v) @ t @ (u - v) + (u - w) @ t @ (u - w)
                   - (v - w) @ t @ (v - w))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
