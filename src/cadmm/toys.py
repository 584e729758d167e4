# -*- coding: utf-8 -*-

"""
Small dense quadratic multi-block instances with exact subproblem solvers
and a dense KKT oracle. Used by the self checks, the demos and the test
suite to certify the generic engine on problems whose solution is a
linear solve away.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import BlockSpec, LinearBlockMap, MultiBlockProblem


@dataclass(frozen=True)
class QuadraticBlockData:
    """theta(z) = z' P z / 2 + <q, z> with a dense constraint map."""

    p_mat: np.ndarray
    q_vec: np.ndarray
    a_adj: np.ndarray        # x_dim x d, the matrix of A* (columns map block coords)
    rho: float | None        # None -> T = 0, else T = rho I - A A*

    @property
    def dim(self) -> int:
        return len(self.q_vec)

    def gram(self) -> np.ndarray:
        return self.a_adj.T @ self.a_adj


def _make_block(data: QuadraticBlockData) -> BlockSpec:
    a_adj = data.a_adj
    gram = data.gram()
    d = data.dim
    t_mat = np.zeros((d, d)) if data.rho is None else data.rho * np.eye(d) - gram
    hess_base = gram + t_mat

    def subsolve(x, r, center, sigma):
        # stationarity of theta(z) + <x, A*z> + sigma/2 ||A*z + r||^2
        #                + sigma/2 ||z - center||^2_T
        hess = data.p_mat + sigma * hess_base
        rhs = -data.q_vec - a_adj.T @ x - sigma * (a_adj.T @ r) + sigma * (t_mat @ center)
        return np.linalg.solve(hess, rhs)

    def prox(point, t):
        return np.linalg.solve(data.p_mat + np.eye(d) / t,
                               point / t - data.q_vec)

    einv = None
    if data.rho is None:
        e_inv_mat = np.linalg.inv(gram)
        einv = lambda v: e_inv_mat @ v

    block_map = LinearBlockMap(apply=lambda x: a_adj.T @ x,
                               apply_adjoint=lambda z: a_adj @ z)
    return BlockSpec(map=block_map, subsolve=subsolve, shape=(d,),
                     rho=data.rho, einv=einv, prox=prox)


@dataclass(frozen=True)
class QuadraticToy:
    data: tuple
    problem: MultiBlockProblem

    def kkt_solution(self):
        """Solve the equality-constrained QP by its dense KKT system."""
        dims = [b.dim for b in self.data]
        x_dim = len(self.problem.c)
        total = sum(dims)
        kkt = np.zeros((total + x_dim, total + x_dim))
        rhs = np.zeros(total + x_dim)
        off = 0
        for b in self.data:
            d = b.dim
            kkt[off:off + d, off:off + d] = b.p_mat
            kkt[off:off + d, total:] = b.a_adj.T
            kkt[total:, off:off + d] = b.a_adj
            rhs[off:off + d] = -b.q_vec
            off += d
        rhs[total:] = self.problem.c
        sol = np.linalg.solve(kkt, rhs)
        z_star = []
        off = 0
        for d in dims:
            z_star.append(sol[off:off + d])
            off += d
        return z_star, sol[total:]


def random_quadratic_toy(p: int, dims, x_dim: int, seed: int,
                         rho_blocks=(), zero_objective: bool = False) -> QuadraticToy:
    """Random strongly convex p-block toy.

    ``rho_blocks`` lists block indices that get the rho I - A A* proximal
    operator (rho = 1.1 * lambda_max(A A*)); the rest use T = 0 with
    surjective maps so the correction inverses exist. With
    ``zero_objective`` the blocks are pure feasibility (theta = 0).
    """
    rng = np.random.default_rng(seed)
    datas = []
    for i in range(p):
        d = dims[i]
        if zero_objective:
            p_mat = np.zeros((d, d))
            q_vec = np.zeros(d)
        else:
            g = rng.standard_normal((d, d))
            p_mat = g @ g.T / d + 0.5 * np.eye(d)
            q_vec = rng.standard_normal(d)
        a_adj = rng.standard_normal((x_dim, d))
        if i in rho_blocks:
            rho = 1.1 * float(np.linalg.eigvalsh(a_adj.T @ a_adj).max())
        else:
            rho = None
            if d > x_dim:
                raise ValueError("T = 0 blocks need d <= x_dim for surjectivity")
        datas.append(QuadraticBlockData(p_mat=p_mat, q_vec=q_vec, a_adj=a_adj, rho=rho))
    # make the constraint satisfiable with a known point
    z_feas = [rng.standard_normal(b.dim) for b in datas]
    c = sum(b.a_adj @ z for b, z in zip(datas, z_feas))
    blocks = tuple(_make_block(b) for b in datas)
    return QuadraticToy(data=tuple(datas),
                        problem=MultiBlockProblem(blocks=blocks, c=c))


def divergence_example() -> MultiBlockProblem:
    """The classic 3-block feasibility instance on which the directly
    extended ADMM fails to converge: three scalar blocks whose adjoint
    columns are (1,1,1), (1,1,2), (1,2,2) and right-hand side zero."""
    cols = [np.array([1.0, 1.0, 1.0]), np.array([1.0, 1.0, 2.0]),
            np.array([1.0, 2.0, 2.0])]
    blocks = []
    for a in cols:
        a_adj = a.reshape(3, 1)
        gram = float(a @ a)

        def subsolve(x, r, center, sigma, a=a, gram=gram):
            return np.array([-(a @ (x / sigma + r)) / gram])

        blocks.append(BlockSpec(
            map=LinearBlockMap(apply=lambda x, a=a: np.array([a @ x]),
                               apply_adjoint=lambda z, a_adj=a_adj: a_adj @ z),
            subsolve=subsolve, shape=(1,), rho=None,
            einv=lambda v, gram=gram: v / gram,
            prox=lambda point, t: point))
    return MultiBlockProblem(blocks=tuple(blocks), c=np.zeros(3))
