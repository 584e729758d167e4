# -*- coding: utf-8 -*-

"""Shared helpers: random problem data and the independent minimization
oracles the closed-form solvers are checked against."""

import numpy as np
import pytest

from cadmm.cones import ConePattern, project_pattern_dual
from cadmm.engine import TAU0, TAU_BAR
from cadmm.linalg import SparseSymList, project_psd


def random_sym(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) * scale
    return 0.5 * (a + a.T)


def random_psd(rng, n, scale=1.0):
    b = rng.standard_normal((n, n)) * scale
    return b @ b.T / n


def random_constraints(rng, n, m, entries=4):
    """Random sparse symmetric collection with no duplicate entries."""
    rows = []
    for _ in range(m):
        k = int(rng.integers(2, entries + 2))
        i = rng.integers(0, n, size=3 * k)
        j = rng.integers(0, n, size=3 * k)
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        _, keep = np.unique(lo * n + hi, return_index=True)
        keep = keep[:k]
        rows.append((lo[keep], hi[keep], rng.standard_normal(keep.size)))
    return SparseSymList(n, rows)


def random_surjective_constraints(rng, n, m):
    """Dense-ish rows that are linearly independent with probability one."""
    rows = []
    for _ in range(m):
        mat = random_sym(rng, n)
        iu, ju = np.triu_indices(n)
        rows.append((iu, ju, mat[iu, ju]))
    return SparseSymList(n, rows)


def random_pattern(rng, n):
    kinds = rng.integers(0, 3, size=(n, n)).astype(np.int8)
    kinds = np.triu(kinds) + np.triu(kinds, 1).T
    return ConePattern(kinds)


def projected_gradient(grad, project, x0, step, iters=300):
    """Fixed-step projected gradient descent; the oracle path used to
    certify closed-form minimizers."""
    x = np.array(x0, dtype=float)
    for _ in range(iters):
        x = project(x - step * grad(x))
    return x


def pg_oracle_yI(prob, lam, x, r, center, sigma, iters=300):
    """Minimize the literal first-block objective over y >= 0."""
    def grad(y):
        resid = prob.A_I.adjoint(y) + r
        d = y - center
        t_d = lam * d - prob.A_I.apply(prob.A_I.adjoint(d))
        return (-prob.b_I + prob.A_I.apply(x) + sigma * prob.A_I.apply(resid)
                + sigma * t_d)

    start = np.abs(np.ones(prob.A_I.m))
    return projected_gradient(grad, lambda y: np.maximum(y, 0.0),
                              start, 0.45 / (sigma * lam), iters)


def pg_oracle_Z(prob, x, r, sigma, iters=200):
    def grad(z):
        return -prob.M + x + sigma * (z + r)

    start = np.zeros((prob.n, prob.n))
    return projected_gradient(grad, lambda z: project_pattern_dual(z, prob.pattern),
                              start, 0.45 / sigma, iters)


def pg_oracle_S(x, r, sigma, n, iters=200):
    def grad(s):
        return x + sigma * (s + r)

    return projected_gradient(grad, project_psd, np.zeros((n, n)),
                              0.45 / sigma, iters)


def dense_gram_independent(a):
    """Gram matrix assembled from the dense per-constraint matrices,
    independently of the svec storage."""
    mats = [a.matrix(k) for k in range(a.m)]
    g = np.zeros((a.m, a.m))
    for i in range(a.m):
        for j in range(a.m):
            g[i, j] = float(np.vdot(mats[i], mats[j]))
    return g


def assert_tau_law(tau_history, tau_bar=TAU_BAR, tau0=TAU0):
    """Nonincreasing over the whole run, bounded, and absorbing at the
    floor."""
    taus = np.asarray(tau_history, dtype=float)
    assert taus.size == 0 or (taus >= tau_bar - 1e-12).all()
    assert taus.size == 0 or (taus <= tau0 + 1e-12).all()
    assert (np.diff(taus) <= 1e-12).all(), "step size increased"
    hit = np.flatnonzero(np.isclose(taus, tau_bar))
    if hit.size:
        assert np.allclose(taus[hit[0]:], tau_bar), "floor is not absorbing"


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
