# -*- coding: utf-8 -*-

"""
Corrected ADMM specialized to the dual of doubly nonnegative SDPs.

The primal problem is

    max { -<C, X> : A_E X = b_E, A_I X >= b_I, X psd, X - M in K }

with K an entrywise pattern cone; its dual is a 4-block (or 3-block when
the inequality data is absent) linearly constrained program over
(y_I, Z, y_E, S) with constraint A_I* y_I + Z + A_E* y_E + S = C. The
blocks are solved in the order y_I -> Z -> y_E -> S so that the hard
cone constraints sit in the first and last positions and hold exactly
at every iteration. All four subproblems have closed forms: a shifted
nonnegative projection, a dual-pattern projection, a Gram system solve,
and a PSD projection.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import engine
from .cones import (ConePattern, project_nonneg, project_pattern,
                    project_pattern_dual, project_pattern_unchecked, prox_linear,
                    prox_nonneg_linear, prox_pattern_dual_linear, prox_psd_indicator)
from .engine import (ALPHA, CONVERGED, DEXT_TAU, DIVERGED, EPS, MAX_ITERS, TAU0,
                     TAU_BAR, SolveResult, SolverConfig, compute_delta, update_tau)
# project_psd is imported only for perfbench/tracing.py, which wraps it here;
# Tracer.wrap raises KeyError on a name the module lacks.
from .linalg import (GramSingularError, SparseSymList, frob_inner, frob_norm,
                     gram_factor, gram_solve, gram_solve_unchecked, identity_block_map,
                     is_symmetric, lambda_max_gram, project_psd, project_psd_unchecked,
                     psd_distance, psd_distance_below, symmetrize)


@dataclass(frozen=True)
class DnnSdpProblem:
    """Data of one doubly nonnegative SDP in the max form above.

    ``meta`` carries builder bookkeeping (family name, objective offset
    and sense) and never affects the solver.

    C and M must be symmetric to 1e-10 (relative to their largest entry)
    and are stored as 0.5 (A + A^T), exactly symmetric, which the solve
    loop relies on (see ``SolveOperands``); that changes no bit of an
    exactly symmetric matrix.
    """

    n: int
    C: np.ndarray
    A_E: SparseSymList
    b_E: np.ndarray
    A_I: Optional[SparseSymList] = None
    b_I: Optional[np.ndarray] = None
    M: Optional[np.ndarray] = None
    pattern: Optional[ConePattern] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.pattern is None:
            object.__setattr__(self, "pattern", ConePattern.all_nonneg(self.n))
        if self.M is None:
            object.__setattr__(self, "M", np.zeros((self.n, self.n)))
        n = self.n
        for name in ("C", "M"):
            shape = np.shape(getattr(self, name))
            if shape != (n, n):
                raise ValueError(f"{name} has shape {shape}, expected {(n, n)}")
        for name in ("b_E", "b_I"):
            value = getattr(self, name)
            if value is not None and np.ndim(value) != 1:
                raise ValueError(f"{name} has shape {np.shape(value)}, expected a vector")
        if self.pattern.n != n:
            raise ValueError(f"pattern has order {self.pattern.n}, expected {n}")
        for name in ("C", "b_E", "b_I", "M"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(np.asarray(value, dtype=float)).all():
                raise ValueError(f"{name} has non-finite entries")
        for name in ("C", "M"):
            value = np.asarray(getattr(self, name), dtype=float)
            if not is_symmetric(value, 1e-10):
                raise ValueError(f"{name} must be symmetric")
            object.__setattr__(self, name, symmetrize(value))
        if (self.A_I is None) != (self.b_I is None):
            raise ValueError("inequality data needs both A_I and b_I")
        for a, b, s in ((self.A_E, self.b_E, "E"), (self.A_I, self.b_I, "I")):
            if a is not None and a.n != n:
                raise ValueError(f"A_{s} has order {a.n}, expected {n}")
            if a is not None and len(b) != a.m:
                raise ValueError(f"b_{s} has length {len(b)}, expected {a.m} "
                                 f"(the rows of A_{s})")

    @property
    def four_block(self) -> bool:
        return self.A_I is not None

    def validate(self) -> None:
        """Check the structural invariants, including A_E surjectivity
        (the Gram factorization must succeed) and a nonzero A_I; both
        results stay cached on the collections for the solve."""
        try:
            gram_factor(self.A_E)
        except GramSingularError as exc:
            raise GramSingularError(exc.index, f"A_E: {exc}") from exc
        if self.four_block and cached_lambda_max(self) <= 0.0:
            raise ValueError("A_I: inequality constraint map is zero")


@dataclass(slots=True)
class DnnSdpIterate:
    """Blocks, multiplier X and the corrected centres of the middle blocks
    (``t_Z`` is Z in the 3-block case, where Z comes first). The first and
    last blocks are never corrected: their centres are the blocks.

    ``f_full`` is the constraint map A_I* y_I + Z + A_E* y_E + S - C at the
    blocks, as the sweep that made them summed it, and ``adj_yI`` and
    ``adj_t_yE`` are A_I* y_I and A_E* t_yE as it computed them, for the
    next sweep to reuse. Each is None where no sweep computed it: on the
    start, on iterates built by hand, and ``adj_t_yE`` after a correction
    moved t_yE. A sigma change moves no block, so it leaves them valid."""

    Z: np.ndarray
    yE: np.ndarray
    S: np.ndarray
    X: np.ndarray
    t_Z: np.ndarray
    t_yE: np.ndarray
    yI: Optional[np.ndarray] = None
    tau: float = TAU0
    sigma: float = 1.0
    k: int = 0
    f_full: Optional[np.ndarray] = None
    adj_yI: Optional[np.ndarray] = None
    adj_t_yE: Optional[np.ndarray] = None


def initial_iterate(prob: DnnSdpProblem, sigma: float, tau0: float) -> DnnSdpIterate:
    """All-zero start; zero lies in every required cone."""
    zmat = np.zeros((prob.n, prob.n))
    return DnnSdpIterate(
        Z=zmat.copy(), yE=np.zeros(prob.A_E.m), S=zmat.copy(), X=zmat.copy(),
        t_Z=zmat.copy(), t_yE=np.zeros(prob.A_E.m),
        yI=np.zeros(prob.A_I.m) if prob.four_block else None,
        tau=tau0, sigma=sigma, k=0)


def cached_lambda_max(prob: DnnSdpProblem) -> float:
    """Spectral bound rho of A_I A_I*, cached on the A_I collection."""
    a = prob.A_I
    if a._lam_max is None:
        a._lam_max = lambda_max_gram(a)
    return a._lam_max


class SolveOperands:
    """What the sweep and the correction read of one problem, prepared
    once per solve: C, rho = ``cached_lambda_max`` as ``lam`` (None in
    the 3-block case), the maps of A_E and A_I, the Gram solve of A_E, the
    projections onto the dual pattern cone and the PSD cone, and
    ``b_E_s``, ``b_I_s`` and ``M_s``, that is b_E, b_I and M divided by
    sigma, which ``at(sigma)`` remakes only when sigma changes. Making
    them validates the problem (``DnnSdpProblem.validate``).

    The operands call the unchecked cores of the kernels
    (``apply_unchecked``, ``adjoint_unchecked``, ``gram_solve_unchecked``
    with the Gram factor taken here, ``project_pattern_unchecked`` with
    the dual pattern's bounds taken here, and ``project_psd_unchecked``).
    Their checks cannot fail in the solve loop:
    - no input is non-finite: the data is checked finite when the problem
      is made, the start is zero, and every block and X pass the
      divergence guard (norm <= ``engine.DIVERGENCE_GUARD``) before the
      next sweep reads them;
    - every PSD projection input is exactly symmetric, so the
      symmetrization ``project_psd`` makes changes no bit: C and M are
      stored exactly symmetric, the adjoints write one value to both
      triangles, and the blocks, X and the sums the sweep forms are sums
      and projections of exactly symmetric matrices;
    - every shape is the problem's, by construction.
    Nor can they in the generic engine's bridge (``to_multiblock``): the
    engine tests every block and x for divergence before the next sweep
    reads them, and its sums of exactly symmetric terms are exactly
    symmetric.
    """

    __slots__ = ("prob", "four_block", "C", "lam", "apply_E", "adjoint_E", "solve_E",
                 "apply_I", "adjoint_I", "project_dual", "project_psd",
                 "sigma", "b_E_s", "b_I_s", "M_s")

    def __init__(self, prob: DnnSdpProblem):
        prob.validate()
        self.prob, self.four_block, self.C = prob, prob.four_block, prob.C
        self.lam = cached_lambda_max(prob) if prob.four_block else None
        a_E, a_I = prob.A_E, prob.A_I
        self.apply_E, self.adjoint_E = a_E.apply_unchecked, a_E.adjoint_unchecked
        self.apply_I, self.adjoint_I = ((a_I.apply_unchecked, a_I.adjoint_unchecked)
                                        if a_I is not None else (None, None))
        self.solve_E = functools.partial(gram_solve_unchecked, gram_factor(a_E))
        bounds = prob.pattern.dual().bounds()
        self.project_dual = lambda z: project_pattern_unchecked(z, bounds)
        self.project_psd = project_psd_unchecked
        self.sigma = None

    def at(self, sigma: float) -> "SolveOperands":
        """These operands with ``b_E_s``, ``b_I_s`` and ``M_s`` at sigma."""
        if sigma != self.sigma:
            prob = self.prob
            self.sigma = sigma
            self.b_E_s = prob.b_E / sigma
            self.b_I_s = prob.b_I / sigma if self.four_block else None
            self.M_s = prob.M / sigma
        return self


# ---------------------------------------------------------------------------
# Closed-form subproblem solvers. Each takes the solve's ``SolveOperands``,
# the scaled multiplier xs = x/sigma, the partial residual r (all other
# blocks' constraint contributions minus C) and the proximal center. The
# sweep forms xs once; the generic engine's subsolves (``to_multiblock``)
# divide before they call, so the same functions back both the specialized
# stepper and the generic BlockSpecs.

def update_yI(ops: SolveOperands, xs: np.ndarray, r: np.ndarray,
              center: np.ndarray, center_adj: np.ndarray, sigma: float) -> np.ndarray:
    """First-block update with the rho*I - A_I A_I* proximal operator,
    rho = ``ops.lam``.

    The semi-proximal choice collapses the quadratic to sigma*rho/2 ||y||^2
    plus linear terms, so the minimizer is a nonnegative projection of
    center + (b_I/sigma - A_I(xs + r + A_I* center)) / rho, where
    ``xs`` is x/sigma and ``center_adj`` is A_I* center.
    """
    ops.at(sigma)
    w_full = xs + r + center_adj
    v = center + (ops.b_I_s - ops.apply_I(w_full)) / ops.lam
    return project_nonneg(v)


def update_Z(ops: SolveOperands, xs: np.ndarray, r: np.ndarray, sigma: float) -> np.ndarray:
    """Projection onto the dual pattern cone of M/sigma - xs - r, with
    ``xs`` = x/sigma."""
    ops.at(sigma)
    return ops.project_dual(ops.M_s - xs - r)


def update_yE(ops: SolveOperands, xs: np.ndarray, r: np.ndarray, sigma: float) -> np.ndarray:
    """Unconstrained linear-block minimizer via the cached Gram factor;
    ``xs`` is x/sigma."""
    ops.at(sigma)
    return ops.solve_E(ops.b_E_s - ops.apply_E(xs + r))


def update_S(ops: SolveOperands, xs: np.ndarray, r: np.ndarray) -> np.ndarray:
    """PSD projection of -r - xs, with ``xs`` = x/sigma."""
    return ops.project_psd(-r - xs)


def _sweep(it: DnnSdpIterate, ops: SolveOperands):
    """Gauss-Seidel sweep y_I -> Z -> y_E -> S with proximal centres at
    ``it.yI``, ``it.t_Z``, ``it.t_yE`` and ``it.S``, through the kernels
    of ``ops``. The adjoints at the centres are taken from ``it.adj_yI``
    and ``it.adj_t_yE`` where the previous sweep left them, and computed
    where it did not.

    Returns ``(yI, Z, yE, S, f_pred, f_full, adj_yI, adj_yE)``: the new
    blocks (``yI`` is None in the 3-block case), the constraint map
    A_I* y_I + Z + A_E* y_E + S - C after the first block only and after
    all of them, and the adjoints A_I* y_I (None in the 3-block case) and
    A_E* y_E at the new blocks.

    Every sum adds the block terms in sweep order, each block at its new
    value once updated and at its centre before, leaving out the block
    being updated, and subtracts C last. Two prefixes are shared:
    P = A_I* y_I + Z (Z alone in the 3-block case) and
    Q = P + A_E* y_E. The y_E input is P + S - C, the S input Q - C and
    ``f_full`` Q + S - C.
    """
    C, S0, sigma = ops.C, it.S, it.sigma
    xs = it.X / sigma
    adj_t_yE = it.adj_t_yE if it.adj_t_yE is not None else ops.adjoint_E(it.t_yE)
    yI = adj_yI = None
    if ops.four_block:
        center_adj = it.adj_yI if it.adj_yI is not None else ops.adjoint_I(it.yI)
        r = it.t_Z + adj_t_yE
        r += S0
        r -= C
        yI = update_yI(ops, xs, r, it.yI, center_adj, sigma)
        adj_yI = ops.adjoint_I(yI)
        r = adj_yI + adj_t_yE
        r += S0
        r -= C
        Z = update_Z(ops, xs, r, sigma)
        f_pred = adj_yI + it.t_Z
        f_pred += adj_t_yE
        P = adj_yI + Z
    else:
        r = adj_t_yE + S0
        r -= C
        Z = update_Z(ops, xs, r, sigma)
        f_pred = Z + adj_t_yE
        P = Z
    f_pred += S0
    f_pred -= C
    r = P + S0
    r -= C
    yE = update_yE(ops, xs, r, sigma)
    adj_yE = ops.adjoint_E(yE)
    Q = P + adj_yE
    S = update_S(ops, xs, Q - C)
    f_full = Q
    f_full += S
    f_full -= C
    return yI, Z, yE, S, f_pred, f_full, adj_yI, adj_yE


def cadmm_step(it: DnnSdpIterate, ops: SolveOperands) -> DnnSdpIterate:
    """One full corrected iteration: prediction sweep in the order
    y_I -> Z -> y_E -> S, adaptive multiplier step, then correction of the
    middle blocks (y_E, and Z in the 4-block case) against the corrected
    base points."""
    yI_new, Z_new, yE_new, S_new, f_pred, f_full, adj_yI, _ = _sweep(it, ops)
    dS = S_new - it.S
    if it.k == 0:
        tau_k = TAU0
    else:
        delta = compute_delta(f_pred, f_full, float(np.vdot(dS, dS)), EPS)
        tau_k = update_tau(it.tau, delta, TAU_BAR)
    X_new = it.X + (tau_k * it.sigma) * f_full

    # Correction, backwards over the middle blocks; last and first blocks
    # (and the multiplier) keep their predicted values.
    t_yE_new = it.t_yE + ALPHA * (yE_new - it.t_yE) - ops.solve_E(ops.apply_E(dS))
    if ops.four_block:
        d = ops.adjoint_E(t_yE_new - it.t_yE) + dS
        t_Z_new = it.t_Z + ALPHA * (Z_new - it.t_Z) - d
    else:
        t_Z_new = Z_new

    return DnnSdpIterate(
        Z=Z_new, yE=yE_new, S=S_new, X=X_new, t_Z=t_Z_new, t_yE=t_yE_new,
        yI=yI_new, tau=tau_k, sigma=it.sigma, k=it.k + 1, f_full=f_full,
        adj_yI=adj_yI)


def dext_step(it: DnnSdpIterate, ops: SolveOperands, tau: float) -> DnnSdpIterate:
    """Directly extended iteration: the same sweep, a fixed multiplier step
    and no correction. The centres ``t_Z`` and ``t_yE`` are set to the new
    iterates, so the next sweep is centred at the previous iterates and
    reuses this sweep's A_E* y_E."""
    yI_new, Z_new, yE_new, S_new, _, f_full, adj_yI, adj_yE = _sweep(it, ops)
    X_new = it.X + (tau * it.sigma) * f_full
    return DnnSdpIterate(
        Z=Z_new, yE=yE_new, S=S_new, X=X_new, t_Z=Z_new, t_yE=yE_new,
        yI=yI_new, tau=tau, sigma=it.sigma, k=it.k + 1, f_full=f_full,
        adj_yI=adj_yI, adj_t_yE=adj_yE)


# ---------------------------------------------------------------------------
# Residuals and certification.

@dataclass(frozen=True)
class ResidualReport:
    """Relative KKT residual components; ``eta`` is the max of the present
    ones and ``eta_g`` the signed relative gap between <C, X> and the dual
    objective b_E.y_E (+ b_I.y_I) + <M, Z> (informational).

    In a report the solve loop makes (``residuals`` with ``f_full``),
    ``eta_S`` may be an upper bound instead of the value: half the largest
    of ``eta_P``, ``eta_K`` and ``eta_I``, when a Cholesky factorization
    certifies that the value is below it. ``eta`` and the primal maximum
    max(eta_P, eta_S, eta_K, eta_I) are then the same as with the value.
    A report made without ``f_full``, such as the one a run returns,
    holds the value.

    The loop makes such a report only on the iterations whose lower bound
    max(eta_P, eta_D, eta_K, eta_I) is below the tolerance and at the
    sigma checks; its callback gets None on the others."""

    eta_P: float
    eta_D: float
    eta_S: float
    eta_K: float
    eta_Sstar: float
    eta_Kstar: float
    eta_C1: float
    eta_C2: float
    eta_I: Optional[float] = None
    eta_Istar: Optional[float] = None
    eta_g: float = math.nan

    @property
    def eta(self) -> float:
        return max(self.components().values())

    def components(self) -> dict:
        """The present components of eta by name, in field order."""
        return {k: v for k, v in vars(self).items() if k != "eta_g" and v is not None}


def _data_scales(prob: DnnSdpProblem) -> tuple:
    """``(1 + ||b_E||, 1 + ||C||, 1 + ||b_I||)``, the fixed denominators of
    eta_P, eta_D and eta_I; the last is None in the 3-block case."""
    return (1.0 + float(np.linalg.norm(prob.b_E)), 1.0 + float(np.linalg.norm(prob.C)),
            1.0 + float(np.linalg.norm(prob.b_I)) if prob.four_block else None)


def _feasibility(it: DnnSdpIterate, prob: DnnSdpProblem, dual_res: np.ndarray,
                 norm_X: float, scales: tuple):
    """Yields eta_D, eta_P, eta_K and eta_I (None in the 3-block case),
    cheapest first, from the constraint map ``dual_res``,
    ``norm_X = ||X||`` and ``scales = _data_scales(prob)``. ``residuals``
    takes all four; the solve loop takes them only until one shows that
    eta is not below the tolerance. Both read the same values."""
    X = it.X
    scale_E, scale_C, scale_I = scales
    yield frob_norm(dual_res) / scale_C
    yield frob_norm(prob.A_E.apply(X) - prob.b_E) / scale_E
    yield frob_norm(project_pattern_dual(-(X - prob.M), prob.pattern)) / (
        1.0 + norm_X)
    yield (frob_norm(np.maximum(0.0, prob.b_I - prob.A_I.apply(X))) / scale_I
           if prob.four_block else None)


def residuals(it: DnnSdpIterate, prob: DnnSdpProblem,
              f_full: Optional[np.ndarray] = None) -> ResidualReport:
    """Relative primal/dual feasibility, cone and complementarity
    residuals of the current primal-dual tuple.

    The pattern-cone feasibility of X is measured on the shifted matrix
    X - M; cone distances are computed through the complementary
    projection (the Moreau decomposition), which for the all-nonnegative
    self-dual patterns reduces to projecting the negated matrix. The PSD
    distances of X and S come from eigenvalues alone.

    ``f_full`` certifies an iterate from the sweep that made it: the
    constraint map at its blocks, as the sweep summed it (``it.f_full``).
    ``eta_D`` is then read from it, and the dual cone residuals are 0.0,
    because y_I, Z and S are that sweep's projections onto their cones.
    ``eta_S`` is then half the largest other primal component whenever
    ``psd_distance_below`` certifies that bound, and the eigenvalues of X
    are computed only when it does not. Without ``f_full`` every
    component is recomputed from the blocks.

    The solve loop makes this full report only on the iterations that
    read it: where its lower bound max(eta_P, eta_D, eta_K, eta_I) is
    below the tolerance, and at the sigma checks (see ``_solve``).
    """
    X, S, Z, yE = it.X, it.S, it.Z, it.yE
    C = prob.C
    norm_X = frob_norm(X)
    norm_S = frob_norm(S)
    norm_Z = frob_norm(Z)

    if f_full is not None:
        dual_res = f_full
    elif prob.four_block:
        dual_res = prob.A_I.adjoint(it.yI) + Z + prob.A_E.adjoint(yE) + S - C
    else:
        dual_res = prob.A_E.adjoint(yE) + S + Z - C
    eta_D, eta_P, eta_K, eta_I = _feasibility(it, prob, dual_res, norm_X,
                                              _data_scales(prob))
    eta_Istar = None
    if prob.four_block:
        eta_Istar = 0.0
        if f_full is None:
            eta_Istar = frob_norm(np.maximum(0.0, -it.yI)) / (
                1.0 + frob_norm(it.yI))
    if f_full is not None:
        # a bound, when one Cholesky factorization shows it is below the
        # other primal components (see ResidualReport)
        half = 0.5 * max(eta_P, eta_K, eta_I or 0.0)
        eta_S = (half if psd_distance_below(X, half * (1.0 + norm_X))
                 else psd_distance(X) / (1.0 + norm_X))
        eta_Sstar = eta_Kstar = 0.0
    else:
        eta_S = psd_distance(X) / (1.0 + norm_X)
        eta_Sstar = psd_distance(S) / (1.0 + norm_S)
        eta_Kstar = frob_norm(project_pattern(-Z, prob.pattern)) / (
            1.0 + norm_Z)
    eta_C1 = abs(frob_inner(X, S)) / (1.0 + norm_X + norm_S)
    eta_C2 = abs(frob_inner(X - prob.M, Z)) / (1.0 + norm_X + norm_Z)

    obj = objective_values(prob, it)
    cx, bey, mz = obj["cx"], obj["b_E_y"], obj["M_Z"]
    biy = obj.get("b_I_y", 0.0)
    eta_g = (cx - (bey + biy + mz)) / (1.0 + abs(cx + bey + biy + mz))
    return ResidualReport(eta_P, eta_D, eta_S, eta_K, eta_Sstar, eta_Kstar,
                          eta_C1, eta_C2, eta_I, eta_Istar, eta_g)


# ---------------------------------------------------------------------------
# Penalty tuning.

# The fixed settings of tune_sigma.
BALANCE_RATIO = 5.0
SIGMA_FACTOR = 1.5
SIGMA_MIN = 1e-4
SIGMA_MAX = 1e4
FREEZE_FRACTION = 0.75


@dataclass(frozen=True)
class TuningPolicy:
    """Residual-balancing adjustment of sigma every ``check_period``
    iterations; 0 turns it off."""

    check_period: int = 50

    def __post_init__(self):
        for name, value in vars(self).items():
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")

    @classmethod
    def disabled(cls) -> "TuningPolicy":
        """The paper's method: a fixed sigma."""
        return cls(check_period=0)


def sigma_check_due(k: int, policy: TuningPolicy, freeze_after: int) -> bool:
    """Whether ``tune_sigma`` acts at iteration k: every ``check_period``
    iterations while k is below the freeze point."""
    return policy.check_period > 0 and k % policy.check_period == 0 and k < freeze_after


def tune_sigma(report: ResidualReport, sigma: float, k: int,
               policy: TuningPolicy, freeze_after: int) -> float:
    """Rescale sigma to balance primal and dual feasibility progress.

    Larger sigma drives the dual-side residuals down and starves the
    primal side (the multiplier X carries the primal variable here), so
    when the primal group lags sigma is decreased and vice versa. Only
    acts where ``sigma_check_due``; after the freeze point sigma is left
    alone so the fixed-penalty convergence behaviour takes over.
    """
    if not sigma_check_due(k, policy, freeze_after):
        return sigma
    primal = max(report.eta_P, report.eta_S, report.eta_K)
    dual = max(report.eta_D, report.eta_Sstar, report.eta_Kstar, 1e-16)
    if report.eta_I is not None:
        # the inequality residuals sit on the same primal/dual split
        primal = max(primal, report.eta_I)
        dual = max(dual, report.eta_Istar)
    ratio = primal / dual
    if ratio > BALANCE_RATIO:
        return max(sigma / SIGMA_FACTOR, SIGMA_MIN)
    if ratio < 1.0 / BALANCE_RATIO:
        return min(sigma * SIGMA_FACTOR, SIGMA_MAX)
    return sigma


# Uncalled placeholder: perfbench/tracing.py wraps this name.
def maybe_restart(*args):
    pass


# ---------------------------------------------------------------------------
# Full solver loops.

def _diverged(it: DnnSdpIterate, norm_X: Optional[float] = None) -> Optional[tuple]:
    """``(name, norm)`` of the first block, in sweep order and then X,
    whose norm fails the divergence guard; None when every block passes.
    ``norm_X`` is ||X|| when the caller already has it."""
    guard = engine.DIVERGENCE_GUARD
    # A NaN or inf entry makes the norm NaN or inf, and so does a finite
    # block whose norm overflows; neither passes the comparison.
    for name, b in (("yI", it.yI), ("Z", it.Z), ("yE", it.yE), ("S", it.S)):
        if b is not None:
            norm = frob_norm(b)
            if not norm <= guard:
                return name, norm
    if norm_X is None:
        norm_X = frob_norm(it.X)
    return None if norm_X <= guard else ("X", norm_X)


def _solve(prob: DnnSdpProblem, cfg: Optional[SolverConfig],
           policy: Optional[TuningPolicy], callback, step) -> SolveResult:
    """The solve loop shared by the corrected and the directly extended
    method, with default settings where ``cfg`` or ``policy`` is None;
    ``step(it, ops)`` makes one iteration from the ``SolveOperands`` that
    are prepared here once, which validate the problem and whose kernels
    skip their checks. A diverged iterate is caught before anything reads
    it (overflow is silent, so an overflowing norm reads inf), and the run
    then reports no residuals.

    Each iterate is first held against the lower bound
    max(eta_P, eta_D, eta_K, eta_I) of its eta, one component at a time,
    cheapest first, until one reaches ``cfg.tol``. The full report,
    certified from the sweep's constraint map by
    ``residuals(it, prob, it.f_full)``, is made only where it is read:
    where the bound is below ``cfg.tol``, so the run may stop, and where
    a sigma check is due (``sigma_check_due``). Elsewhere eta is at
    least the bound, so the run cannot stop, and ``callback(it, report)``
    gets ``report=None``. The run stops at the same iteration as with a
    full report on every iterate. The report and residual the run
    returns are recomputed in full from the blocks."""
    ops = SolveOperands(prob)
    cfg, policy = cfg or SolverConfig(), policy or TuningPolicy()
    max_iters = cfg.max_iters or (40000 if prob.four_block else 20000)
    freeze_after = int(FREEZE_FRACTION * max_iters)
    scales = _data_scales(prob)

    it = initial_iterate(prob, cfg.sigma, TAU0)
    tau_history: list = []
    full_etas: list = []  # (k, eta) of the last full reports
    oversized = None
    status = MAX_ITERS
    t0 = time.perf_counter()
    with np.errstate(over="ignore"):
        while it.k < max_iters:
            it = step(it, ops)
            tau_history.append(it.tau)
            norm_X = frob_norm(it.X)
            oversized = _diverged(it, norm_X)
            if oversized:
                status = DIVERGED
                break
            # eta is at least each of these components, so the run may stop
            # only when all are below tol; all() stops at the first that is not
            may_stop = all(e is None or e < cfg.tol
                           for e in _feasibility(it, prob, it.f_full, norm_X, scales))
            report = None
            if may_stop or sigma_check_due(it.k, policy, freeze_after):
                report = residuals(it, prob, it.f_full)
                full_etas = [*full_etas[-2:], (it.k, report.eta)]
            if callback is not None:
                callback(it, report)
            if report is None:
                continue
            if report.eta < cfg.tol:
                status = CONVERGED
                break
            new_sigma = tune_sigma(report, it.sigma, it.k, policy, freeze_after)
            if new_sigma != it.sigma:
                it = replace(it, sigma=new_sigma)
        report = residuals(it, prob) if status != DIVERGED else None
    wall = time.perf_counter() - t0
    return SolveResult(
        status=status, iterations=it.k,
        residual=report.eta if report is not None else math.inf,
        z=[it.Z, it.yE, it.S] if not prob.four_block else [it.yI, it.Z, it.yE, it.S],
        x=it.X, tau_final=it.tau, tau_history=tau_history, wall_seconds=wall,
        report=report, sigma_final=it.sigma,
        message="" if status != DIVERGED else
        f"non-finite or oversized iterate at k={it.k}: {oversized[0]} has norm "
        f"{oversized[1]:.2e}; eta of the last full reports: "
        + (", ".join(f"{e:.2e} at k={k}" for k, e in full_etas) or "none"))


def cadmm_solve(prob: DnnSdpProblem, cfg: SolverConfig = None,
                policy: TuningPolicy = None, callback=None) -> SolveResult:
    """Corrected ADMM with sigma balancing; terminates when the max
    relative residual eta drops below ``cfg.tol``. The step size tau
    never increases over the run.

    ``callback(it, report)`` runs after every iteration. ``report`` is the
    in-loop full report on the iterations that make one (a lower bound of
    eta below ``cfg.tol``, or a sigma check) and None on the others; see
    ``_solve``. The returned report is the full recomputation at the last
    iterate."""
    return _solve(prob, cfg, policy, callback, cadmm_step)


def check_tau(tau: float) -> None:
    """Refuse a multiplier step that is not positive and finite."""
    if not 0.0 < tau < math.inf:
        raise ValueError(f"tau must be positive and finite, got {tau}")


def dext_solve(prob: DnnSdpProblem, cfg: SolverConfig = None, tau: float = DEXT_TAU,
               policy: TuningPolicy = None, callback=None) -> SolveResult:
    """Directly extended ADMM baseline on the same problem with the fixed
    multiplier step ``tau`` (positive and finite); no convergence
    guarantee, same termination measure, sigma balancing and divergence
    guard."""
    check_tau(tau)
    return _solve(prob, cfg, policy, callback,
                  lambda it, ops: dext_step(it, ops, tau))


def objective_values(prob: DnnSdpProblem, it_or_result) -> dict:
    """Primal/dual objective bookkeeping at a solution tuple."""
    if isinstance(it_or_result, SolveResult):
        X, z = it_or_result.x, it_or_result.z
        yI, Z, yE = z[:3] if prob.four_block else (None, *z[:2])
    else:
        it = it_or_result
        X, Z, yE, yI = it.X, it.Z, it.yE, it.yI
    cx = frob_inner(prob.C, X)
    out = {"cx": cx, "primal": -cx, "b_E_y": float(prob.b_E @ yE),
           "M_Z": frob_inner(prob.M, Z)}
    if yI is not None:
        out["b_I_y"] = float(prob.b_I @ yI)
    return out


# ---------------------------------------------------------------------------
# Bridge to the generic engine: the same closed-form solvers wrapped as
# BlockSpecs, for cross-checking the specialized loop trajectory.

def to_multiblock(prob: DnnSdpProblem):
    """Equivalent generic multi-block problem (shared right-hand side C),
    whose subsolves share one ``SolveOperands`` of ``prob``; making them
    validates ``prob``.

    Returns ``(MultiBlockProblem, z0, x0)`` with all-zero starting data
    matching :func:`initial_iterate`.
    """
    n = prob.n
    ops = SolveOperands(prob)
    ident = identity_block_map()
    z_block = engine.BlockSpec(
        map=ident,
        subsolve=lambda x, r, center, sigma: update_Z(ops, x / sigma, r, sigma),
        shape=(n, n), rho=None, einv=lambda v: v,
        prox=prox_pattern_dual_linear(prob.M, prob.pattern))
    ye_block = engine.BlockSpec(
        map=prob.A_E.as_block_map(),
        subsolve=lambda x, r, center, sigma: update_yE(ops, x / sigma, r, sigma),
        shape=(prob.A_E.m,), rho=None,
        einv=lambda v: gram_solve(prob.A_E, v),
        prox=prox_linear(prob.b_E))
    s_block = engine.BlockSpec(
        map=ident,
        subsolve=lambda x, r, center, sigma: update_S(ops, x / sigma, r),
        shape=(n, n), rho=None, einv=lambda v: v,
        prox=prox_psd_indicator())
    if prob.four_block:
        yi_block = engine.BlockSpec(
            map=prob.A_I.as_block_map(),
            subsolve=lambda x, r, center, sigma: update_yI(
                ops, x / sigma, r, center, ops.adjoint_I(center), sigma),
            shape=(prob.A_I.m,), rho=ops.lam,
            prox=prox_nonneg_linear(prob.b_I))
        blocks = (yi_block, z_block, ye_block, s_block)
    else:
        blocks = (z_block, ye_block, s_block)
    mb = engine.MultiBlockProblem(blocks=blocks, c=np.asarray(prob.C, dtype=float))
    return mb, mb.zeros(), np.zeros((n, n))
