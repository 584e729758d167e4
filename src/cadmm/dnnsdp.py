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

import math
import time
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import engine
from .cones import (ConePattern, project_nonneg, project_pattern,
                    project_pattern_dual, prox_linear, prox_nonneg_linear,
                    prox_pattern_dual_linear, prox_psd_indicator)
from .engine import (ALPHA, CONVERGED, DEXT_TAU, DIVERGED, EPS, MAX_ITERS, TAU0,
                     TAU_BAR, SolveResult, SolverConfig, compute_delta, update_tau)
from .linalg import (GramSingularError, SparseSymList, frob_inner, gram_factor,
                     gram_solve, identity_block_map, is_symmetric,
                     lambda_max_gram, project_psd, psd_distance)


@dataclass(frozen=True)
class DnnSdpProblem:
    """Data of one doubly nonnegative SDP in the max form above.

    ``meta`` carries builder bookkeeping (family name, objective offset
    and sense) and never affects the solver.
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
        for name in ("C", "b_E", "b_I", "M"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(np.asarray(value, dtype=float)).all():
                raise ValueError(f"{name} has non-finite entries")
        if not is_symmetric(self.C, 1e-10):
            raise ValueError("C must be symmetric")
        if self.A_E.n != self.n or len(self.b_E) != self.A_E.m:
            raise ValueError("equality data dimensions disagree")
        if (self.A_I is None) != (self.b_I is None):
            raise ValueError("inequality data needs both A_I and b_I")
        if self.A_I is not None and (self.A_I.n != self.n or len(self.b_I) != self.A_I.m):
            raise ValueError("inequality data dimensions disagree")

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
    blocks, as the sweep that made them summed it; it is None on the start
    and on iterates built by hand. A sigma change or a restart moves no
    block, so it stays valid across both."""

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


def initial_iterate(prob: DnnSdpProblem, sigma: float, tau0: float) -> DnnSdpIterate:
    """All-zero start; zero lies in every required cone."""
    zmat = np.zeros((prob.n, prob.n))
    return DnnSdpIterate(
        Z=zmat.copy(), yE=np.zeros(prob.A_E.m), S=zmat.copy(), X=zmat.copy(),
        t_Z=zmat.copy(), t_yE=np.zeros(prob.A_E.m),
        yI=np.zeros(prob.A_I.m) if prob.four_block else None,
        tau=tau0, sigma=sigma, k=0)


# ---------------------------------------------------------------------------
# Closed-form subproblem solvers. Each takes the multiplier x, the partial
# residual r (all other blocks' constraint contributions minus C) and the
# proximal center, exactly as the generic engine passes them, so the same
# functions back both the specialized stepper and the generic BlockSpecs.

def update_yI(prob: DnnSdpProblem, lam: float, x: np.ndarray, r: np.ndarray,
              center: np.ndarray, sigma: float) -> np.ndarray:
    """First-block update with the rho*I - A_I A_I* proximal operator.

    The semi-proximal choice collapses the quadratic to sigma*lam/2 ||y||^2
    plus linear terms, so the minimizer is a nonnegative projection of
    center + (b_I/sigma - A_I(x/sigma + r + A_I* center)) / lam.
    """
    if lam <= 0.0:
        raise ValueError("lambda_max(A_I A_I*) must be positive")
    w_full = x / sigma + r + prob.A_I.adjoint(center)
    v = center + (prob.b_I / sigma - prob.A_I.apply(w_full)) / lam
    return project_nonneg(v)


def update_Z(prob: DnnSdpProblem, x: np.ndarray, r: np.ndarray,
             sigma: float) -> np.ndarray:
    """Projection onto the dual pattern cone of M/sigma - x/sigma - r."""
    return project_pattern_dual(prob.M / sigma - x / sigma - r, prob.pattern)


def update_yE(prob: DnnSdpProblem, x: np.ndarray, r: np.ndarray,
              sigma: float) -> np.ndarray:
    """Unconstrained linear-block minimizer via the cached Gram factor."""
    rhs = prob.b_E / sigma - prob.A_E.apply(x / sigma + r)
    return gram_solve(prob.A_E, rhs)


def update_S(x: np.ndarray, r: np.ndarray, sigma: float) -> np.ndarray:
    """PSD projection of -r - x/sigma."""
    return project_psd(-r - x / sigma)


def cached_lambda_max(prob: DnnSdpProblem) -> float:
    """Spectral bound rho of A_I A_I*, cached on the A_I collection."""
    a = prob.A_I
    if a._lam_max is None:
        a._lam_max = lambda_max_gram(a)
    return a._lam_max


def _sweep(it: DnnSdpIterate, prob: DnnSdpProblem):
    """Gauss-Seidel sweep y_I -> Z -> y_E -> S with proximal centres at
    ``it.yI``, ``it.t_Z``, ``it.t_yE`` and ``it.S``.

    Returns ``(yI, Z, yE, S, f_pred, f_full)``: the new blocks (``yI`` is
    None in the 3-block case) and the constraint map
    A_I* y_I + Z + A_E* y_E + S - C after the first block only and after
    all of them.
    """
    # Constraint contribution of each block in sweep order, at its centre
    # until the block is updated (the first block's is never read).
    terms = {"Z": it.t_Z, "yE": prob.A_E.adjoint(it.t_yE), "S": it.S}
    if prob.four_block:
        terms = {"yI": None, **terms}

    def f(skip=None):
        rest = [t for name, t in terms.items() if name != skip]
        return sum(rest[1:], rest[0]) - prob.C

    yI = None
    if prob.four_block:
        yI = update_yI(prob, cached_lambda_max(prob), it.X, f("yI"), it.yI, it.sigma)
        terms["yI"] = prob.A_I.adjoint(yI)
        f_pred = f()
    Z = terms["Z"] = update_Z(prob, it.X, f("Z"), it.sigma)
    if yI is None:
        f_pred = f()
    yE = update_yE(prob, it.X, f("yE"), it.sigma)
    terms["yE"] = prob.A_E.adjoint(yE)
    S = terms["S"] = update_S(it.X, f("S"), it.sigma)
    return yI, Z, yE, S, f_pred, f()


def cadmm_step(it: DnnSdpIterate, prob: DnnSdpProblem) -> DnnSdpIterate:
    """One full corrected iteration: prediction sweep in the order
    y_I -> Z -> y_E -> S, adaptive multiplier step, then correction of the
    middle blocks (y_E, and Z in the 4-block case) against the corrected
    base points."""
    yI_new, Z_new, yE_new, S_new, f_pred, f_full = _sweep(it, prob)
    dS = S_new - it.S
    if it.k == 0:
        tau_k = TAU0
    else:
        delta = compute_delta(f_pred, f_full, float(np.vdot(dS, dS)), EPS)
        tau_k = update_tau(it.tau, delta, TAU_BAR)
    X_new = it.X + (tau_k * it.sigma) * f_full

    # Correction, backwards over the middle blocks; last and first blocks
    # (and the multiplier) keep their predicted values.
    t_yE_new = it.t_yE + ALPHA * (yE_new - it.t_yE) - gram_solve(
        prob.A_E, prob.A_E.apply(dS))
    if prob.four_block:
        d = prob.A_E.adjoint(t_yE_new - it.t_yE) + dS
        t_Z_new = it.t_Z + ALPHA * (Z_new - it.t_Z) - d
    else:
        t_Z_new = Z_new

    return DnnSdpIterate(
        Z=Z_new, yE=yE_new, S=S_new, X=X_new, t_Z=t_Z_new, t_yE=t_yE_new,
        yI=yI_new, tau=tau_k, sigma=it.sigma, k=it.k + 1, f_full=f_full)


def dext_step(it: DnnSdpIterate, prob: DnnSdpProblem, tau: float) -> DnnSdpIterate:
    """Directly extended iteration: the same sweep, a fixed multiplier step
    and no correction. The centres ``t_Z`` and ``t_yE`` are set to the new
    iterates, so the next sweep is centred at the previous iterates."""
    yI_new, Z_new, yE_new, S_new, _, f_full = _sweep(it, prob)
    X_new = it.X + (tau * it.sigma) * f_full
    return DnnSdpIterate(
        Z=Z_new, yE=yE_new, S=S_new, X=X_new, t_Z=Z_new, t_yE=yE_new,
        yI=yI_new, tau=tau, sigma=it.sigma, k=it.k + 1, f_full=f_full)


# ---------------------------------------------------------------------------
# Residuals and certification.

@dataclass(frozen=True)
class ResidualReport:
    """Relative KKT residual components; ``eta`` is the max of the present
    ones and ``eta_g`` the signed relative gap between <C, X> and the dual
    objective b_E.y_E (+ b_I.y_I) + <M, Z> (informational)."""

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
    Without it every component is recomputed from the blocks.
    """
    X, S, Z, yE = it.X, it.S, it.Z, it.yE
    C = prob.C
    norm_X = float(np.linalg.norm(X))
    norm_S = float(np.linalg.norm(S))
    norm_Z = float(np.linalg.norm(Z))

    eta_P = float(np.linalg.norm(prob.A_E.apply(X) - prob.b_E)) / (
        1.0 + float(np.linalg.norm(prob.b_E)))
    if f_full is not None:
        dual_res = f_full
    elif prob.four_block:
        dual_res = prob.A_I.adjoint(it.yI) + Z + prob.A_E.adjoint(yE) + S - C
    else:
        dual_res = prob.A_E.adjoint(yE) + S + Z - C
    eta_D = float(np.linalg.norm(dual_res)) / (1.0 + float(np.linalg.norm(C)))

    eta_S = psd_distance(X) / (1.0 + norm_X)
    shifted = X - prob.M
    eta_K = float(np.linalg.norm(project_pattern_dual(-shifted, prob.pattern))) / (
        1.0 + norm_X)
    if f_full is not None:
        eta_Sstar = eta_Kstar = 0.0
    else:
        eta_Sstar = psd_distance(S) / (1.0 + norm_S)
        eta_Kstar = float(np.linalg.norm(project_pattern(-Z, prob.pattern))) / (
            1.0 + norm_Z)
    eta_C1 = abs(frob_inner(X, S)) / (1.0 + norm_X + norm_S)
    eta_C2 = abs(frob_inner(shifted, Z)) / (1.0 + norm_X + norm_Z)

    eta_I = eta_Istar = None
    if prob.four_block:
        eta_I = float(np.linalg.norm(np.maximum(0.0, prob.b_I - prob.A_I.apply(X)))) / (
            1.0 + float(np.linalg.norm(prob.b_I)))
        eta_Istar = 0.0
        if f_full is None:
            eta_Istar = float(np.linalg.norm(np.maximum(0.0, -it.yI))) / (
                1.0 + float(np.linalg.norm(it.yI)))
    obj = objective_values(prob, it)
    cx, bey, mz = obj["cx"], obj["b_E_y"], obj["M_Z"]
    biy = obj.get("b_I_y", 0.0)
    eta_g = (cx - (bey + biy + mz)) / (1.0 + abs(cx + bey + biy + mz))
    return ResidualReport(eta_P, eta_D, eta_S, eta_K, eta_Sstar, eta_Kstar,
                          eta_C1, eta_C2, eta_I, eta_Istar, eta_g)


# ---------------------------------------------------------------------------
# Penalty tuning and restarts.

# The fixed settings of tune_sigma and maybe_restart.
BALANCE_RATIO = 5.0
SIGMA_FACTOR = 1.5
SIGMA_MIN = 1e-4
SIGMA_MAX = 1e4
FREEZE_FRACTION = 0.75
RESTART_DECREASE = 0.01


@dataclass(frozen=True)
class TuningPolicy:
    """Residual-balancing adjustment of sigma every ``check_period``
    iterations plus a restart of the corrected variables when eta stalls
    over ``restart_stall_window`` iterations; 0 turns either off."""

    check_period: int = 50
    restart_stall_window: int = 100

    def __post_init__(self):
        for name, value in vars(self).items():
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")

    @classmethod
    def disabled(cls) -> "TuningPolicy":
        """The paper's method: a fixed sigma and no restart."""
        return cls(check_period=0, restart_stall_window=0)


def tune_sigma(report: ResidualReport, sigma: float, k: int,
               policy: TuningPolicy, freeze_after: int) -> float:
    """Rescale sigma to balance primal and dual feasibility progress.

    Larger sigma drives the dual-side residuals down and starves the
    primal side (the multiplier X carries the primal variable here), so
    when the primal group lags sigma is decreased and vice versa. Only
    acts every ``check_period`` iterations and while k is below the
    freeze point; afterwards sigma is left alone so the fixed-penalty
    convergence behaviour takes over.
    """
    if policy.check_period <= 0 or k % policy.check_period != 0 or k >= freeze_after:
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


def maybe_restart(eta_history: list, it: DnnSdpIterate, policy: TuningPolicy,
                  tau0: float, last_restart: int) -> tuple:
    """Overwrite the corrected variables with the predicted ones and reset
    the step size when the residual stalled over the window."""
    w = policy.restart_stall_window
    if w <= 0 or len(eta_history) <= w or it.k - last_restart < w:
        return it, False
    now = eta_history[-1]
    then = eta_history[-1 - w]
    if now <= (1.0 - RESTART_DECREASE) * then:
        return it, False
    return replace(it, t_Z=it.Z.copy(), t_yE=it.yE.copy(), tau=tau0), True


# ---------------------------------------------------------------------------
# Full solver loops.

def _diverged(it: DnnSdpIterate) -> Optional[tuple]:
    """``(name, norm)`` of the first block, in sweep order and then X,
    whose norm fails the divergence guard; None when every block passes."""
    blocks = {"yI": it.yI, "Z": it.Z, "yE": it.yE, "S": it.S, "X": it.X}
    for name, b in blocks.items():
        if b is None:
            continue
        # A NaN or inf entry makes the norm NaN or inf, and so does a
        # finite block whose norm overflows; neither passes the comparison.
        norm = float(np.linalg.norm(b))
        if not norm <= engine.DIVERGENCE_GUARD:
            return name, norm
    return None


def _solve(prob: DnnSdpProblem, cfg: SolverConfig, policy: TuningPolicy,
           callback, step) -> SolveResult:
    """The solve loop shared by the corrected and the directly extended
    method; ``step(it, prob)`` makes one iteration. A diverged
    iterate is caught before anything reads it (overflow is silent, so an
    overflowing norm reads inf), and the run then reports no residuals.

    Each iterate is certified from its sweep's constraint map; the report
    and residual the run returns are recomputed in full from the blocks."""
    prob.validate()
    max_iters = cfg.max_iters or (40000 if prob.four_block else 20000)
    freeze_after = int(FREEZE_FRACTION * max_iters)

    it = initial_iterate(prob, cfg.sigma, TAU0)
    eta_history: list = []
    tau_history: list = []
    restarts: list = []
    report = None
    oversized = None
    status = MAX_ITERS
    t0 = time.perf_counter()
    with np.errstate(over="ignore"):
        while it.k < max_iters:
            it = step(it, prob)
            tau_history.append(it.tau)
            oversized = _diverged(it)
            if oversized:
                status = DIVERGED
                report = None
                break
            report = residuals(it, prob, it.f_full)
            eta = report.eta
            eta_history.append(eta)
            if callback is not None:
                callback(it, report)
            if eta < cfg.tol:
                status = CONVERGED
                break
            new_sigma = tune_sigma(report, it.sigma, it.k, policy, freeze_after)
            if new_sigma != it.sigma:
                it = replace(it, sigma=new_sigma)
            it, restarted = maybe_restart(eta_history, it, policy, TAU0,
                                          restarts[-1] if restarts else 0)
            if restarted:
                restarts.append(it.k)
        if report is not None:
            report = residuals(it, prob)
    wall = time.perf_counter() - t0
    return SolveResult(
        status=status, iterations=it.k,
        residual=report.eta if report is not None else math.inf,
        z=[it.Z, it.yE, it.S] if not prob.four_block else [it.yI, it.Z, it.yE, it.S],
        x=it.X, tau_final=it.tau, tau_history=tau_history,
        wall_seconds=wall, restarts=restarts,
        report=report, sigma_final=it.sigma,
        message="" if status != DIVERGED else
        f"non-finite or oversized iterate at k={it.k}: {oversized[0]} has norm "
        f"{oversized[1]:.2e}; last eta history "
        f"{[f'{e:.2e}' for e in eta_history[-3:]]}")


def cadmm_solve(prob: DnnSdpProblem, cfg: SolverConfig = None,
                policy: TuningPolicy = None, callback=None) -> SolveResult:
    """Corrected ADMM with sigma balancing and restarts; terminates when
    the max relative residual eta drops below ``cfg.tol``."""
    return _solve(prob, cfg or SolverConfig(),
                  policy if policy is not None else TuningPolicy(), callback,
                  cadmm_step)


def dext_solve(prob: DnnSdpProblem, cfg: SolverConfig = None, tau: float = DEXT_TAU,
               policy: TuningPolicy = None, callback=None) -> SolveResult:
    """Directly extended ADMM baseline on the same problem; no convergence
    guarantee, same termination measure, sigma balancing and divergence
    guard. It never restarts: its centres are already the previous
    iterates and its step is fixed, so a restart would reset nothing."""
    return _solve(prob, cfg or SolverConfig(),
                  replace(policy or TuningPolicy(), restart_stall_window=0), callback,
                  lambda it, prob: dext_step(it, prob, tau))


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
    """Equivalent generic multi-block problem (shared right-hand side C).

    Returns ``(MultiBlockProblem, z0, x0)`` with all-zero starting data
    matching :func:`initial_iterate`.
    """
    n = prob.n
    ident = identity_block_map()
    z_block = engine.BlockSpec(
        map=ident,
        subsolve=lambda x, r, center, sigma: update_Z(prob, x, r, sigma),
        shape=(n, n), rho=None, einv=lambda v: v,
        prox=prox_pattern_dual_linear(prob.M, prob.pattern))
    ye_block = engine.BlockSpec(
        map=prob.A_E.as_block_map(),
        subsolve=lambda x, r, center, sigma: update_yE(prob, x, r, sigma),
        shape=(prob.A_E.m,), rho=None,
        einv=lambda v: gram_solve(prob.A_E, v),
        prox=prox_linear(prob.b_E))
    s_block = engine.BlockSpec(
        map=ident,
        subsolve=lambda x, r, center, sigma: update_S(x, r, sigma),
        shape=(n, n), rho=None, einv=lambda v: v,
        prox=prox_psd_indicator())
    if prob.four_block:
        lam = cached_lambda_max(prob)
        yi_block = engine.BlockSpec(
            map=prob.A_I.as_block_map(),
            subsolve=lambda x, r, center, sigma: update_yI(prob, lam, x, r, center, sigma),
            shape=(prob.A_I.m,), rho=lam,
            prox=prox_nonneg_linear(prob.b_I))
        blocks = (yi_block, z_block, ye_block, s_block)
    else:
        blocks = (z_block, ye_block, s_block)
    mb = engine.MultiBlockProblem(blocks=blocks, c=np.asarray(prob.C, dtype=float))
    return mb, mb.zeros(), np.zeros((n, n))
