# -*- coding: utf-8 -*-

"""
Corrected semi-proximal ADMM for p-block linearly constrained convex
programs, together with the directly extended multi-block ADMM baseline
(the same loop with a fixed step and no correction) and the dense
operator constructions used to certify the correction step.

The iteration has two phases. The prediction phase is a Gauss-Seidel
sweep of semi-proximal subproblems around the current corrected point,
followed by a multiplier ascent whose step size tau_k adapts to the
infeasibility ratio delta_k and is nonincreasing with floor tau_bar.
The correction phase then moves only the middle blocks: the first and
last block and the multiplier are kept as predicted.
"""

from __future__ import annotations

import math
import numbers
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .linalg import LinearBlockMap

CONVERGED = "Converged"
MAX_ITERS = "MaxIters"
DIVERGED = "Diverged"
ERROR = "Error"
STATUSES = (CONVERGED, MAX_ITERS, DIVERGED, ERROR)

DIVERGENCE_GUARD = 1e12
DEXT_TAU = 1.618

# The corrected method's fixed parameters: the correction weight alpha in
# (0, 1), the step floor tau_bar in (0, 1), the infeasibility weight eps in
# (0, 1/2) and the start step tau0 in (1, 2).
ALPHA = 0.999
TAU_BAR = 0.1
EPS = 0.1
TAU0 = 1.95


@dataclass(frozen=True)
class BlockSpec:
    """One block of a multi-block problem.

    ``subsolve(x, r, center, sigma)`` must return the minimizer of

        theta(z) + <x, A* z> + sigma/2 ||A* z + r||^2
                 + sigma/2 ||z - center||^2_T

    where r collects the other blocks' constraint contributions minus the
    right-hand side. ``rho`` selects the semi-proximal operator: ``None``
    means T = 0 (A A* must then be positive definite for middle blocks),
    a float means T = rho*I - A A*, for which T + A A* = rho*I and the
    correction inverse is division by rho. ``einv`` applies
    (T + A A*)^{-1} and is required only for middle blocks with T = 0.
    ``prox`` evaluates prox_{t*theta} and enables the KKT residual.
    """

    map: LinearBlockMap
    subsolve: Callable
    shape: tuple
    rho: Optional[float] = None
    einv: Optional[Callable] = None
    prox: Optional[Callable] = None

    def einv_apply(self, v: np.ndarray) -> np.ndarray:
        if self.rho is not None:
            return v / self.rho
        if self.einv is None:
            raise ValueError("block needs an einv oracle (T = 0 middle block)")
        return self.einv(v)


@dataclass(frozen=True)
class MultiBlockProblem:
    blocks: tuple
    c: np.ndarray

    def __post_init__(self):
        if len(self.blocks) < 2:
            raise ValueError("need at least two blocks")
        for i, blk in enumerate(self.blocks[1:-1], start=1):
            # the correction recursion inverts T_i + A_i A_i* for the middle
            # blocks; fail at construction, not mid-solve
            if blk.rho is None and blk.einv is None:
                raise ValueError(f"middle block {i} needs an einv oracle "
                                 f"(or a scaled-identity semi-proximal term)")

    @property
    def p(self) -> int:
        return len(self.blocks)

    def zeros(self) -> list:
        return [np.zeros(b.shape) for b in self.blocks]

    def probe_operators(self, seed: int = 0, trials: int = 4) -> None:
        """Cheap randomized setup checks of the block operators.

        For middle blocks with T = 0, einv must invert A A* (which must
        therefore be positive definite); for scaled-identity blocks,
        rho I - A A* must stay positive semidefinite.
        """
        rng = np.random.default_rng(seed)
        for i, blk in enumerate(self.blocks):
            middle = 0 < i < self.p - 1
            for _ in range(trials):
                v = rng.standard_normal(blk.shape)
                gram_v = blk.map.apply(blk.map.apply_adjoint(v))
                if blk.rho is not None:
                    quad = float(np.vdot(v, blk.rho * v - gram_v))
                    if quad < -1e-10 * float(np.vdot(v, v)) * blk.rho:
                        raise ValueError(
                            f"block {i}: rho = {blk.rho} is below the Gram "
                            f"spectrum; the semi-proximal term is indefinite")
                elif middle:
                    back = blk.einv(gram_v)
                    err = float(np.linalg.norm(back - v))
                    if not np.isfinite(err) or err > 1e-6 * (1.0 + float(np.linalg.norm(v))):
                        raise ValueError(
                            f"block {i}: einv does not invert A A* "
                            f"(residual {err:.2e}); is A A* positive definite?")


@dataclass(frozen=True)
class SolverConfig:
    """What a run varies; ``max_iters=None`` is the solver's default cap."""

    sigma: float = 1.0
    tol: float = 1e-6
    max_iters: Optional[int] = None

    def __post_init__(self):
        if not 0 < self.sigma < math.inf:
            raise ValueError(f"sigma must be positive and finite, got {self.sigma}")
        if not self.tol >= 0:
            raise ValueError(f"tol must be >= 0, got {self.tol}")
        if self.max_iters is not None and not isinstance(self.max_iters, numbers.Integral):
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
        if self.max_iters is not None and self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass
class IterateState:
    z: list
    z_tilde: list
    x: np.ndarray
    tau: float
    k: int = 0


@dataclass
class SolveResult:
    status: str
    iterations: int
    residual: float
    z: list
    x: np.ndarray
    tau_final: float = math.nan
    tau_history: list = field(default_factory=list)
    wall_seconds: float = 0.0
    restarts: list = field(default_factory=list)   # always []: perfbench/suite.py reads it
    history: Optional[list] = None
    report: object = None
    sigma_final: float = math.nan
    message: str = ""


def _f_value(adjoints: Sequence[np.ndarray], c: np.ndarray) -> np.ndarray:
    out = adjoints[0].copy()
    for a in adjoints[1:]:
        out = out + a
    return out - c


def predict(state: IterateState, prob: MultiBlockProblem, cfg: SolverConfig):
    """One Gauss-Seidel prediction sweep.

    Returns ``(new_z, f_pred, f_full)`` where ``f_pred`` is the constraint
    map evaluated after the first block only (others at their corrected
    values) and ``f_full`` is the full evaluation at the new blocks.
    """
    p = prob.p
    adj_tilde = [b.map.apply_adjoint(zt) for b, zt in zip(prob.blocks, state.z_tilde)]
    adj_new = [None] * p
    new_z = [None] * p
    f_pred = None
    for i, blk in enumerate(prob.blocks):
        terms = [adj_new[j] if j < i else adj_tilde[j] for j in range(p) if j != i]
        r = _f_value(terms, prob.c)
        try:
            new_z[i] = blk.subsolve(state.x, r, state.z_tilde[i], cfg.sigma)
        except Exception as exc:
            raise RuntimeError(f"block {i} subproblem solver failed: {exc}") from exc
        adj_new[i] = blk.map.apply_adjoint(new_z[i])
        if i == 0:
            f_pred = _f_value([adj_new[0]] + adj_tilde[1:], prob.c)
    f_full = _f_value(adj_new, prob.c)
    return new_z, f_pred, f_full


def compute_delta(f_pred: np.ndarray, f_full: np.ndarray,
                  last_block_change_norm_sq: float, eps: float) -> float:
    """Infeasibility ratio driving the adaptive step size.

    When the full constraint residual vanishes the ratio is +inf, so the
    step size saturates at its previous value.
    """
    nf2 = float(np.vdot(f_full, f_full))
    if nf2 == 0.0:
        return math.inf
    np2 = float(np.vdot(f_pred, f_pred))
    return (np2 - eps * (nf2 + last_block_change_norm_sq)) / nf2


def update_tau(tau_prev: float, delta: float, tau_bar: float) -> float:
    if 1.0 + delta > tau_bar:
        return min(1.0 + delta, tau_prev)
    return tau_bar


def update_multiplier(x: np.ndarray, tau: float, sigma: float,
                      f_full: np.ndarray) -> np.ndarray:
    return x + (tau * sigma) * f_full


def correct(prob: MultiBlockProblem, z_tilde_old: list, new_z: list,
            alpha: float) -> list:
    """Correction step: first and last blocks are taken as predicted, the
    middle blocks are updated backwards with the triangular recursion."""
    p = prob.p
    zt = [None] * p
    zt[0] = new_z[0]
    zt[p - 1] = new_z[p - 1]
    adj_delta = [None] * p
    adj_delta[p - 1] = prob.blocks[p - 1].map.apply_adjoint(zt[p - 1] - z_tilde_old[p - 1])
    for i in range(p - 2, 0, -1):
        blk = prob.blocks[i]
        d = adj_delta[i + 1]
        for j in range(i + 2, p):
            d = d + adj_delta[j]
        zt[i] = (z_tilde_old[i] + alpha * (new_z[i] - z_tilde_old[i])
                 - blk.einv_apply(blk.map.apply(d)))
        adj_delta[i] = blk.map.apply_adjoint(zt[i] - z_tilde_old[i])
    return zt


def kkt_residual(prob: MultiBlockProblem, z: list, x: np.ndarray,
                 warn_missing: bool = True) -> float:
    """Prox-based optimality residual.

    Zero iff -A_i x lies in the subdifferential of theta_i at z_i for all
    blocks (checked through the prox characterization with unit weight)
    and the linear constraint holds. Blocks without a prox oracle are
    skipped (with a warning).
    """
    adjoints = [b.map.apply_adjoint(zi) for b, zi in zip(prob.blocks, z)]
    parts = [float(np.linalg.norm(_f_value(adjoints, prob.c)))]
    missing = []
    for i, (blk, zi) in enumerate(zip(prob.blocks, z)):
        if blk.prox is None:
            missing.append(i)
            continue
        step = blk.prox(zi - blk.map.apply(x), 1.0)
        parts.append(float(np.linalg.norm(zi - step)))
    if missing and warn_missing:
        warnings.warn(f"kkt_residual: blocks {missing} lack a prox oracle; skipped")
    return max(parts)


def _iterate_norm(z: list, x: np.ndarray) -> float:
    return max(max(float(np.linalg.norm(zi)) for zi in z), float(np.linalg.norm(x)))


def _default_residual(prob, z, x, c_norm, has_prox):
    adjoints = [b.map.apply_adjoint(zi) for b, zi in zip(prob.blocks, z)]
    fnorm = float(np.linalg.norm(_f_value(adjoints, prob.c)))
    crit = fnorm / (1.0 + c_norm)
    if has_prox:
        crit = max(crit, kkt_residual(prob, z, x, warn_missing=False))
    return crit


def _run(prob: MultiBlockProblem, cfg: SolverConfig, stop: Optional[Callable],
         z0: Optional[list], x0: Optional[np.ndarray],
         fixed_tau: Optional[float], record_history: bool = False) -> SolveResult:
    """The loop behind :func:`solve` and :func:`solve_direct_extended`.

    With ``fixed_tau`` set, every multiplier step uses it and the
    correction is skipped (z_tilde := new z), so each sweep is centred at
    the previous iterates: the directly extended method.
    """
    max_iters = cfg.max_iters or 10000
    z = [np.array(v, dtype=float) for v in (z0 if z0 is not None else prob.zeros())]
    x = (np.array(x0, dtype=float) if x0 is not None
         else np.zeros_like(np.asarray(prob.c, dtype=float)))
    state = IterateState(z=z, z_tilde=[v.copy() for v in z], x=x, tau=TAU0)
    c_norm = float(np.linalg.norm(prob.c))
    has_prox = any(b.prox is not None for b in prob.blocks)
    if any(b.prox is None for b in prob.blocks) and has_prox:
        warnings.warn("some blocks lack a prox oracle; the KKT part of the "
                      "stopping test skips them")

    tau_history = []
    history = [] if record_history else None
    residual = math.inf
    status = MAX_ITERS
    t0 = time.perf_counter()
    while True:
        if cfg.tol > 0 and stop is None:
            residual = _default_residual(prob, state.z, state.x, c_norm, has_prox)
            if residual < cfg.tol:
                status = CONVERGED
                break
        if state.k >= max_iters:
            break

        new_z, f_pred, f_full = predict(state, prob, cfg)
        if fixed_tau is not None:
            tau_k = fixed_tau
        elif state.k == 0:
            tau_k = TAU0
        else:
            last_change = prob.blocks[-1].map.apply_adjoint(new_z[-1] - state.z[-1])
            delta = compute_delta(f_pred, f_full,
                                  float(np.vdot(last_change, last_change)), EPS)
            tau_k = update_tau(state.tau, delta, TAU_BAR)
        x_new = update_multiplier(state.x, tau_k, cfg.sigma, f_full)
        zt_new = (new_z if fixed_tau is not None
                  else correct(prob, state.z_tilde, new_z, ALPHA))

        if history is not None:
            history.append({
                "z": [v.copy() for v in new_z],
                "z_tilde": [v.copy() for v in zt_new],
                "z_tilde_prev": [v.copy() for v in state.z_tilde],
                "x": x_new.copy(),
                "tau": tau_k,
            })
        state.z = new_z
        state.z_tilde = zt_new
        state.x = x_new
        state.tau = tau_k
        tau_history.append(tau_k)
        state.k += 1

        if not np.isfinite(f_full).all() or _iterate_norm(state.z, state.x) > DIVERGENCE_GUARD:
            status = DIVERGED
            residual = math.inf
            break
        if stop is not None and stop(state, float(np.linalg.norm(f_full))):
            residual = _default_residual(prob, state.z, state.x, c_norm, has_prox)
            status = CONVERGED
            break

    wall = time.perf_counter() - t0
    return SolveResult(
        status=status, iterations=state.k, residual=residual,
        z=state.z, x=state.x, tau_final=state.tau, tau_history=tau_history,
        wall_seconds=wall, history=history, sigma_final=cfg.sigma,
        message="" if status != DIVERGED else "iterate norm exceeded guard",
    )


def solve(prob: MultiBlockProblem, cfg: SolverConfig = None,
          stop: Optional[Callable] = None,
          z0: Optional[list] = None, x0: Optional[np.ndarray] = None,
          record_history: bool = False) -> SolveResult:
    """Run the corrected semi-proximal ADMM.

    Stops when ``stop(state, f_full_norm)`` fires if given, otherwise when
    max(||F||/(1+||c||), kkt_residual) < cfg.tol. ``cfg.tol <= 0`` disables
    the residual test and runs exactly ``max_iters`` iterations.
    ``record_history`` keeps one dict per iteration in ``history``: ``z``,
    ``z_tilde``, ``z_tilde_prev``, ``x`` and ``tau``.
    """
    prob.probe_operators()
    return _run(prob, cfg or SolverConfig(), stop, z0, x0, fixed_tau=None,
                record_history=record_history)


def solve_direct_extended(prob: MultiBlockProblem, cfg: SolverConfig = None,
                          tau: float = DEXT_TAU,
                          z0: Optional[list] = None,
                          x0: Optional[np.ndarray] = None) -> SolveResult:
    """Directly extended multi-block ADMM with a fixed multiplier step.

    Same Gauss-Seidel sweep as the prediction phase but with proximal
    centers at the previous iterates; no corrected variables and no step
    adaptation. Not convergent in general for p >= 3, hence the
    divergence guard.
    """
    return _run(prob, cfg or SolverConfig(), None, z0, x0, fixed_tau=tau)


@dataclass(frozen=True)
class TheoryOperators:
    """Dense operators over the concatenated middle-to-last block spaces."""

    m: np.ndarray
    h: np.ndarray
    g: np.ndarray
    slices: tuple


def _densify_adjoint(block_map: LinearBlockMap, shape: tuple, x_shape: tuple) -> np.ndarray:
    dim = int(np.prod(shape))
    x_dim = int(np.prod(x_shape))
    out = np.zeros((x_dim, dim))
    basis = np.zeros(shape)
    flat = basis.reshape(-1)
    for kcol in range(dim):
        flat[kcol] = 1.0
        out[:, kcol] = np.asarray(block_map.apply_adjoint(basis), dtype=float).reshape(-1)
        flat[kcol] = 0.0
    return out


MAX_DENSIFY_DIM = 500


def build_theory_operators(prob: MultiBlockProblem, alpha: float) -> TheoryOperators:
    """Densify the block operators of the correction analysis.

    ``m`` is block lower triangular with E_i = A_i A_i* + T_i on the
    diagonal, ``h`` block upper triangular with unit diagonal and
    alpha*I in the last slot, and ``g = m @ h`` must be symmetric
    positive definite.
    """
    p = prob.p
    x_shape = np.asarray(prob.c).shape
    total = sum(int(np.prod(b.shape)) for b in prob.blocks)
    if total > MAX_DENSIFY_DIM:
        raise ValueError(f"total block dimension {total} exceeds the dense "
                         f"limit {MAX_DENSIFY_DIM}")
    adj = {}
    e_mats = {}
    dims = []
    for i in range(1, p):
        blk = prob.blocks[i]
        a_adj = _densify_adjoint(blk.map, blk.shape, x_shape)  # X-dim x d_i
        adj[i] = a_adj
        gram = a_adj.T @ a_adj
        if blk.rho is not None:
            e_mats[i] = blk.rho * np.eye(gram.shape[0])  # T_i + A_i A_i* = rho I
        else:
            e_mats[i] = gram
        dims.append(gram.shape[0])
    offsets = np.concatenate([[0], np.cumsum(dims)])
    slices = tuple(slice(int(offsets[t]), int(offsets[t + 1])) for t in range(p - 1))
    w_dim = int(offsets[-1])
    m_op = np.zeros((w_dim, w_dim))
    h_op = np.zeros((w_dim, w_dim))
    for t, i in enumerate(range(1, p)):
        m_op[slices[t], slices[t]] = e_mats[i]
        for u, j in enumerate(range(1, p)):
            if j < i:
                m_op[slices[t], slices[u]] = adj[i].T @ adj[j]
        if i == p - 1:
            h_op[slices[t], slices[t]] = alpha * np.eye(dims[t])
        else:
            h_op[slices[t], slices[t]] = np.eye(dims[t])
            e_inv = np.linalg.inv(e_mats[i])
            for u, j in enumerate(range(1, p)):
                if j > i:
                    h_op[slices[t], slices[u]] = e_inv @ (adj[i].T @ adj[j])
    g_op = m_op @ h_op
    return TheoryOperators(m=m_op, h=h_op, g=g_op, slices=slices)
