"""Kernel microbenchmarks at the sizes the workloads run.

Each kernel is timed in batches of back-to-back calls on seeded inputs;
the reported time is the median per-call time over the batches. Flop and
byte rates are computed from a cost model, not counted by hardware:
``project_psd`` is charged 9 n^3 for a symmetric eigendecomposition with
vectors plus 2 n^3 for reassembly, and ``gram_solve`` is charged the
m^2 * 8 bytes of the Cholesky factor that its two triangular solves read.
"""

from __future__ import annotations

import time

import numpy as np

from cadmm import dnnsdp
from cadmm.linalg import gram_factor, gram_solve, project_psd

from . import suite

BATCHES = 7
BATCH_SECONDS = 0.02

# (base spec, kernels measured on it); one spec per workload.
MICRO_SPECS = (
    ("biq:48:2", ("project_psd", "gram_solve", "apply_E", "residuals")),
    ("theta:48:2:0.85", ("project_psd", "gram_solve", "apply_E", "residuals")),
    ("ebiq:8:2", ("project_psd", "apply_I", "residuals")),
)


def psd_flops(n: int) -> float:
    return 11.0 * n ** 3


def gram_bytes(m: int) -> float:
    return 8.0 * m * m


def per_call_seconds(fn) -> float:
    fn()
    t0 = time.perf_counter()
    fn()
    one = max(time.perf_counter() - t0, 1e-7)
    reps = max(1, int(BATCH_SECONDS / one))
    times = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        times.append((time.perf_counter() - t0) / reps)
    return float(np.median(times))


def _sym(rng, n):
    a = rng.standard_normal((n, n))
    return 0.5 * (a + a.T)


def _iterate(prob, rng):
    it = dnnsdp.initial_iterate(prob, sigma=1.0, tau0=1.95)
    it.X = _sym(rng, prob.n)
    it.S = _sym(rng, prob.n)
    it.Z = _sym(rng, prob.n)
    it.yE = rng.standard_normal(prob.A_E.m)
    if prob.four_block:
        it.yI = rng.standard_normal(prob.A_I.m)
    return it


def _us(seconds: float) -> float:
    return seconds * 1e6


def _cases(prob, kernels, rng):
    """``(fn, [(metric name, seconds -> value), ...])`` per timed call."""
    n, m = prob.n, prob.A_E.m
    for k in kernels:
        if k == "project_psd":
            a = _sym(rng, n)
            yield (lambda a=a: project_psd(a)), [
                (f"micro.linalg.project_psd.n{n}.us", _us),
                (f"micro.linalg.project_psd.n{n}.gflops_computed",
                 lambda t: psd_flops(n) / t / 1e9)]
        elif k == "gram_solve":
            rhs = rng.standard_normal(m)
            yield (lambda rhs=rhs: gram_solve(prob.A_E, rhs)), [
                (f"micro.linalg.gram_solve.m{m}.us", _us),
                (f"micro.linalg.gram_solve.m{m}.gbps_computed",
                 lambda t: gram_bytes(m) / t / 1e9)]
        elif k in ("apply_E", "apply_I"):
            a_map = prob.A_E if k == "apply_E" else prob.A_I
            x = _sym(rng, n)
            y = rng.standard_normal(a_map.m)
            size = f"m{a_map.m}n{n}"
            yield (lambda a_map=a_map, x=x: a_map.apply(x)), [
                (f"micro.linalg.apply.{size}.us", _us)]
            yield (lambda a_map=a_map, y=y: a_map.adjoint(y)), [
                (f"micro.linalg.adjoint.{size}.us", _us)]
        elif k == "residuals":
            it = _iterate(prob, rng)
            yield (lambda it=it: dnnsdp.residuals(it, prob)), [
                (f"micro.dnnsdp.residuals.n{n}.us", _us)]


def run(seed: int, timed: bool = True) -> dict:
    """``{metric name: value}`` for every kernel at every size; with
    ``timed=False`` only the names, mapped to None."""
    rng = np.random.default_rng(seed)
    out = {}
    for spec, kernels in MICRO_SPECS:
        prob = suite.base_problem(spec)
        gram_factor(prob.A_E)
        for fn, outputs in _cases(prob, kernels, rng):
            t = per_call_seconds(fn) if timed else None
            for name, value in outputs:
                out[name] = value(t) if timed else None
    return out
