# -*- coding: utf-8 -*-
"""Comparing solvers with performance profiles.

Runs the corrected method and the directly extended baseline over a
small instance set and prints the iteration-count profile: for each
solver, the fraction of problems solved within a factor x of the best.
"""

from cadmm.dnnsdp import SolverConfig, cadmm_solve, dext_solve
from cadmm.io import PROFILE_GRID_POINTS, emit_performance_profile, record_from_result
from cadmm.problems import build_biq, build_theta_plus, random_biq, \
    random_graph, random_rcp

instances = [(f"biq10-{s}", build_biq(random_biq(10, s))) for s in (1, 2, 3)]
instances += [(f"theta10-{s}", build_theta_plus(random_graph(10, 0.3, s)))
              for s in (1, 2)]
instances += [(f"rcp10-{s}", random_rcp(10, s)) for s in (1, 2)]

records = []
for name, prob in instances:
    for solver, run in (("cadmm", cadmm_solve),
                        ("dext", lambda p, c: dext_solve(p, c, tau=1.618))):
        res = run(prob, SolverConfig(tol=1e-6))
        rec = record_from_result(name, solver, res)
        records.append(rec)
        print(rec.summary_line())

print("\niteration-count performance profile (solver, x, y), every 8th "
      "grid point and the last:")
rows = emit_performance_profile(records, metric="iterations")
for k, (solver, x, y) in enumerate(rows):
    point = k % PROFILE_GRID_POINTS   # the rows run solver by solver, one per point
    if point % 8 == 0 or point == PROFILE_GRID_POINTS - 1:
        print(f"  {solver:6} x={x:7.3f} y={y:.2f}")

print("\ny at x=1 is the fraction of problems where that solver needed the "
      "fewest iterations;\neach curve ends at the solver's overall solve "
      "fraction.")
