# -*- coding: utf-8 -*-
"""Stable-set and clustering relaxations with known answers.

The entrywise-nonnegative stable-set bound is 1 on a complete graph, n
on an empty graph, and sqrt(5) on the 5-cycle; the clustering
relaxation recovers the block structure of two well-separated point
clouds.
"""

import numpy as np

from cadmm.dnnsdp import SolverConfig, cadmm_solve
from cadmm.problems import (Graph, build_theta_plus, family_objective,
                            random_rcp)

cfg = SolverConfig(tol=1e-8)

print("== stable-set relaxation values ==")
cases = {
    "complete K6": Graph(6, tuple((i, j) for i in range(6)
                                  for j in range(i + 1, 6))),
    "empty on 6": Graph(6, ()),
    "5-cycle": Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4))),
}
for name, g in cases.items():
    prob = build_theta_plus(g)
    res = cadmm_solve(prob, cfg)
    print(f"  {name:12}: value = {family_objective(prob, res.x):.6f} "
          f"({res.iterations} iterations)")
print(f"  (5-cycle reference: sqrt(5) = {np.sqrt(5):.6f})")

print("\n== clustering two point clouds (kappa = 2) ==")
prob = random_rcp(12, seed=1)
res = cadmm_solve(prob, cfg)
x = res.x
print(f"status={res.status} iterations={res.iterations}")
print("top-left block mean (same cluster):    "
      f"{x[:6, :6].mean():.4f}")
print("off-diagonal block mean (cross cluster): "
      f"{x[:6, 6:].mean():.4f}")
print("the solution averages within clusters and vanishes across them")
