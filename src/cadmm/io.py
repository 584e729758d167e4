# -*- coding: utf-8 -*-

"""
Problem and result documents (self-describing JSON) and the
performance-profile table used to compare solvers.

A problem document carries the order, the dense objective upper triangle,
the sparse constraint triples, the optional inequality block, the shift
matrix and a run-length encoded entry pattern; writing then reading is
the identity on the data model. Result documents mirror the run-record
fields; wall time is the only field excluded from determinism checks.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, fields
from typing import Optional, Sequence

import numpy as np

from .cones import ConePattern
from .dnnsdp import DnnSdpProblem, ResidualReport
from .engine import CONVERGED, STATUSES, SolveResult
from .linalg import SparseSymList, upper_triangle

PROBLEM_FORMAT = "dnnsdp-problem/1"
RESULT_FORMAT = "dnnsdp-result/1"


@dataclass
class RunRecord:
    """One solver run on one problem, as reported in result tables."""

    problem: str
    solver: str
    status: str
    iterations: int
    eta: dict
    eta_max: float
    eta_g: float
    tau_final: float
    wall_seconds: float

    def __post_init__(self):
        if self.status not in STATUSES:
            raise ValueError(f"unknown status {self.status!r}")

    def summary_line(self) -> str:
        return (f"{self.problem} | {self.solver} | iter {self.iterations} | "
                f"eta {self.eta_max:.2e} | gap {self.eta_g:+.2e} | "
                f"tau {self.tau_final:.2f} | time {self.wall_seconds:.2f}s")


def _sym_to_upper(a: np.ndarray) -> list:
    iu, ju = upper_triangle(a.shape[0])[:2]
    return np.asarray(a, dtype=float)[iu, ju].tolist()


def _sym_from_upper(vals: Sequence[float], n: int) -> np.ndarray:
    iu, ju = upper_triangle(n)[:2]
    vals = np.asarray(vals, dtype=float)
    if vals.size != iu.size:
        raise ValueError(f"upper-triangle data has {vals.size} entries, "
                         f"order {n} needs {iu.size}")
    out = np.zeros((n, n))
    out[iu, ju] = vals
    out[ju, iu] = vals
    return out


def _constraints_to_json(a: SparseSymList) -> dict:
    mats = []
    for k in range(a.m):
        i, j, v = a.triples(k)
        mats.append([i.tolist(), j.tolist(), v.tolist()])
    return {"m": a.m, "mats": mats}


def _constraints_from_json(doc: dict, n: int) -> SparseSymList:
    mats = doc["mats"]
    if len(mats) != doc["m"]:
        raise ValueError("constraint count disagrees with the 'm' field")
    return SparseSymList(n, [tuple(t) for t in mats])


def _field(doc: dict, name: str, parse=functools.partial(np.asarray, dtype=float)):
    """``parse(doc[name])``, by default a float vector; a missing or
    malformed field is an error that names it."""
    if name not in doc:
        raise ValueError(f"{name}: missing field")
    try:
        return parse(doc[name])
    except KeyError as exc:
        raise ValueError(f"{name}: no entry {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name}: {exc}") from exc


def problem_to_json(prob: DnnSdpProblem) -> dict:
    doc = {
        "format": PROBLEM_FORMAT,
        "n": prob.n,
        "C": _sym_to_upper(prob.C),
        "A_E": _constraints_to_json(prob.A_E),
        "b_E": np.asarray(prob.b_E, dtype=float).tolist(),
        "A_I": _constraints_to_json(prob.A_I) if prob.A_I is not None else None,
        "b_I": (np.asarray(prob.b_I, dtype=float).tolist()
                if prob.b_I is not None else None),
        "M": None if not prob.M.any() else _sym_to_upper(prob.M),
        "pattern": {"n": prob.pattern.n, "rle": prob.pattern.rle()},
        "meta": dict(prob.meta),
    }
    return doc


def problem_from_json(doc: dict) -> DnnSdpProblem:
    if not isinstance(doc, dict):
        raise ValueError(f"problem document: expected a JSON object, "
                         f"got {type(doc).__name__}")
    if doc.get("format") != PROBLEM_FORMAT:
        raise ValueError(f"not a problem document (format {doc.get('format')!r})")
    n = _field(doc, "n", int)
    c = _field(doc, "C", lambda v: _sym_from_upper(v, n))
    a_e = _field(doc, "A_E", lambda v: _constraints_from_json(v, n))
    b_e = _field(doc, "b_E")
    a_i = b_i = None
    if doc.get("A_I") is not None:
        a_i = _field(doc, "A_I", lambda v: _constraints_from_json(v, n))
        b_i = _field(doc, "b_I")
    m = (np.zeros((n, n)) if doc.get("M") is None
         else _field(doc, "M", lambda v: _sym_from_upper(v, n)))
    pattern = _field(doc, "pattern",
                     lambda v: ConePattern.from_rle(int(v["n"]), v["rle"]))
    return DnnSdpProblem(n=n, C=c, A_E=a_e, b_E=b_e, A_I=a_i, b_I=b_i,
                         M=m, pattern=pattern,
                         meta=_field(doc, "meta", dict) if "meta" in doc else {})


def write_problem(prob: DnnSdpProblem, path) -> None:
    with open(path, "w") as fh:
        json.dump(problem_to_json(prob), fh, sort_keys=True, indent=1)
        fh.write("\n")


def read_json(path, prefix: str = ""):
    """The JSON document at ``path``; a malformed one raises ValueError
    with a message that starts with ``prefix`` and the file name."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{prefix}{path}: malformed document at line "
                             f"{exc.lineno}: {exc.msg}") from exc


def read_problem(path) -> DnnSdpProblem:
    return problem_from_json(read_json(path))


def record_from_result(problem_name: str, solver_name: str,
                       result: SolveResult,
                       report: Optional[ResidualReport] = None) -> RunRecord:
    report = report if report is not None else result.report
    if report is not None:
        eta = {k: float(v) for k, v in report.components().items()}
        eta_max = float(report.eta)
        eta_g = float(report.eta_g)
    else:
        eta = {}
        eta_max = float(result.residual)
        eta_g = math.nan
    return RunRecord(
        problem=problem_name, solver=solver_name, status=result.status,
        iterations=result.iterations, eta=eta, eta_max=eta_max, eta_g=eta_g,
        tau_final=float(result.tau_final), wall_seconds=float(result.wall_seconds))


def write_result(result: SolveResult, report: Optional[ResidualReport], path,
                 problem_name: str = "", solver_name: str = "",
                 config_echo: Optional[dict] = None) -> RunRecord:
    """Write a machine-readable run record (plus a human summary line)."""
    rec = record_from_result(problem_name, solver_name, result, report)
    doc = {"format": RESULT_FORMAT, **asdict(rec),
           "sigma_final": float(result.sigma_final),
           "message": result.message,
           "config": dict(config_echo or {}),
           "summary": rec.summary_line()}
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1, allow_nan=True)
        fh.write("\n")
    return rec


def read_result(path) -> RunRecord:
    """The run record of the result document at ``path``. A malformed
    document, or one without a record field, raises ``ValueError`` naming
    the file or the field, as :func:`read_problem` does."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ValueError(f"result document: expected a JSON object, "
                         f"got {type(doc).__name__}")
    if doc.get("format") != RESULT_FORMAT:
        raise ValueError(f"not a result document (format {doc.get('format')!r})")
    return RunRecord(**{f.name: _field(doc, f.name, lambda v: v) for f in fields(RunRecord)})


# ---------------------------------------------------------------------------
# Performance profiles.

PROFILE_GRID_POINTS = 64   # the points of a performance profile's grid


def emit_performance_profile(records: Sequence[RunRecord], metric: str = "iterations"):
    """Fraction-of-problems-solved-within-ratio step functions.

    For each problem the ratio of a solver's cost to the best solver's
    cost is computed (+inf when unsolved); the curve of a solver at x is
    the fraction of problems with ratio <= x, evaluated on a log-spaced
    grid starting at 1. Returns rows ``(solver, x, y)``.
    """
    if metric not in ("iterations", "time"):
        raise ValueError("metric must be 'iterations' or 'time'")
    solvers = sorted({r.solver for r in records})
    by_solver = {s: {} for s in solvers}
    for r in records:
        if r.problem in by_solver[r.solver]:
            raise ValueError(f"duplicate record for ({r.solver}, {r.problem})")
        by_solver[r.solver][r.problem] = r
    problem_sets = {s: set(d) for s, d in by_solver.items()}
    union = set().union(*problem_sets.values())
    missing = {s: sorted(union - ps) for s, ps in problem_sets.items()
               if union != ps}
    if missing:
        raise ValueError(f"solvers cover different problem sets: missing {missing}")
    problems = sorted(union)

    def cost(rec: RunRecord) -> float:
        if rec.status != CONVERGED:
            return math.inf
        return float(rec.iterations) if metric == "iterations" else rec.wall_seconds

    ratios = {s: [] for s in solvers}
    for p in problems:
        costs = {s: cost(by_solver[s][p]) for s in solvers}
        best = min(costs.values())
        for s in solvers:
            cs = costs[s]
            if math.isinf(cs):
                ratios[s].append(math.inf)
            elif best == 0.0:
                ratios[s].append(1.0 if cs == 0.0 else math.inf)
            else:
                ratios[s].append(cs / best)
    finite = [r for rs in ratios.values() for r in rs if math.isfinite(r)]
    x_max = max(finite) if finite else 1.0
    grid = np.geomspace(1.0, max(x_max * 1.05, 1.0 + 1e-12), PROFILE_GRID_POINTS)
    n_prob = len(problems)
    rows = []
    for s in solvers:
        arr = np.asarray(ratios[s])
        for x in grid:
            y = float((arr <= x).sum()) / n_prob
            rows.append((s, float(x), y))
    return rows


def write_profile_csv(rows, path) -> None:
    with open(path, "w") as fh:
        fh.write("solver,x,y\n")
        for solver, x, y in rows:
            fh.write(f"{solver},{x!r},{y!r}\n")


def read_profile_csv(path):
    rows = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "solver,x,y":
            raise ValueError(f"unexpected profile header {header!r}")
        for line in fh:
            solver, x, y = line.strip().split(",")
            rows.append((solver, float(x), float(y)))
    return rows
