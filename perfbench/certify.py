"""Checks of solver output that do not trust the solver's own code.

``eta`` is recomputed here with dense numpy from the raw constraint
triples and ``numpy.linalg.eigvalsh``; nothing from ``cadmm.linalg``,
``cadmm.cones`` or ``dnnsdp.residuals`` is used, so a later rewrite of
certification is checked against this one. Objectives are compared with
``references.json``, recorded from the parent implementation; a
relabeled instance has the same optimum as its base instance.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from cadmm import problems
from cadmm.cones import FREE, NONNEG, ZERO

REFERENCES = Path(__file__).with_name("references.json")
# eta is recomputed in another summation order than the solver's.
ETA_SLACK = 1.001
# |objective - reference| <= OBJ_RTOL * (1 + |reference|)
OBJ_RTOL = 1e-5


def _triples(a):
    ks, is_, js, vs = [], [], [], []
    for k in range(a.m):
        i, j, v = a.triples(k)
        ks.append(np.full(i.size, k))
        is_.append(i)
        js.append(j)
        vs.append(v)
    return (np.concatenate(ks), np.concatenate(is_), np.concatenate(js),
            np.concatenate(vs), a.m)


def _apply(t, x):
    k, i, j, v, m = t
    w = v * x[i, j] * np.where(i == j, 1.0, 2.0)
    return np.bincount(k, weights=w, minlength=m)


def _adjoint(t, y, n):
    k, i, j, v, _ = t
    out = np.zeros((n, n))
    np.add.at(out, (i, j), y[k] * v)
    return out + out.T - np.diag(np.diag(out))


def _psd_dist(a):
    """Frobenius distance of sym(a) to the PSD cone."""
    w = np.linalg.eigvalsh(0.5 * (a + a.T))
    return float(np.sqrt(np.sum(np.minimum(w, 0.0) ** 2)))


def _pattern_dist(a, kinds, zero_kind):
    """Distance to the cone whose entries of ``zero_kind`` are 0, NonNeg
    entries nonnegative and the rest free."""
    d2 = np.sum(a[kinds == zero_kind] ** 2) + np.sum(np.minimum(a[kinds == NONNEG], 0.0) ** 2)
    return float(np.sqrt(d2))


def eta(prob, result) -> dict:
    """Relative KKT residual components of a result, and their max."""
    n = prob.n
    x = result.x
    if prob.A_I is not None:
        y_i, z, y_e, s = result.z
    else:
        z, y_e, s = result.z
        y_i = None
    c = prob.C
    nx, ns, nz = (float(np.linalg.norm(a)) for a in (x, s, z))
    te = _triples(prob.A_E)
    dual = _adjoint(te, y_e, n) + z + s - c
    out = {}
    if y_i is not None:
        ti = _triples(prob.A_I)
        dual = dual + _adjoint(ti, y_i, n)
        out["eta_I"] = float(np.linalg.norm(np.maximum(0.0, prob.b_I - _apply(ti, x)))) / (
            1.0 + float(np.linalg.norm(prob.b_I)))
        out["eta_Istar"] = float(np.linalg.norm(np.minimum(y_i, 0.0))) / (
            1.0 + float(np.linalg.norm(y_i)))
    kinds = prob.pattern.kinds
    shifted = x - prob.M
    out.update({
        "eta_P": float(np.linalg.norm(_apply(te, x) - prob.b_E)) / (
            1.0 + float(np.linalg.norm(prob.b_E))),
        "eta_D": float(np.linalg.norm(dual)) / (1.0 + float(np.linalg.norm(c))),
        "eta_S": _psd_dist(x) / (1.0 + nx),
        "eta_K": _pattern_dist(shifted, kinds, ZERO) / (1.0 + nx),
        "eta_Sstar": _psd_dist(s) / (1.0 + ns),
        "eta_Kstar": _pattern_dist(z, kinds, FREE) / (1.0 + nz),
        "eta_C1": abs(float(np.vdot(x, s))) / (1.0 + nx + ns),
        "eta_C2": abs(float(np.vdot(shifted, z))) / (1.0 + nx + nz),
    })
    out["eta"] = max(out.values())
    return out


def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)["objectives"]


def check(spec: str, solver: str, prob, result, *, tol: float, refs: dict) -> list:
    """Problems found with one solve; empty when it passes.

    A ``Converged`` result must satisfy ``eta < tol`` by the independent
    recomputation and match its reference objective. Any other status is
    an unsolved run, counted by ``solved_frac``, not a wrong answer.
    """
    errors = []
    if result.status != "Converged":
        return errors
    e = eta(prob, result)["eta"]
    if not e < tol * ETA_SLACK:
        errors.append(f"{spec} {solver}: independent eta {e:.3e} >= {tol:.0e}")
    obj = problems.family_objective(prob, result.x)
    # an instance recorded unsolved has no reference; its eta certifies it
    ref = refs.get(spec, {}).get(solver)
    if ref is not None and abs(obj - ref) > OBJ_RTOL * (1.0 + abs(ref)):
        errors.append(f"{spec} {solver}: objective {obj:.8g} != reference {ref:.8g}")
    if spec.startswith("biq:"):
        _, size, seed = spec.split(":")
        if int(size) <= 20:
            best = problems.brute_force_biq(problems.random_biq(int(size), int(seed)))
            if obj > best + 1e-6 * (1.0 + abs(best)):
                errors.append(f"{spec} {solver}: relaxation bound {obj:.8g} above "
                              f"the brute-force optimum {best:.8g}")
    return errors
