"""Self-tests of the benchmark: ``python3 -m pytest perfbench -q``."""

import copy
import functools
import os

import numpy as np
import pytest

import cadmm
from cadmm import dnnsdp, linalg
from perfbench import certify, suite, tracing

TINY = suite.Workload("tiny", (suite.Instance("biq:10:1", suite.BOTH),
                               suite.Instance("ebiq:5:1", suite.BOTH)))


def _instances(seed):
    perms = suite.permutations(TINY, seed)
    return [suite.generate(inst.spec, perms[inst.spec]) for inst in TINY.instances]


def test_seed_changes_instances_and_repeats_them():
    one, again, two = _instances(1), _instances(1), _instances(2)
    for a, b, c in zip(one, again, two):
        assert np.array_equal(a.C, b.C)
        assert not np.array_equal(a.C, c.C)
        assert np.array_equal(a.A_E.gram(), c.A_E.gram())


def test_relabeled_instances_take_the_same_iterations():
    base = suite.generate("biq:10:1", np.arange(11))
    runs = [suite.solve(p, "cadmm", None) for p in [base] + _instances(5)[:1]]
    assert [r.status for r in runs] == ["Converged"] * 2
    assert runs[0].iterations == runs[1].iterations


@pytest.fixture(scope="module")
def solved():
    prob = _instances(3)[0]
    suite.prepare(prob)
    return prob, suite.solve(prob, "cadmm", None)


def test_independent_eta_matches_the_solver(solved):
    prob, res = solved
    mine = certify.eta(prob, res)
    theirs = res.report.components()
    for key, value in theirs.items():
        assert mine[key] == pytest.approx(value, rel=1e-6, abs=1e-13), key
    assert certify.check("biq:10:1", "cadmm", prob, res, tol=suite.TOL, refs={}) == []


@pytest.mark.parametrize("doctor", ["x_not_psd", "x_off_constraints", "s_not_psd",
                                    "dual_shift", "objective"])
def test_doctored_result_fails_the_check(solved, doctor):
    prob, res = solved
    bad = copy.deepcopy(res)
    refs = {}
    obj = cadmm.problems.family_objective(prob, res.x)
    if doctor == "x_not_psd":
        w, v = np.linalg.eigh(bad.x)
        bad.x = bad.x - (w[-1] + 1e-2) * np.outer(v[:, -1], v[:, -1])
    elif doctor == "x_off_constraints":
        bad.x = bad.x * (1.0 + 1e-4)
    elif doctor == "s_not_psd":
        bad.z[2] = bad.z[2] - 1e-3 * np.eye(prob.n)
    elif doctor == "dual_shift":
        bad.z[1] = bad.z[1] + 1e-3
    else:
        refs = {"biq:10:1": {"cadmm": obj * (1.0 + 1e-3)}}
    assert certify.check("biq:10:1", "cadmm", prob, bad, tol=suite.TOL, refs=refs) != []


class _SteadyHost:
    """A reference whose time never changes."""

    def seconds(self):
        return 2.0


def test_traced_and_untraced_passes_agree_and_tracing_restores(tmp_path):
    perms = suite.permutations(TINY, 7)
    originals = {attr: getattr(dnnsdp, attr) for attr in
                 ("project_psd", "gram_solve", "residuals", "cadmm_step")}
    apply_fn = linalg.SparseSymList.__dict__["apply"]
    check = functools.partial(certify.check, tol=suite.TOL, refs={})
    plain = suite.run_pass(TINY, perms, tmp_path, check, _SteadyHost())
    tracer = tracing.Tracer()
    with tracer:
        tracer.wrap_layers(cadmm)
        assert dnnsdp.project_psd is not originals["project_psd"]
        traced = suite.run_pass(TINY, perms, tmp_path, check, _SteadyHost(), tracer)
    for attr, fn in originals.items():
        assert getattr(dnnsdp, attr) is fn
    assert linalg.SparseSymList.__dict__["apply"] is apply_fn
    assert all(s.status == "Converged" and not s.errors for s in plain.solves + traced.solves)
    got = [(s.iterations, s.residual) for s in traced.solves]
    assert got == [(s.iterations, s.residual) for s in plain.solves]
    totals = tracer.totals()
    steps = sum(s.iterations for s in traced.solves if s.solver == "cadmm")
    assert totals["dnnsdp.cadmm_step"][0] == steps
    for name, (calls, incl, own) in totals.items():
        assert 0.0 <= own <= incl + 1e-9, name


def test_refuses_more_blas_threads_than_cores(capsys):
    from perfbench import run

    cores = len(os.sched_getaffinity(0))
    code = run.main(["--workload", "psd_bound", "--seed", "1", "--seconds", "1",
                     "--threads", str(cores + 1)])
    assert code == 2
    assert "refusing" in capsys.readouterr().err



def test_pass_times_are_divided_by_the_reference(tmp_path):
    perms = suite.permutations(TINY, 4)
    check = functools.partial(certify.check, tol=suite.TOL, refs={})
    p = suite.run_pass(TINY, perms, tmp_path, check, _SteadyHost())
    assert p.solve_ref == pytest.approx(p.solve_s / 2.0)
    assert p.total_ref == pytest.approx(p.total_s / 2.0, rel=1e-3)
