# -*- coding: utf-8 -*-

import json
import re
import warnings

import numpy as np
import pytest

from cadmm import engine
from cadmm.cli import EXIT_BY_STATUS, generate_problem, main
from cadmm.cones import ConePattern
from cadmm.io import (STATUSES, problem_to_json, read_profile_csv, read_result,
                      write_result)
from perfbench.suite import base_problem


class TestGenerate:
    def test_families(self):
        for spec, four_block in [("biq:6:1", False), ("ebiq:6:1", True),
                                 ("theta:8:2", False), ("rcp:8:1", False),
                                 ("fap:8:1", False), ("qap:3:1", False)]:
            prob = generate_problem(spec)
            prob.validate()
            assert prob.four_block == four_block

    def test_bad_specs(self):
        with pytest.raises(ValueError, match="family:size:seed"):
            generate_problem("biq:6")
        with pytest.raises(ValueError, match="unknown family"):
            generate_problem("nope:6:1")
        for spec in ("biq:x:1", "biq:6:1.5"):
            with pytest.raises(ValueError, match="integer size and seed"):
                generate_problem(spec)

    def test_theta_at_a_density_is_the_benchmark_instance(self):
        prob, want = generate_problem("theta:48:2:0.85"), base_problem("theta:48:2:0.85")
        for name in ("C", "b_E"):
            assert np.array_equal(getattr(prob, name), getattr(want, name)), name
        for k in range(want.A_E.m):
            for got, ref in zip(prob.A_E.triples(k), want.A_E.triples(k)):
                assert np.array_equal(got, ref), k
        assert prob.A_E.m == want.A_E.m == 948
        assert prob.meta["name"] == want.meta["name"] == "theta48s2d0.85"

    @pytest.mark.parametrize("density", ["0", "1.5", "-0.3", "nan", "x", ""])
    def test_theta_density_outside_the_unit_interval_refused(self, density):
        spec = f"theta:10:1:{density}"
        with pytest.raises(ValueError) as exc:
            generate_problem(spec)
        assert str(exc.value) == (f"generate spec {spec!r}: density must be in (0, 1], "
                                  f"got {density!r}")

    @pytest.mark.parametrize("spec", ["biq:6:1:0.5", "theta:6:1:0.5:1", "theta"])
    def test_a_density_only_for_theta(self, spec):
        with pytest.raises(ValueError, match="^generate spec must be family:size:seed or "
                                             "theta:size:seed:density, with an integer"):
            generate_problem(spec)

    # (family, smallest size, a seed)
    @pytest.mark.parametrize("family, smallest, seed", [
        ("biq", 1, 1), ("ebiq", 3, 1), ("theta", 1, 1), ("rcp", 2, 1),
        ("fap", 2, 2), ("qap", 1, 1)])
    def test_size_below_the_smallest_instance_refused(self, family, smallest, seed):
        generate_problem(f"{family}:{smallest}:{seed}").validate()
        for size in sorted({smallest - 1, 0, -1}):
            spec = f"{family}:{size}:{seed}"
            with pytest.raises(ValueError) as exc:
                generate_problem(spec)
            assert str(exc.value) == (f"generate spec {spec!r}: family {family} needs "
                                      f"a size of at least {smallest}, got {size}")

    @pytest.mark.parametrize("spec, reason", [
        ("qap:9:1", "order 9 exceeds the desk-scale cap 8")])
    def test_builder_error_names_the_spec(self, spec, reason):
        with pytest.raises(ValueError) as exc:
            generate_problem(spec)
        assert str(exc.value).startswith(f"generate spec {spec!r}: {reason}")


class TestSolveCommand:
    def test_cadmm_end_to_end(self, tmp_path):
        out = tmp_path / "res.json"
        code = main(["solve", "--generate", "biq:20:7", "--solver", "cadmm",
                     "--out", str(out)])
        assert code == 0
        rec = read_result(out)
        assert rec.status == "Converged"
        assert rec.eta_max < 1e-6

    def test_dext_comparable_output(self, tmp_path):
        out = tmp_path / "res_dext.json"
        code = main(["solve", "--generate", "biq:12:3", "--solver", "dext",
                     "--tau", "1.618", "--out", str(out)])
        assert code == 0
        rec = read_result(out)
        assert rec.solver == "dext"
        assert rec.eta_max < 1e-6

    def test_solve_from_problem_file(self, tmp_path):
        from cadmm.io import write_problem
        from cadmm.problems import build_biq, random_biq
        ppath = tmp_path / "p.json"
        write_problem(build_biq(random_biq(8, 5)), ppath)
        code = main(["solve", "--problem", str(ppath), "--tol", "1e-6"])
        assert code == 0

    def test_max_iters_exit_code(self):
        code = main(["solve", "--generate", "biq:12:3", "--max-iters", "3"])
        assert code == 2

    @pytest.mark.parametrize("solver", ["cadmm", "dext"])
    def test_diverged_run_reports_why(self, solver, tmp_path, capsys):
        # a huge penalty blows the multiplier past the guard at once; near
        # the float limit the first step overflows, which must end the run
        # as Diverged too, without a warning or an error from a later check
        out = tmp_path / "res.json"
        # the message names the first block past the guard and its norm:
        # X at about 2e14 (the step size sets the digits), then overflowed
        for sigma, norm in (("1e13", r"[12]\.\d\de\+14"), ("1e300", "inf"),
                            ("1e308", "inf")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["solve", "--generate", "biq:6:1", "--solver", solver,
                             "--sigma", sigma, "--out", str(out)])
            assert code == 3, sigma
            err = capsys.readouterr().err
            assert "oversized iterate at k=1" in err
            assert re.search(f"k=1: X has norm {norm};", err), err
            doc = json.loads(out.read_text())
            assert doc["message"] == err.strip()
            assert doc["eta_max"] == float("inf") and doc["eta"] == {}

    def test_policy_override(self, tmp_path):
        out = tmp_path / "res.json"
        code = main(["solve", "--generate", "rcp:10:1", "--check-period", "0",
                     "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["config"]["policy"] == {"check_period": 0}

    def test_requires_exactly_one_source(self):
        assert main(["solve"]) == 1
        assert main(["solve", "--generate", "biq:6:1", "--problem", "x"]) == 1

    def test_help_names_both_generate_forms(self, capsys):
        assert main(["solve", "--help"]) == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "family:size:seed, or theta:size:seed:density" in text

    def test_unknown_flag_fails(self):
        # the method's parameters (alpha, tau0, tau_bar, eps) are constants
        for flag in ("--frobnicate", "--alpha"):
            assert main(["solve", "--generate", "biq:6:1", flag, "0.5"]) == 1

    @pytest.mark.parametrize("command", ["solve", "bench"])
    @pytest.mark.parametrize("value", ["-5", "1.5", "²", "x"])
    def test_check_period_refused_by_name(self, command, value, tmp_path, capsys):
        # before any solve: a negative count by the setting's check, one
        # that is no integer by argparse, after its usage line
        source = (["--generate", "biq:6:1"] if command == "solve"
                  else ["--manifest", str(tmp_path / "manifest.json")])
        assert main([command, *source, "--check-period", value]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1] == (
            "error: check_period must be >= 0, got -5" if value == "-5" else
            f"cadmm {command}: error: argument --check-period: invalid int value: {value!r}")

    @pytest.mark.parametrize("command", ["solve", "bench"])
    @pytest.mark.parametrize("flags, field", [
        (["--max-iters", "0"], "max_iters"),
        (["--max-iters", "-3"], "max_iters"),
        (["--tol", "-1"], "tol"),
        (["--check-period", "-5"], "check_period"),
        (["--policy", "restart_stall_window=-1"], "restart_stall_window"),
        (["--check-period", "1.5"], "check_period"),
        (["--tau", "nan"], "tau"),
        (["--tau", "inf"], "tau"),
        (["--tau", "-1"], "tau"),
        (["--tau", "0"], "tau"),
        (["--check-period", "²"], "check_period"),
    ])
    def test_bad_run_settings_fail_fast(self, command, flags, field, tmp_path, capsys):
        # refused before any solve starts, naming the setting; argparse
        # refuses a count that is no integer and an unknown flag (such as
        # the former --policy KEY=VALUE) after its usage line
        if command == "solve":
            argv = ["solve", "--generate", "biq:6:1"]
        else:
            manifest = tmp_path / "manifest.json"
            manifest.write_text(json.dumps({"problems": [{"generate": "biq:6:1"}]}))
            argv = ["bench", "--manifest", str(manifest),
                    "--out-dir", str(tmp_path / "out")]
        assert main(argv + flags) == 1
        out, err = capsys.readouterr()
        assert out == ""
        message = err.splitlines()[-1]
        assert re.match(rf"(cadmm( {command})?: )?error: ", message), err
        assert field in message.replace("-", "_"), err

    @pytest.mark.parametrize("sigma", ["inf", "1e999", "nan"])
    def test_non_finite_sigma_fails_fast(self, sigma, capsys):
        # only solve has a --sigma flag, so this case is not in the grid
        # of test_bad_run_settings_fail_fast
        assert main(["solve", "--generate", "biq:6:1", "--sigma", sigma]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: sigma must be positive and finite"), err

    def test_zero_tol_runs_max_iters(self):
        assert main(["solve", "--generate", "biq:6:1", "--tol", "0",
                     "--max-iters", "5"]) == 2

    @pytest.mark.parametrize("fault, field", [
        ("nan-C", "C"), ("duplicate-A_E-row", "A_E"), ("empty-A_I", "A_I"),
        ("zero-A_I", "A_I"), ("missing-b_E", "b_E"), ("2-D-b_E", "b_E has shape"),
        ("pattern-order", "pattern has order"), ("not-an-object", "problem document"),
        ("short-b_E", "b_E has length"), ("long-b_I", "b_I has length"),
    ])
    def test_faulty_problem_document_names_field(self, fault, field, tmp_path,
                                                 capsys):
        doc = problem_to_json(generate_problem("ebiq:6:1"))
        if fault == "nan-C":
            doc["C"][1] = float("nan")
        elif fault == "duplicate-A_E-row":
            doc["A_E"]["mats"].append(doc["A_E"]["mats"][0])
            doc["A_E"]["m"] += 1
            doc["b_E"].append(doc["b_E"][0])
        elif fault == "empty-A_I":
            doc["A_I"], doc["b_I"] = {"m": 0, "mats": []}, []
        elif fault == "zero-A_I":
            for mat in doc["A_I"]["mats"]:
                mat[2] = [0.0] * len(mat[2])
        elif fault == "missing-b_E":
            del doc["b_E"]
        elif fault == "2-D-b_E":
            doc["b_E"] = [[v] for v in doc["b_E"]]
        elif fault == "short-b_E":
            doc["b_E"].pop()
        elif fault == "long-b_I":
            doc["b_I"].append(0.0)
        elif fault == "pattern-order":
            doc["pattern"] = {"n": doc["n"] + 1,
                              "rle": ConePattern.all_nonneg(doc["n"] + 1).rle()}
        else:
            doc = [doc]
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        assert main(["solve", "--problem", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {field}"), err


@pytest.mark.parametrize("status", engine.STATUSES)
def test_every_status_has_exit_code_and_round_trips(status, tmp_path):
    assert STATUSES == engine.STATUSES
    assert set(EXIT_BY_STATUS) == set(engine.STATUSES)
    res = engine.SolveResult(status=status, iterations=1, residual=1.0, z=[],
                             x=np.zeros((1, 1)))
    path = tmp_path / "r.json"
    write_result(res, None, path)
    assert read_result(path).status == status


class TestBenchCommand:
    def test_bench_two_solvers(self, tmp_path):
        manifest = {
            "problems": [
                {"name": "biq8a", "generate": "biq:8:1"},
                {"name": "biq8b", "generate": "biq:8:2"},
                {"name": "rcp8", "generate": "rcp:8:1"},
                {"name": "theta8", "generate": "theta:8:2"},
            ],
        }
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(manifest))
        outdir = tmp_path / "bench"
        code = main(["bench", "--manifest", str(mpath), "--solvers", "cadmm,dext",
                     "--tau", "1.0", "--out-dir", str(outdir)])
        assert code == 0
        for metric in ("iterations", "time"):
            rows = read_profile_csv(outdir / f"profile_{metric}.csv")
            solvers = {s for (s, _, _) in rows}
            assert solvers == {"cadmm", "dext"}
            for solver in solvers:
                ys = [y for (s, _, y) in rows if s == solver]
                assert all(b >= a for a, b in zip(ys, ys[1:]))
        rec = read_result(outdir / "biq8a.cadmm.json")
        assert rec.problem == "biq8a"
        # a bench document records the run settings as a solve document does
        config = json.loads((outdir / "biq8a.dext.json").read_text())["config"]
        assert config == {"sigma": 1.0, "tol": 1e-6, "max_iters": None,
                          "solver": "dext", "tau": 1.0,
                          "policy": {"check_period": 50}}

    @pytest.mark.parametrize("manifest, missing", [
        ({"problem": [{"generate": "biq:6:1"}]}, "'problems'"),
        ([{"generate": "biq:6:1"}], "'problems'"),
        ({"problems": [{"generate": "biq:6:1"}, {"name": "x"}]}, "problem 1"),
        ({"problems": [{"generate": "biq:6:1"}, {"generate": "biq:6:1"}]},
         "problem 1 repeats the name 'biq6s1'"),
        ({"problems": [{"generate": "biq:6:1"}, {"name": "a", "generate": "biq:6:2"},
                       {"name": "a", "generate": "rcp:6:1"}]},
         "problem 2 repeats the name 'a'"),
        ({"problems": [{"generate": "biq:6:1"}], "solvers": "cadmm"},
         "'solvers' must be a list"),
        ({"problems": {"generate": "biq:6:1"}}, "'problems' must be a list"),
        ({"problems": "biq:6:1"}, "'problems' must be a list"),
        ('{"problems": [\n', "malformed document at line 2"),
        ({"problems": [{"generate": "biq:6:1"}, {"name": 5, "generate": "biq:6:2"}]},
         "problem 1: 'name' must be a string, got 5"),
        ({"problems": [{"generate": 5}]}, "problem 0: 'generate' must be a string, got 5"),
        ({"problems": [{"path": ["p.json"]}]},
         "problem 0: 'path' must be a string, got ['p.json']"),
    ])
    def test_bad_manifest_fails_cleanly(self, manifest, missing, tmp_path, capsys):
        # refused before any solve starts, naming the manifest and the fault
        mpath = tmp_path / "manifest.json"
        mpath.write_text(manifest if isinstance(manifest, str) else json.dumps(manifest))
        assert main(["bench", "--manifest", str(mpath),
                     "--out-dir", str(tmp_path / "out")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: manifest {mpath}: ") and missing in err, err
        assert not (tmp_path / "out").exists()

    def test_name_from_a_problem_document_must_be_a_string(self, tmp_path, capsys):
        # with no name in the entry, the bench names a problem by its meta
        doc = problem_to_json(generate_problem("biq:6:1"))
        doc["meta"]["name"] = 5
        (tmp_path / "p.json").write_text(json.dumps(doc))
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps({"problems": [{"path": str(tmp_path / "p.json")}]}))
        assert main(["bench", "--manifest", str(mpath),
                     "--out-dir", str(tmp_path / "out")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: manifest {mpath}: problem 0: 'name' must be a string, got 5\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags, manifest_solvers", [
        (["--solvers", "cadmm,foo"], None), ([], ["dext", "foo"])])
    def test_unknown_solver_refused_before_any_solve(self, flags, manifest_solvers,
                                                     tmp_path, capsys):
        manifest = {"problems": [{"name": "biq6s1", "generate": "biq:6:1"}]}
        if manifest_solvers:
            manifest["solvers"] = manifest_solvers
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(manifest))
        outdir = tmp_path / "out"
        assert main(["bench", "--manifest", str(mpath), "--out-dir", str(outdir)]
                    + flags) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: unknown solver 'foo'"), err
        assert not outdir.exists()

    @pytest.mark.parametrize("flags, manifest_solvers", [
        (["--solvers", "cadmm,cadmm"], None), ([], ["cadmm", "dext", "cadmm"])])
    def test_repeated_solver_refused_before_any_solve(self, flags, manifest_solvers,
                                                      tmp_path, capsys):
        # a repeated solver would solve every problem twice and overwrite
        # the first result file with the second
        manifest = {"problems": [{"name": "biq6s1", "generate": "biq:6:1"}]}
        if manifest_solvers:
            manifest["solvers"] = manifest_solvers
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(manifest))
        outdir = tmp_path / "out"
        assert main(["bench", "--manifest", str(mpath), "--out-dir", str(outdir)]
                    + flags) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: solver 'cadmm' is listed twice"), err
        assert not (outdir / "biq6s1.cadmm.json").exists()
        assert not outdir.exists()


class TestCheckCommand:
    def test_check_passes(self, capsys):
        assert main(["check", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "[FAIL]" not in out
