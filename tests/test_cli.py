# -*- coding: utf-8 -*-

import json
import re
import warnings

import numpy as np
import pytest

from cadmm import engine
from cadmm.cli import EXIT_BY_STATUS, generate_problem, main
from cadmm.io import (STATUSES, problem_to_json, read_profile_csv, read_result,
                      write_result)


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
        code = main(["solve", "--generate", "rcp:10:1", "--policy",
                     "check_period=0", "--policy", "restart_stall_window=0",
                     "--out", str(out)])
        assert code == 0

    def test_requires_exactly_one_source(self):
        assert main(["solve"]) == 1
        assert main(["solve", "--generate", "biq:6:1", "--problem", "x"]) == 1

    def test_unknown_flag_fails(self):
        # the method's parameters (alpha, tau0, tau_bar, eps) are constants
        for flag in ("--frobnicate", "--alpha"):
            assert main(["solve", "--generate", "biq:6:1", flag, "0.5"]) == 1

    def test_unknown_policy_key(self, capsys):
        for key in ("nope", "sigma_min"):
            assert main(["solve", "--generate", "biq:6:1", "--policy", f"{key}=1"]) == 1
            assert f"unknown policy field '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "bench"])
    @pytest.mark.parametrize("flags, field", [
        (["--max-iters", "0"], "max_iters"),
        (["--max-iters", "-3"], "max_iters"),
        (["--tol", "-1"], "tol"),
        (["--policy", "check_period=-5"], "check_period"),
        (["--policy", "restart_stall_window=-1"], "restart_stall_window"),
        (["--policy", "check_period=1.5"], "check_period"),
    ])
    def test_bad_run_settings_fail_fast(self, command, flags, field, tmp_path, capsys):
        # refused before any solve starts, naming the setting
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
        assert err.startswith("error: ") and field in err

    def test_zero_tol_runs_max_iters(self):
        assert main(["solve", "--generate", "biq:6:1", "--tol", "0",
                     "--max-iters", "5"]) == 2

    @pytest.mark.parametrize("fault, field", [
        ("nan-C", "C"), ("duplicate-A_E-row", "A_E"), ("empty-A_I", "A_I"),
        ("zero-A_I", "A_I"), ("missing-b_E", "b_E"),
        ("not-an-object", "problem document"),
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
                          "policy": {"check_period": 50, "restart_stall_window": 100}}

    @pytest.mark.parametrize("manifest, missing", [
        ({"problem": [{"generate": "biq:6:1"}]}, "'problems'"),
        ([{"generate": "biq:6:1"}], "'problems'"),
        ({"problems": [{"generate": "biq:6:1"}, {"name": "x"}]}, "problem 1"),
    ])
    def test_bad_manifest_fails_cleanly(self, manifest, missing, tmp_path, capsys):
        mpath = tmp_path / "manifest.json"
        mpath.write_text(json.dumps(manifest))
        assert main(["bench", "--manifest", str(mpath),
                     "--out-dir", str(tmp_path / "out")]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: manifest ") and missing in err, err


class TestCheckCommand:
    def test_check_passes(self, capsys):
        assert main(["check", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "[FAIL]" not in out
