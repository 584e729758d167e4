# -*- coding: utf-8 -*-

import json

import pytest

from cadmm.cli import generate_problem, main
from cadmm.io import read_profile_csv, read_result


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
        # a huge penalty blows the multiplier past the guard at once
        out = tmp_path / "res.json"
        code = main(["solve", "--generate", "biq:6:1", "--solver", solver,
                     "--sigma", "1e13", "--out", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert "oversized iterate at k=1" in err
        assert json.loads(out.read_text())["message"] == err.strip()

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
        assert main(["solve", "--generate", "biq:6:1", "--frobnicate"]) == 1

    def test_unknown_policy_key(self):
        assert main(["solve", "--generate", "biq:6:1", "--policy", "nope=1"]) == 1


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
        code = main(["bench", "--manifest", str(mpath),
                     "--solvers", "cadmm,dext", "--out-dir", str(outdir)])
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


class TestCheckCommand:
    def test_check_passes(self, capsys):
        assert main(["check", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "[FAIL]" not in out
