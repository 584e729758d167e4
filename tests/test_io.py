# -*- coding: utf-8 -*-

import functools
import json
import operator
import re

import numpy as np
import pytest

from cadmm.cones import ConePattern
from cadmm.dnnsdp import SolverConfig, cadmm_solve
from cadmm.io import (RunRecord, emit_performance_profile,
                      problem_to_json, read_problem, read_profile_csv,
                      read_result, write_problem, write_profile_csv,
                      write_result)
from cadmm.problems import (build_biq, build_ext_biq, build_qap,
                            build_theta_plus, random_biq, random_fap,
                            random_graph, random_rcp)


def instance_zoo():
    builders = [
        lambda s: build_biq(random_biq(4 + s % 4, s)),
        lambda s: build_ext_biq(random_biq(4 + s % 3, s)),
        lambda s: build_theta_plus(random_graph(5 + s % 4, 0.4, s)),
        lambda s: random_rcp(5 + s % 3, s),
        lambda s: random_fap(6 + s % 3, s),
        lambda s: build_qap(np.eye(2 + s % 2), np.ones((2 + s % 2, 2 + s % 2))),
    ]
    out = []
    for s in range(1, 10):
        for build in builders:
            out.append(build(s))
    return out


class TestProblemRoundTrip:
    def test_fifty_instances(self, tmp_path):
        zoo = instance_zoo()
        assert len(zoo) >= 50
        for k, prob in enumerate(zoo[:50]):
            path = tmp_path / f"p{k}.json"
            write_problem(prob, path)
            back = read_problem(path)
            assert problem_to_json(back) == problem_to_json(prob)

    def test_round_trip_preserves_shift_and_pattern(self, tmp_path):
        prob = random_fap(7, 3)
        path = tmp_path / "fap.json"
        write_problem(prob, path)
        back = read_problem(path)
        assert np.array_equal(back.M, prob.M)
        assert back.pattern == prob.pattern
        assert back.A_I is None

    def test_truncated_file_gives_parse_error(self, tmp_path):
        prob = build_biq(random_biq(4, 1))
        path = tmp_path / "p.json"
        write_problem(prob, path)
        text = path.read_text()
        path.write_text(text[:len(text) // 2])
        with pytest.raises(ValueError, match="line"):
            read_problem(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text(json.dumps({"format": "other/1"}))
        with pytest.raises(ValueError, match="not a problem document"):
            read_problem(path)

    def test_invariant_violation_named(self, tmp_path):
        prob = build_biq(random_biq(4, 1))
        doc = problem_to_json(prob)
        doc["b_E"] = doc["b_E"][:-1]  # break the length invariant
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"^b_E has length 4, expected 5 "
                                             r"\(the rows of A_E\)$"):
            read_problem(path)


    @pytest.mark.parametrize("fault, message", [
        ("2-D b_E", r"^b_E has shape \(5, 1\), expected a vector$"),
        ("pattern of order n+1", "^pattern has order 6, expected 5$"),
        ("long b_E", r"^b_E has length 6, expected 5 \(the rows of A_E\)$"),
        ("short b_I", r"^b_I has length 12, expected 13 \(the rows of A_I\)$"),
        ("short C", "^C: upper-triangle data has 14 entries, order 5 needs 15$"),
        ("A_E m", "^A_E: constraint count disagrees with the 'm' field$"),
    ])
    def test_misshapen_field_named_on_read(self, fault, message, tmp_path):
        doc = problem_to_json(build_biq(random_biq(4, 1)))
        if fault == "2-D b_E":
            doc["b_E"] = [[v] for v in doc["b_E"]]
        elif fault == "long b_E":
            doc["b_E"].append(0.0)
        elif fault == "short b_I":
            doc = problem_to_json(build_ext_biq(random_biq(4, 1)))
            doc["b_I"] = doc["b_I"][:-1]
        elif fault == "short C":
            doc["C"].pop()
        elif fault == "A_E m":
            doc["A_E"]["m"] += 1
        else:
            doc["pattern"] = {"n": 6, "rle": ConePattern.all_nonneg(6).rle()}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            read_problem(path)


    @pytest.mark.parametrize("path, value, message", [
        (("n",), 5.9, "^n: expected an integer, got 5.9$"),
        (("n",), "5", "^n: expected an integer, got '5'$"),
        (("pattern", "n"), 5.0, "^pattern: n: expected an integer, got 5.0$"),
        (("pattern", "n"), "5", "^pattern: n: expected an integer, got '5'$"),
        (("A_E", "mats", 0, 0, 0), 0.7, "^A_E: constraint 0: indices must be integers$"),
    ])
    def test_number_of_another_type_named_on_read(self, path, value, message, tmp_path):
        doc = problem_to_json(build_biq(random_biq(4, 1)))
        *parents, last = path
        functools.reduce(operator.getitem, parents, doc)[last] = value
        file = tmp_path / "bad.json"
        file.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=message):
            read_problem(file)


class TestResultDocuments:
    def test_write_read_round_trip(self, tmp_path):
        prob = build_biq(random_biq(8, 2))
        res = cadmm_solve(prob, SolverConfig(tol=1e-6))
        path = tmp_path / "r.json"
        rec = write_result(res, res.report, path, problem_name="biq8",
                           solver_name="cadmm", config_echo={"tol": 1e-6})
        back = read_result(path)
        assert back == rec
        assert back.status == "Converged"
        assert back.eta_max < 1e-6
        assert json.loads(path.read_text())["message"] == ""

    def test_summary_line_fields(self, tmp_path):
        prob = build_biq(random_biq(6, 3))
        res = cadmm_solve(prob, SolverConfig(tol=1e-12, max_iters=5))
        path = tmp_path / "r.json"
        rec = write_result(res, res.report, path, problem_name="p", solver_name="s")
        assert rec.status == "MaxIters"
        line = rec.summary_line()
        for piece in ("iter", "eta", "gap", "tau", "time"):
            assert piece in line

    def test_deterministic_except_timing(self, tmp_path):
        prob = build_biq(random_biq(8, 4))

        def doc_text(path):
            res = cadmm_solve(prob, SolverConfig(tol=1e-6))
            write_result(res, res.report, path, problem_name="p", solver_name="s")
            doc = json.loads(path.read_text())
            doc["wall_seconds"] = 0.0
            doc["summary"] = ""
            return json.dumps(doc, sort_keys=True)

        assert doc_text(tmp_path / "a.json") == doc_text(tmp_path / "b.json")

    @pytest.mark.parametrize("text, message", [
        ('{"format": "dnnsdp-result/1"}', "^problem: missing field$"),
        ('{"format": "dnnsdp-result/1", "problem": "p"', "r.json: malformed document at line 1"),
        ('["dnnsdp-result/1"]', "^result document: expected a JSON object, got list$"),
        ('{"format": "dnnsdp-problem/1"}',
         r"^not a result document \(format 'dnnsdp-problem/1'\)$"),
    ])
    def test_malformed_document_named(self, tmp_path, text, message):
        path = tmp_path / "r.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_result(path)

    def test_rejects_unknown_status(self):
        with pytest.raises(ValueError, match="status"):
            RunRecord(problem="p", solver="s", status="Odd", iterations=1,
                      eta={}, eta_max=1.0, eta_g=0.0, tau_final=1.0,
                      wall_seconds=0.0)


def rec(problem, solver, iters, status="Converged", seconds=None):
    return RunRecord(problem=problem, solver=solver, status=status,
                     iterations=iters, eta={}, eta_max=1e-7, eta_g=0.0,
                     tau_final=1.9,
                     wall_seconds=float(iters) / 100 if seconds is None else seconds)


class TestPerformanceProfile:
    def test_single_solver_is_always_best(self):
        rows = emit_performance_profile([rec("a", "s", 10), rec("b", "s", 20)])
        ys = [y for (_, x, y) in rows if x == 1.0]
        assert ys == [1.0]
        assert all(y == 1.0 for (_, _, y) in rows)

    def test_strictly_faster_solver(self):
        records = [rec("p1", "fast", 10), rec("p2", "fast", 30),
                   rec("p1", "slow", 20), rec("p2", "slow", 90)]
        rows = emit_performance_profile(records)
        at_one = {s: y for (s, x, y) in rows if x == 1.0}
        assert at_one["fast"] == 1.0
        assert at_one["slow"] == 0.0
        slow_final = [y for (s, x, y) in rows if s == "slow"][-1]
        assert slow_final == 1.0
        # slow reaches 1 exactly at the max ratio 3
        reach = min(x for (s, x, y) in rows if s == "slow" and y == 1.0)
        assert reach == pytest.approx(3.0, rel=0.07)

    def test_hand_computed_step_function(self):
        records = [rec("p1", "a", 10), rec("p2", "a", 40), rec("p3", "a", 60),
                   rec("p1", "b", 20), rec("p2", "b", 20), rec("p3", "b", 30)]
        # ratios: a -> (1, 2, 2), b -> (2, 1, 1)
        rows = emit_performance_profile(records)
        a = [(x, y) for (s, x, y) in rows if s == "a"]
        b = [(x, y) for (s, x, y) in rows if s == "b"]
        # the 64-point grid from 1 to 1.05 * 2 has points at 1.98 and 2.004
        assert len(a) == len(b) == 64

        def value_at(curve, x0):
            return [y for (x, y) in curve if x <= x0][-1]

        assert value_at(a, 1.0) == pytest.approx(1 / 3)
        assert value_at(b, 1.0) == pytest.approx(2 / 3)
        assert value_at(a, 1.99) == pytest.approx(1 / 3)
        assert value_at(a, 2.01) == pytest.approx(1.0)
        assert value_at(b, 2.01) == pytest.approx(1.0)

    def test_unsolved_problems_cap_the_fraction(self):
        records = [rec("p1", "a", 10), rec("p2", "a", 10, status="MaxIters"),
                   rec("p1", "b", 10), rec("p2", "b", 50)]
        rows = emit_performance_profile(records)
        a_final = [y for (s, x, y) in rows if s == "a"][-1]
        b_final = [y for (s, x, y) in rows if s == "b"][-1]
        assert a_final == pytest.approx(0.5)
        assert b_final == pytest.approx(1.0)

    def test_curves_nondecreasing(self):
        records = [rec("p1", "a", 10), rec("p2", "a", 25), rec("p3", "a", 7),
                   rec("p1", "b", 13), rec("p2", "b", 5), rec("p3", "b", 70)]
        rows = emit_performance_profile(records)
        for solver in ("a", "b"):
            ys = [y for (s, x, y) in rows if s == solver]
            assert all(y2 >= y1 for y1, y2 in zip(ys, ys[1:]))

    def test_mismatched_sets_error(self):
        records = [rec("p1", "a", 10), rec("p1", "b", 10), rec("p2", "b", 10)]
        with pytest.raises(ValueError, match="different problem sets"):
            emit_performance_profile(records)
        with pytest.raises(ValueError, match="duplicate"):
            emit_performance_profile([rec("p1", "a", 1), rec("p1", "a", 2)])

    def test_time_metric_and_csv_round_trip(self, tmp_path):
        records = [rec("p1", "a", 10, seconds=1.0), rec("p1", "b", 10, seconds=3.0)]
        rows = emit_performance_profile(records, metric="time")
        path = tmp_path / "prof.csv"
        write_profile_csv(rows, path)
        back = read_profile_csv(path)
        assert back == [(s, float(x), float(y)) for (s, x, y) in rows]

    def test_profile_csv_header_checked(self, tmp_path):
        path = tmp_path / "prof.csv"
        path.write_text("solver,y,x\na,1.0,1.0\n")
        with pytest.raises(ValueError, match="^unexpected profile header 'solver,y,x'$"):
            read_profile_csv(path)

    @pytest.mark.parametrize("row, lineno", [
        ("a,1.0", 3), ("a,1.0,2.0,3.0", 3), ("a,z,1.0", 3), ("a,1.0,", 3), ("", 3)])
    def test_profile_csv_malformed_row_named(self, tmp_path, row, lineno):
        path = tmp_path / "prof.csv"
        path.write_text(f"solver,x,y\na,1.0,1.0\n{row}\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: line {lineno}: expected 'solver,x,y' with numbers x and y, "
                f"got {row!r}")):
            read_profile_csv(path)

    def test_unknown_metric(self):
        with pytest.raises(ValueError, match="metric"):
            emit_performance_profile([rec("p", "a", 1)], metric="flops")
