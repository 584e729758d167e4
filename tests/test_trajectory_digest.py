# -*- coding: utf-8 -*-

import importlib.util
from pathlib import Path

import numpy as np

from cadmm.cli import generate_problem
from cadmm.dnnsdp import SolverConfig, cadmm_solve

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "trajectory_digest.py"
RECORD = Path(__file__).resolve().parent / "trajectory_record.txt"
spec = importlib.util.spec_from_file_location("trajectory_digest", SCRIPT)
trajectory_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(trajectory_digest)


def test_digest_sees_one_ulp_and_not_the_sign_of_zero():
    a = np.random.default_rng(0).standard_normal((4, 4))
    b = a.copy()
    b[2, 1] = np.nextafter(b[2, 1], np.inf)
    assert trajectory_digest.digest(a) != trajectory_digest.digest(b)
    assert trajectory_digest.digest(np.array([-0.0, 1.0])) == \
        trajectory_digest.digest(np.array([0.0, 1.0]))


def short_solve():
    return cadmm_solve(generate_problem("biq:6:1"), SolverConfig(max_iters=40))


def test_line_is_the_same_on_two_runs_of_one_solve():
    first, second = short_solve(), short_solve()
    assert trajectory_digest.line("biq:6:1", first) == trajectory_digest.line("biq:6:1",
                                                                              second)


def test_brief_keeps_label_status_and_iterations():
    res = short_solve()
    text = trajectory_digest.line("mixed/biq:6:1/cadmm", res)
    assert trajectory_digest.brief(text) == (
        f"mixed/biq:6:1/cadmm {res.status} iters={res.iterations} "
        f"sigma={res.sigma_final!r} tau={res.tau_final:.6g}")


def test_every_solve_keeps_its_recorded_ending_count_and_step():
    # the endings, iteration counts, final sigmas and final taus of the
    # digested solves are on the record; a change that moves one
    # regenerates the record and explains the line
    record = [text for text in RECORD.read_text().splitlines()
              if text and not text.startswith("#")]
    got = []
    for label, run in trajectory_digest.solves():
        got.append(trajectory_digest.brief(trajectory_digest.line(label, run())))
    assert len(record) == 26
    assert got == record
