# -*- coding: utf-8 -*-

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "setup_split.py"


def test_prints_the_best_time_of_each_step_per_instance():
    out = subprocess.run([sys.executable, str(SCRIPT), "--workload", "psd_bound",
                          "--seed", "1", "--reps", "2"],
                         check=True, stdout=subprocess.PIPE, text=True).stdout
    lines = out.splitlines()
    assert lines[0] == "psd_bound, seed 1, best of 2 set-ups, ms:"
    assert len(lines) == 2
    got = re.fullmatch(r"biq:48:2: generate (\S+), relabel (\S+), prepare (\S+)", lines[1])
    assert got and all(float(ms) > 0.0 for ms in got.groups())
