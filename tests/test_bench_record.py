# -*- coding: utf-8 -*-

import importlib.util
import signal
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def section(name, value):
    return (f'environment: {{"cores": 2, "workload": "{name}"}}\n'
            f"workload {name}: why it was chosen\n"
            f"passes: 3; solves attempted 3, failed 0, solved 3\n"
            f"solve_ref = {value} ref\n"
            f'{{"correct": true, "metrics": {{"solve_ref": {{"value": {value}}}}}}}\n')


def test_parse_output_keeps_each_final_line_and_the_first_environment():
    text = section("a", 1.5) + section("b", 2.5)
    env, results = bench_record.parse_output(text, ["a", "b"])
    assert env == {"cores": 2, "workload": "a"}
    assert results["a"]["metrics"]["solve_ref"]["value"] == 1.5
    assert results["b"]["metrics"]["solve_ref"]["value"] == 2.5


def test_parse_output_names_a_missing_workload():
    cut = section("b", 2.5).rsplit("\n", 2)[0]   # no final JSON line
    with pytest.raises(ValueError, match="workload.s. b, c"):
        bench_record.parse_output(section("a", 1.5) + cut, ["a", "b", "c"])


def test_export_is_deleted_when_sigterm_stops_its_user(tmp_path):
    # a child enters the helper on HEAD of a repository of one commit,
    # prints the export's path and waits; SIGTERM ends it with the export
    # deleted
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "marker.txt").write_text("exported\n")
    for args in (["init", "-q"], ["add", "marker.txt"],
                 ["-c", "user.name=test", "-c", "user.email=test@example.invalid",
                  "-c", "commit.gpgsign=false", "commit", "-q", "-m", "one"]):
        subprocess.run(["git", "-C", str(repo), *args], check=True)
    child = subprocess.Popen(
        [sys.executable, "-c",
         "import sys, time\n"
         f"sys.path.insert(0, {str(SCRIPT.parent)!r})\n"
         "from pathlib import Path\n"
         "import bench_record\n"
         f"bench_record.ROOT = Path({str(repo)!r})\n"
         "with bench_record.exported('HEAD') as tmp:\n"
         "    print(tmp, flush=True)\n"
         "    time.sleep(60)\n"],
        stdout=subprocess.PIPE, text=True)
    try:
        path = Path(child.stdout.readline().strip())
        assert path.is_absolute() and (path / "marker.txt").read_text() == "exported\n"
        child.send_signal(signal.SIGTERM)
        assert child.wait(timeout=30) == 128 + signal.SIGTERM
    finally:
        child.kill()
        child.wait()
        child.stdout.close()
    assert not path.exists()
