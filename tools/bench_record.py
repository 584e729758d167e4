"""Record one run of the benchmark suite as a JSON file.

    python3 tools/bench_record.py --seed 1 --seconds 40 --out BENCH_12.json

runs ``python3 perfbench/run.py --workload all --seed S --seconds T`` as
a subprocess and writes one JSON object: the commit (``git rev-parse
HEAD``, and whether the work tree had uncommitted changes), the command,
the environment line of the first workload, and each workload's final
JSON line (its end-to-end metrics and check result) under its name.
The exit code is that of ``perfbench/run.py``; no file is written when a
workload printed no final line. :func:`exported` is the ``git archive``
export of a revision that ``tools/ab_pairs.py`` and
``tools/trajectory_digest.py --against`` run from.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ENV_PREFIX = "environment: "
WORKLOAD_PREFIX = "workload "


def parse_output(text: str, names: list) -> tuple:
    """``(environment, {workload: final JSON object})`` from the standard
    output of ``perfbench/run.py --workload all``, where each workload
    prints its environment line, then ``workload NAME: ...``, and ends
    with one JSON line. ``names`` are the workloads that must be there."""
    sections = []
    for line in text.splitlines():
        if line.startswith(ENV_PREFIX):
            sections.append([line])
        elif sections:
            sections[-1].append(line)
    results = {}
    for sec in sections:
        name = next((x[len(WORKLOAD_PREFIX):].split(":", 1)[0] for x in sec
                     if x.startswith(WORKLOAD_PREFIX)), None)
        if name is not None and sec[-1].startswith("{"):
            results[name] = json.loads(sec[-1])
    missing = [n for n in names if n not in results]
    if missing:
        raise ValueError(f"no final JSON line from workload(s) {', '.join(missing)}")
    return json.loads(sections[0][0][len(ENV_PREFIX):]), results


def git(*args) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


@contextlib.contextmanager
def exported(rev: str):
    """The path of a temporary directory that holds ``git archive REV`` of
    this repository, deleted on leaving. SIGTERM inside raises
    ``SystemExit``, so a stopped comparison deletes its export too."""
    previous = signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                                     check=True, stdout=subprocess.PIPE).stdout
            subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
            yield Path(tmp)
    finally:
        signal.signal(signal.SIGTERM, previous)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    command = ["python3", "perfbench/run.py", "--workload", "all",
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
    run = subprocess.run([sys.executable, *command[1:]], cwd=ROOT,
                         stdout=subprocess.PIPE, text=True)
    try:
        names = [w["name"] for w in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
        environment, results = parse_output(run.stdout, names)
    except ValueError as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return run.returncode or 1
    record = {"commit": git("rev-parse", "HEAD"),
              "uncommitted_changes": bool(git("status", "--porcelain",
                                              "--untracked-files=no")),
              "command": command, "returncode": run.returncode,
              "environment": environment, "workloads": results}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
