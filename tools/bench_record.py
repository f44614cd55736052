"""Write the benchmark record ``BENCH_<pr>.json`` at the repository root.

Usage, from the repository root::

    python3 tools/bench_record.py PR

Runs ``perfbench/run.py --trace 0`` once per workload of ``BENCHMARK.json``,
with seed 7 and the file's ``run_seconds``.  The record holds, per workload,
the end-to-end metrics and the ``attempted`` and ``failed`` operation counts
of that run, plus the line count of ``src/`` and the commit measured.  Next
to the medians ``solve_s`` and ``setup_s`` it keeps their per-phase minimum
and maximum (``solve_s_min`` … ``setup_s_max``), read from the full record
that ``perfbench/run.py`` writes to ``perfbench/out/``, so a run on a loaded
machine shows as a wide spread in its own file.  One run per workload is a
trajectory point, not a perf claim: a claim needs paired runs of parent and
change.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.run import OUT_DIR, git_commit, src_lines  # noqa: E402

SEED = 7
PHASED = ("solve_s", "setup_s")  # metrics that are medians over timed phases


def workload_entry(result_line: str, record: dict) -> dict:
    """Metric values, phase spread and operation counts of one ``perfbench/run.py`` run.

    ``result_line`` is the run's JSON result line and ``record`` the
    ``"record"`` part of the full record it wrote.
    """
    result = json.loads(result_line)
    entry = {name: m["value"] for name, m in result["metrics"].items()}
    for name in PHASED:
        entry[f"{name}_min"] = min(record[name])
        entry[f"{name}_max"] = max(record[name])
    entry["attempted"] = result["attempted"]
    entry["failed"] = result["failed"]
    return entry


def build_record(pr: int, runs: dict, lines: int, commit: str | None) -> dict:
    """The record of one PR from each workload's ``(result line, record)``, by workload name."""
    return {
        "pr": pr,
        "commit": commit,
        "src_lines": lines,
        "seed": SEED,
        "workloads": {name: workload_entry(*run) for name, run in runs.items()},
    }


def run_workload(name: str, seconds: int) -> tuple[str, dict]:
    """Run one workload; its JSON result line and the ``"record"`` of its full record."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", name,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    full = json.loads((OUT_DIR / f"{name}-seed{SEED}-trace0.json").read_text())
    return proc.stdout.strip().splitlines()[-1], full["record"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("pr", type=int)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = {w["name"]: run_workload(w["name"], spec["run_seconds"]) for w in spec["workloads"]}
    record = build_record(args.pr, runs, src_lines(), git_commit())
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(out.relative_to(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
