"""apdiff benchmark: one workload, timed and checked against the exact solution.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The workloads and metrics are listed in ``BENCHMARK.json``.  The run happens
in a fresh worker process (``perfbench/worker.py``) with the BLAS thread
count capped at the number of usable cores.  This script prints every metric
by name and unit, then as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
full record (environment, samples, failures and, when traced, every span)
goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"
WORKER_TIMEOUT_S = 170  # a run must end within 180 s
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src" / "apdiff").glob("*.py")))


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return out.stdout.strip() or None


def summarize(record: dict, trace: bool, spec: dict) -> dict:
    """The result line: counts, correctness and the metrics ``spec`` lists."""
    if trace:
        values = dict(record["layers"])
        values["trace.overhead_s"] = (statistics.median(record["traced_solve_s"])
                                      - statistics.median(record["solve_s"]))
        wanted = spec["per_layer"]
    else:
        values = {
            "solve_s": statistics.median(record["solve_s"]),
            "setup_s": statistics.median(record["setup_s"]),
            "peak_rss_mb": record["peak_rss_mb"],
            "rel_l2_error": record["rel_l2_error"],
        }
        wanted = spec["end_to_end"]
    failed = len(record["failures"])
    return {
        "correct": failed == 0,
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "apdiff").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'apdiff'} is missing",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update({var: str(nproc) for var in BLAS_THREAD_VARS})
    cmd = [sys.executable, "-m", "perfbench.worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker exceeded {WORKER_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"perfbench: worker failed with exit code {proc.returncode}", file=sys.stderr)
        return 1
    record = json.loads(proc.stdout.strip().splitlines()[-1])

    environment = {
        "nproc": nproc,
        "blas_threads": nproc,
        "numpy": record.pop("numpy"),
        "scipy": record.pop("scipy"),
        "git_commit": git_commit(),
        "seed": args.seed,
        "src_lines": src_lines(),
    }
    result = summarize(record, bool(args.trace), spec)

    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps({"environment": environment, "result": result,
                                    "record": record}, indent=1))

    for failure in record["failures"]:
        print(f"FAILED {failure}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(f"environment: {json.dumps(environment)}")
    print(f"record: {out_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
