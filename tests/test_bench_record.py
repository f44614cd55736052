import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_record", ROOT / "tools" / "bench_record.py")
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)

# the last line perfbench/run.py prints for a --trace 0 run
RESULT_LINE = json.dumps({
    "correct": False,
    "attempted": 12,
    "failed": 1,
    "metrics": {
        "solve_s": {"value": 4.25, "unit": "s"},
        "setup_s": {"value": 0.5, "unit": "s"},
        "peak_rss_mb": {"value": 350.1, "unit": "MiB"},
        "rel_l2_error": {"value": 3.2e-05, "unit": "1"},
    },
})
# the "record" part of the full record that run writes to perfbench/out/
RECORD = {"setup_s": [0.5, 0.75, 0.25], "solve_s": [4.5, 4.25, 3.75], "attempted": 12}


def test_record_holds_metrics_counts_size_and_commit():
    record = bench_record.build_record(7, {"linear-m400": (RESULT_LINE, RECORD)}, 2205, "abc123")
    assert record == {
        "pr": 7,
        "commit": "abc123",
        "src_lines": 2205,
        "seed": 7,
        "workloads": {"linear-m400": {"solve_s": 4.25, "setup_s": 0.5, "peak_rss_mb": 350.1,
                                      "rel_l2_error": 3.2e-05,
                                      "solve_s_min": 3.75, "solve_s_max": 4.5,
                                      "setup_s_min": 0.25, "setup_s_max": 0.75,
                                      "attempted": 12, "failed": 1}},
    }
    json.dumps(record)


def test_record_covers_every_benchmark_workload(monkeypatch, tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ran = []
    monkeypatch.setattr(bench_record, "run_workload",
                        lambda name, seconds: ran.append((name, seconds)) or (RESULT_LINE, RECORD))
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    assert bench_record.main(["9"]) == 0
    record = json.loads((tmp_path / "BENCH_9.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert ran == [(name, spec["run_seconds"]) for name in names]
    assert list(record["workloads"]) == names
    assert record["pr"] == 9


def test_phase_spread_comes_from_the_full_record_of_the_run(monkeypatch, tmp_path):
    def fake_run(cmd, **kwargs):
        workload, seed = cmd[cmd.index("--workload") + 1], cmd[cmd.index("--seed") + 1]
        full = {"environment": {}, "result": json.loads(RESULT_LINE), "record": RECORD}
        (tmp_path / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(full))
        return SimpleNamespace(stdout=f"solve_s = 4.25 s\n{RESULT_LINE}\n")

    monkeypatch.setattr(bench_record.subprocess, "run", fake_run)
    monkeypatch.setattr(bench_record, "OUT_DIR", tmp_path)
    line, record = bench_record.run_workload("gummel-m200", 20)
    assert line == RESULT_LINE and record == RECORD
    entry = bench_record.workload_entry(line, record)
    assert (entry["solve_s_min"], entry["solve_s_max"]) == (3.75, 4.5)
    assert (entry["setup_s_min"], entry["setup_s_max"]) == (0.25, 0.75)
