import importlib.util
import json
from pathlib import Path

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


def test_record_holds_metrics_counts_size_and_commit():
    record = bench_record.build_record(7, {"linear-m400": RESULT_LINE}, 2205, "abc123")
    assert record == {
        "pr": 7,
        "commit": "abc123",
        "src_lines": 2205,
        "seed": 7,
        "workloads": {"linear-m400": {"solve_s": 4.25, "setup_s": 0.5, "peak_rss_mb": 350.1,
                                      "rel_l2_error": 3.2e-05, "attempted": 12, "failed": 1}},
    }
    json.dumps(record)


def test_record_covers_every_benchmark_workload(monkeypatch, tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ran = []
    monkeypatch.setattr(bench_record, "run_workload",
                        lambda name, seconds: ran.append((name, seconds)) or RESULT_LINE)
    monkeypatch.setattr(bench_record, "ROOT", tmp_path)
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    assert bench_record.main(["9"]) == 0
    record = json.loads((tmp_path / "BENCH_9.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert ran == [(name, spec["run_seconds"]) for name in names]
    assert list(record["workloads"]) == names
    assert record["pr"] == 9
