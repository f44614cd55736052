"""The benchmark's own tests: every workload at a small mesh, gates, tracer.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from apdiff import apcore, gummel, naive
from apdiff.grid import INTERIOR
from conftest import ROOT
from perfbench import run, tracing, worker
from perfbench.workloads import (
    GUMMEL_EPS,
    LINEAR_EPS,
    TEST_CELLS,
    WORKLOADS,
    eps_key,
    load_reference,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert set(worker.NOMINAL_PHASE_S) == set(WORKLOADS)


def test_reference_covers_every_drawable_input():
    ref = load_reference()
    for name, wl in WORKLOADS.items():
        for cells in (TEST_CELLS, wl.cells):
            table = ref[name][str(cells)]
            if name == "linear-m400":
                assert set(table) == {eps_key(e) for e in LINEAR_EPS}
            elif name == "gummel-m200":
                assert set(table) == {eps_key(e) for e in (*GUMMEL_EPS, 0.0)}
            elif name == "angle-sweep-m100":
                assert set(table) == {str(d) for d in range(91)}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seed_changes_inputs_but_not_their_number(name):
    wl = WORKLOADS[name]
    drawn = [wl.draw(np.random.default_rng(seed)) for seed in range(8)]
    distinct = list({json.dumps(p): p for p in drawn}.values())
    assert len(distinct) > 1
    assert len({len(wl.run(wl.setup(TEST_CELLS, p))) for p in distinct[:2]}) == 1


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_small_run_reports_every_metric(name, trace):
    record = worker.measure(name, seed=3, seconds=1, trace=bool(trace), cells=TEST_CELLS)
    result = run.summarize(record, bool(trace), SPEC)
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and np.isfinite(got["value"])
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"], record["failures"]
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def _shifted(field):
    # an offset, not a scale: the naive solution at eps = 1e-6 is close to zero
    out = field.copy()
    out.values[INTERIOR] += 0.1
    return out


# the library call each workload makes, and how to corrupt its solution
CORRUPTIONS = {
    "linear-m400": (apcore, "solve_linear_ap", lambda dec: replace(dec, p=_shifted(dec.p))),
    "angle-sweep-m100": (apcore, "solve_linear_ap", lambda dec: replace(dec, p=_shifted(dec.p))),
    "gummel-m200": (gummel, "gummel_solve", lambda res: (_shifted(res[0]), res[1])),
    "conditioning-m100": (naive, "solve_naive", lambda res: (_shifted(res[0]), res[1])),
}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_corrupted_solution_counts_as_failed(name, monkeypatch):
    module, attr, corrupt = CORRUPTIONS[name]
    original = getattr(module, attr)
    monkeypatch.setattr(module, attr, lambda *a, **k: corrupt(original(*a, **k)))
    record = worker.measure(name, seed=3, seconds=1, trace=False, cells=TEST_CELLS)
    result = run.summarize(record, False, SPEC)
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]
    assert not result["correct"]


def test_gummel_status_other_than_converged_counts_as_failed(monkeypatch):
    original = gummel.gummel_solve

    def stalled(*args, **kwargs):
        p, state = original(*args, **kwargs)
        state.status = "max_iterations"
        return p, state

    monkeypatch.setattr(gummel, "gummel_solve", stalled)
    record = worker.measure("gummel-m200", seed=3, seconds=1, trace=False, cells=TEST_CELLS)
    assert len(record["failures"]) == record["attempted"] == 2


def test_raising_operation_counts_as_failed(monkeypatch):
    def broken(*args, **kwargs):
        raise apcore.StageError("mean-potential solve failed")

    monkeypatch.setattr(apcore, "solve_linear_ap", broken)
    record = worker.measure("angle-sweep-m100", seed=3, seconds=1, trace=False, cells=TEST_CELLS)
    assert len(record["failures"]) == record["attempted"] == 19


def test_self_time_subtracts_children():
    spans = [
        tracing.Span("apcore.solve", 0.0, 10.0, -1),
        tracing.Span("linsolve.factor", 1.0, 4.0, 0),
        tracing.Span("apcore.ghost", 5.0, 9.0, 0),
        tracing.Span("operators.apply_dh", 6.0, 7.0, 2),
    ]
    assert tracing.self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    m = tracing.layer_metrics(spans, phases=1)
    assert m["apcore.self_s"] == 6.0 and m["apcore.ghost_s"] == 4.0
    assert m["linsolve.self_s"] == 3.0 and m["operators.calls"] == 1


def test_tracer_restores_the_library():
    before = (apcore.DirectFactor, apcore.fill_ghost, gummel.solve_linear_ap, naive.estimate_condition)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert gummel.solve_linear_ap is not before[2]
    assert (apcore.DirectFactor, apcore.fill_ghost, gummel.solve_linear_ap,
            naive.estimate_condition) == before


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "linear-m400", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
