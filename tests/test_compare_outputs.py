import importlib.util
import pickle
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("compare_outputs",
                                               ROOT / "tools" / "compare_outputs.py")
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def record(p, residual=1e-13, status="converged"):
    """A synthetic dump entry shaped like a plain solver output."""
    return {"p": {"values": np.asarray(p, dtype=float)}, "residuals": {"L": residual},
            "state": {"status": status, "history": [{"n": 0, "cg_iterations": 7,
                                                     "factored": True, "seconds": 0.0}]}}


@pytest.mark.parametrize("b, verdict, code", [
    (record([1.0, 0.0, -2.0]), "bytes", 0),
    (record([1.0, -0.0, -2.0]), "array_equal", 0),
    (record([1.0, 0.0, -2.0 * (1 + 2**-52)]), "max relative difference 2.220e-16 at p.values", 1),
    (record([1.0, 0.0, -2.0], residual=2e-13),
     "bytes; diagnostics max relative difference 5.000e-01 at residuals.L", 1),
    (record([1.0, 0.0, -2.0 * (1 + 2**-52)], residual=4e-13),
     "max relative difference 2.220e-16 at p.values; diagnostics max relative difference "
     "7.500e-01 at residuals.L", 1),
    (record([1.0, 0.0, -2.0], status="diverged"), "max relative difference inf at state.status", 1),
], ids=["bytes", "signed-zero", "difference", "scalar-difference", "both-differ", "status"])
def test_compare_reports_each_case(tmp_path, capsys, b, verdict, code):
    a = record([1.0, 0.0, -2.0])
    paths = tmp_path / "a.pkl", tmp_path / "b.pkl"
    for path, dump in zip(paths, ({"case": a, "other": a}, {"case": b, "other": a})):
        path.write_bytes(pickle.dumps(dump))
    assert compare_outputs.main(["compare", *map(str, paths)]) == code
    assert capsys.readouterr().out.splitlines() == [f"case: {verdict}", "other: bytes"]


def test_compare_fails_on_a_case_only_one_dump_holds(tmp_path, capsys):
    a, b = tmp_path / "a.pkl", tmp_path / "b.pkl"
    a.write_bytes(pickle.dumps({"case": record([1.0])}))
    b.write_bytes(pickle.dumps({"case": record([1.0]), "extra": record([2.0])}))
    assert compare_outputs.main(["compare", str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == ["case: bytes", f"extra: only in {b}"]


def test_plain_zeroes_the_seconds_of_iteration_records():
    from apdiff.gummel import GummelState, IterationRecord

    rec = IterationRecord(n=0, correction_rel=0.5, error_rel_l2=np.nan, residual=1e-13,
                          slope_floored=0, cg_iterations=7, factored=True, seconds=1.25)
    plain = compare_outputs._plain(GummelState(status="converged", history=[rec]))
    assert plain["history"][0]["seconds"] == 0.0
    assert plain["history"][0]["cg_iterations"] == 7 and plain["coarse"] is None


def synthetic_report(runtime_ms, seconds, error=0.25):
    """A study report with one row, one history and one sweep entry, built without a solve."""
    from apdiff.experiments import ExperimentReport
    from apdiff.gummel import IterationRecord

    report = ExperimentReport("gummel")
    report.rows.append({"case": "nonlinear-spline", "N_x": 7, "N_y": 7, "h": 0.125, "eps": 0.1,
                        "alpha": np.nan, "norm": 2, "error": error, "runtime_ms": runtime_ms,
                        "status": "converged"})
    report.histories["M8-eps0.1"] = [IterationRecord(
        n=0, correction_rel=0.5, error_rel_l2=error, residual=1e-13, slope_floored=0,
        cg_iterations=7, factored=True, seconds=seconds)]
    report.extras["sweep"] = [{"eps": 0.1, "cond_estimate": 10.0, "solve_residual": 1e-13,
                               "status": "ok", "runtime_ms": runtime_ms}]
    report.add_check("error", error, "<= 1", error <= 1.0)
    return report


@pytest.mark.parametrize("error, verdict, ok", [
    (0.25, "bytes", True),
    (0.25 * (1 + 2**-50), "max relative difference 8.882e-16 at files.gummel.csv[0].error", False),
    (0.5, "max relative difference 5.000e-01 at files.gummel.csv[0].error", False),
], ids=["timings-only", "rounding", "error"])
def test_study_outputs_leave_out_the_timings(error, verdict, ok):
    a = compare_outputs._plain(compare_outputs.study_outputs(synthetic_report(1.5, 0.01)))
    b = compare_outputs._plain(compare_outputs.study_outputs(synthetic_report(2.5, 0.02, error)))
    assert sorted(a["files"]) == ["gummel-history-M8-eps0.1.csv", "gummel-summary.json",
                                  "gummel-sweep.csv", "gummel.csv"]
    report = a["report"]
    assert report["rows"][0]["runtime_ms"] == report["extras"]["sweep"][0]["runtime_ms"] == 0.0
    assert report["histories"]["M8-eps0.1"][0]["seconds"] == 0.0
    assert compare_outputs.compare_case(a, b) == (verdict, ok)


def test_every_study_is_a_case():
    names = [name for name, _ in compare_outputs.cases()]
    assert [name for name in names if name.startswith("study ")] == [
        f"study {name}" for name in ("convergence", "angle", "gummel", "eps-limit", "conditioning")]


def test_every_case_builder_has_a_case_data_case():
    runs = dict(compare_outputs.cases())
    assert [name for name in runs if name.startswith("case data ")] == [
        f"case data {builder} M16" for builder in ("case_linear_variable", "case_angle",
                                                   "case_nonlinear", "case_ap_limit")]
    data = compare_outputs._plain(runs["case data case_nonlinear M16"]())
    assert sorted(data) == ["exact", "initial_guess", "problem"]
    assert sorted(data["problem"]) == ["diffusivity_cell", "direction", "eps", "grad_source_cell",
                                       "grid", "source_node"]
    assert data["exact"]["values"].shape == data["initial_guess"]["values"].shape == (18, 18)
    linear = compare_outputs._plain(runs["case data case_angle M16"]())
    assert len(linear["problem"]) == 8 and linear["initial_guess"] is None
    assert pickle.loads(pickle.dumps(data))["exact"]["values"].shape == (18, 18)
