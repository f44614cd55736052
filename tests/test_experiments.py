import csv
import json

import numpy as np
import pytest

from apdiff import experiments
from apdiff.apcore import StageError
from apdiff.experiments import (
    ExperimentConfig,
    angle_sweep,
    conditioning_study,
    convergence_study,
    epsilon_limit_study,
    fit_loglog_slope,
    gummel_study,
    rel_error,
    unit_square_grid,
)
from apdiff.grid import NodeField, sample_node
from apdiff import cli

UNIT_GRID = unit_square_grid(8)


def test_rel_error_trivial():
    f = sample_node(lambda x, y: x + y, UNIT_GRID)
    assert rel_error(f, f, 2) == 0.0
    two = sample_node(lambda x, y: 2.0, UNIT_GRID)
    one = sample_node(lambda x, y: 1.0, UNIT_GRID)
    for norm in (1, 2, "inf"):
        assert rel_error(two, one, norm) == pytest.approx(0.5)


def test_rel_error_rejects_zero_reference():
    zero = NodeField.zeros(UNIT_GRID)
    one = sample_node(lambda x, y: 1.0, UNIT_GRID)
    with pytest.raises(ValueError):
        rel_error(zero, one, 2)


def test_rel_error_ignores_ghost_values():
    exact = sample_node(lambda x, y: x * y, UNIT_GRID)
    app = sample_node(lambda x, y: x * y + 0.001, UNIT_GRID)
    before = rel_error(exact, app, 2)
    app.values[0, :] = 1e9
    app.values[:, -1] = -1e9
    assert rel_error(exact, app, 2) == before


def test_fit_loglog_slope_recovers_power():
    hs = [0.1, 0.05, 0.025]
    errs = [3.0 * h**2 for h in hs]
    assert fit_loglog_slope(hs, errs) == pytest.approx(2.0, rel=1e-12)


def small_config(**kw):
    base = dict(
        meshes=[8, 12, 16],
        eps_list=[1e-1, 0.0],
        alphas=list(np.linspace(0.0, np.pi / 2, 5)),
        thresholds={"slope_range": (1.5, 2.5)},
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_convergence_study_small(tmp_path):
    report = convergence_study(small_config())
    assert report.slopes
    for slope in report.slopes.values():
        assert 1.5 <= slope <= 2.5
    report.write_outputs(tmp_path)
    with open(tmp_path / "convergence.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and set(rows[0]) >= {"case", "N_x", "h", "eps", "norm", "error"}
    summary = json.loads((tmp_path / "convergence-summary.json").read_text())
    assert "checks" in summary and "passed" in summary


def test_convergence_study_deterministic(tmp_path):
    cfg = small_config(meshes=[8, 12])
    r1 = convergence_study(cfg)
    r2 = convergence_study(cfg)
    assert [row["error"] for row in r1.sorted_rows()] == [
        row["error"] for row in r2.sorted_rows()
    ]


def test_angle_sweep_small():
    cfg = ExperimentConfig(meshes=[24], eps_list=[1e-3],
                           alphas=list(np.linspace(0.0, np.pi / 2, 5)))
    report = angle_sweep(cfg)
    errs = {
        (row["alpha"], row["norm"]): row["error"]
        for row in report.rows
        if row["norm"] == 2
    }
    first = errs[(0.0, 2)]
    last = errs[(np.pi / 2, 2)]
    assert first <= 2.0 * last and last <= 2.0 * first  # endpoint symmetry sanity
    assert "variation" in report.extras


def test_gummel_study_small(tmp_path):
    cfg = ExperimentConfig(meshes=[20], eps_list=[1e-1, 0.0])
    report = gummel_study(cfg)
    assert report.passed
    assert report.histories
    report.write_outputs(tmp_path)
    hist_files = list(tmp_path.glob("gummel-history-*.csv"))
    assert hist_files
    with open(hist_files[0]) as fh:
        header = fh.readline().strip()
    assert header == "N,correction_rel,error_rel_l2,residual_h,residual_L,residual_l"


def test_gummel_status_reaches_csv(tmp_path):
    cfg = ExperimentConfig(meshes=[20], eps_list=[0.1], n_max=1)
    gummel_study(cfg).write_outputs(tmp_path)
    with open(tmp_path / "gummel.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert {row["status"] for row in rows} == {"max_iterations"}


def test_convergence_stage_failure_is_a_failed_row(tmp_path, monkeypatch):
    def fail(problem, config):
        raise StageError("mean-potential solve failed: residual 1e-3")

    monkeypatch.setattr(experiments, "solve_linear_ap", fail)
    report = convergence_study(small_config(meshes=[8], eps_list=[0.1]))
    assert [row["norm"] for row in report.rows] == ["failed"]
    assert "mean-potential" in report.rows[0]["status"]
    report.write_outputs(tmp_path)
    with open(tmp_path / "convergence.csv") as fh:
        (row,) = csv.DictReader(fh)
    assert row["norm"] == "failed" and "mean-potential" in row["status"]


def test_convergence_propagates_untyped_errors(monkeypatch):
    def broken(problem, config):
        raise TypeError("a bug, not a failed stage")

    monkeypatch.setattr(experiments, "solve_linear_ap", broken)
    with pytest.raises(TypeError, match="a bug"):
        convergence_study(small_config(meshes=[8], eps_list=[0.1]))


def test_epsilon_limit_study_small():
    cfg = ExperimentConfig(
        meshes=[12, 24],
        eps_list=[1e-6, 1e-4, 1e-3, 1e-2, 1e-1, 0.0],
    )
    report = epsilon_limit_study(cfg)
    e0 = report.extras["e0"]["24"]
    zero_rows = [
        r for r in report.rows if r["norm"] == "E_eps" and r["eps"] == 0.0 and r["N_x"] == 23
    ]
    assert zero_rows[0]["error"] == pytest.approx(e0)  # by definition at eps = 0
    assert any("plateau mesh scaling" in c["name"] for c in report.checks)


def test_conditioning_study_small(tmp_path):
    cfg = ExperimentConfig(meshes=[20], eps_list=[1.0, 1e-3, 1e-6])
    report = conditioning_study(cfg)
    assert report.passed
    report.write_outputs(tmp_path)
    sweep_csv = tmp_path / "conditioning-sweep.csv"
    assert sweep_csv.exists()
    with open(sweep_csv) as fh:
        header = fh.readline().strip()
    assert header == "eps,cond_estimate,solve_residual,status"


def test_cli_runs_and_reports(tmp_path, capsys):
    cfg = {
        "meshes": [20],
        "eps_list": [1.0, 1e-3, 1e-6],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    code = cli.main(["conditioning", "--config", str(cfg_path), "--out", str(out_dir)])
    captured = capsys.readouterr().out
    assert code == 0
    assert "PASSED" in captured
    assert (out_dir / "conditioning.csv").exists()
    assert (out_dir / "conditioning-summary.json").exists()


def test_cli_exit_code_on_failed_threshold(tmp_path, capsys):
    cfg = {
        "meshes": [20],
        "eps_list": [1.0, 1e-3, 1e-6],
        "thresholds": {"blowup_ratio": 1e30},  # unreachable on purpose
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code = cli.main(["conditioning", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_config_from_dict_with_solver():
    cfg = ExperimentConfig.from_dict({"meshes": [10], "solver": {"tol": 1e-11}})
    assert cfg.meshes == [10]
    assert cfg.solver.tol == 1e-11
    with pytest.raises(TypeError, match="kind"):
        ExperimentConfig.from_dict({"solver": {"kind": "direct", "tol": 1e-11}})


def test_config_rejects_case_key():
    with pytest.raises(TypeError, match="case"):
        ExperimentConfig.from_dict({"case": "linear-variable"})
