import csv
import json

import numpy as np
import pytest

from apdiff import experiments, gummel, naive
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
    assert header == "N,correction_rel,error_rel_l2,residual,cg_iterations,factored,seconds"
    label = hist_files[0].name[len("gummel-history-"):-len(".csv")]
    with open(hist_files[0]) as fh:
        rows = list(csv.DictReader(fh))
    history = report.histories[label]
    assert [row["factored"] for row in rows] == [str(r.factored) for r in history]
    assert [int(row["cg_iterations"]) for row in rows] == [r.cg_iterations for r in history]
    assert rows[0]["factored"] == "True"
    assert [float(row["residual"]) for row in rows] == [r.residual for r in history]
    assert all(float(row["seconds"]) > 0.0 for row in rows)
    # the summary rows carry the last iteration's residual
    (row,) = [r for r in report.rows if f"M{r['N_x'] + 1}-eps{r['eps']:g}" == label
              and r["norm"] == 2]
    assert row["residual"] == history[-1].residual


def test_gummel_studies_record_the_coarse_start(tmp_path, monkeypatch):
    # 32 squares per side start from 16 once the coarse grid may be that small;
    # 20 squares per side do not, and leave the coarse columns empty
    monkeypatch.setattr(gummel, "COARSE_MIN_SQUARES", 16)
    report = gummel_study(ExperimentConfig(meshes=[20, 32], eps_list=[0.1]))
    assert report.passed
    assert report.extras["coarse"] == {
        "M20-eps0.1": {}, "M32-eps0.1": {"coarse_iterations": 5, "coarse_factorizations": 2}}
    report.write_outputs(tmp_path)
    with open(tmp_path / "gummel.csv") as fh:
        rows = {(row["N_x"], row["norm"]): row for row in csv.DictReader(fh)}
    row = rows[("31", "2")]
    assert (row["coarse_iterations"], row["coarse_factorizations"]) == ("5", "2")
    row = rows[("19", "2")]
    assert row["coarse_iterations"] == row["coarse_factorizations"] == ""
    summary = json.loads((tmp_path / "gummel-summary.json").read_text())
    assert summary["extras"]["coarse"] == report.extras["coarse"]

    limit = epsilon_limit_study(ExperimentConfig(meshes=[32], eps_list=[0.1, 0.0]))
    assert set(limit.extras["coarse"]) == {"M32-eps0.1", "M32-eps0"}
    for row in limit.rows:
        if row["norm"] == "E_eps":
            assert row["coarse_iterations"] >= 1 and row["coarse_factorizations"] >= 1


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


def test_convergence_fails_when_every_solve_fails(monkeypatch):
    def fail(problem, config):
        raise StageError("mean-potential solve failed: residual 1e-3")

    monkeypatch.setattr(experiments, "solve_linear_ap", fail)
    report = convergence_study(small_config())
    assert not report.passed
    (check,) = [c for c in report.checks if c["name"] == "failed solves"]
    assert check["value"] == 6 and not check["passed"]


def test_angle_sweep_stage_failure_is_a_failed_row(tmp_path, monkeypatch):
    solve = experiments.solve_linear_ap
    calls = []

    def fail_second(problem, config):
        calls.append(problem)
        if len(calls) == 2:
            raise StageError("flux-potential solve failed: residual 1e-3")
        return solve(problem, config)

    monkeypatch.setattr(experiments, "solve_linear_ap", fail_second)
    cfg = ExperimentConfig(meshes=[12], eps_list=[1e-3],
                           alphas=list(np.linspace(0.0, np.pi / 2, 4)))
    report = angle_sweep(cfg)
    assert len(calls) == 4  # the sweep goes on past the failed angle
    failed = [row for row in report.rows if row["norm"] == "failed"]
    assert len(failed) == 1 and "flux-potential" in failed[0]["status"]
    assert failed[0]["alpha"] == pytest.approx(np.pi / 6)
    assert not report.passed
    (check,) = [c for c in report.checks if c["name"] == "failed solves"]
    assert check["value"] == 1 and not check["passed"]
    report.write_outputs(tmp_path)
    with open(tmp_path / "angle.csv") as fh:
        statuses = [row["status"] for row in csv.DictReader(fh) if row["norm"] == "failed"]
    assert len(statuses) == 1 and "flux-potential" in statuses[0]
    assert (tmp_path / "angle-summary.json").exists()


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


def test_epsilon_limit_study_fails_on_unconverged_runs():
    cfg = ExperimentConfig(meshes=[24, 32], eps_list=[1e-4, 1e-3, 1e-2, 1e-1, 0.0], n_max=1)
    report = epsilon_limit_study(cfg)
    assert {r["status"] for r in report.rows if r["norm"] == "E_eps"} == {"max_iterations"}
    assert not report.passed
    counts = {c["name"]: (c["value"], c["passed"]) for c in report.checks}
    assert counts["unconverged runs M24"] == (5, False)
    assert counts["unconverged runs M32"] == (5, False)


def test_epsilon_limit_study_requires_eps_zero(monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("no run may start")

    monkeypatch.setattr(experiments, "gummel_solve", no_solve)
    with pytest.raises(ValueError, match="eps_list must contain 0"):
        epsilon_limit_study(ExperimentConfig(meshes=[12], eps_list=[1e-2, 1e-1]))


def test_conditioning_study_small(tmp_path):
    cfg = ExperimentConfig(meshes=[20], eps_list=[1.0, 1e-3, 1e-6])
    report = conditioning_study(cfg)
    assert report.passed
    # the naive solve's residual goes in the generic column, not the h stage's
    for row, entry in zip(report.rows, report.extras["sweep"]):
        assert row["residual"] == entry["solve_residual"] > 0.0
        assert np.isnan(row["residual_h"])
    report.write_outputs(tmp_path)
    sweep_csv = tmp_path / "conditioning-sweep.csv"
    assert sweep_csv.exists()
    with open(sweep_csv) as fh:
        header = fh.readline().strip()
    assert header == "eps,cond_estimate,solve_residual,status"


def test_conditioning_study_reports_an_overflowed_estimate(monkeypatch):
    monkeypatch.setattr(experiments, "naive_condition", lambda system: np.inf)
    report = conditioning_study(ExperimentConfig(meshes=[8], eps_list=[1.0, 1e-3, 1e-6]))
    assert [row["status"] for row in report.rows] == [">= overflow-threshold"] * 3
    assert [entry["status"] for entry in report.extras["sweep"]] == [">= overflow-threshold"] * 3
    # an infinite estimate counts as growth; without a finite first one there is no ratio
    assert [(c["name"], c["passed"]) for c in report.checks] == [
        ("condition growth as eps decreases", True)]


def test_conditioning_study_factors_once_per_eps(monkeypatch):
    cfg = ExperimentConfig(meshes=[16], eps_list=[1.0, 1e-3, 1e-6])

    def comparable(report):  # exact float reprs, nan included, runtimes left out
        rows = [{k: v for k, v in r.items() if k != "runtime_ms"} for r in report.rows]
        return json.dumps([rows, report.checks], sort_keys=True, default=float)

    def condition_without_handoff(system):
        cond = real_condition(system)
        naive._handoff.clear()
        return cond

    real_condition, real_splu, calls = experiments.naive_condition, naive.spla.splu, []
    monkeypatch.setattr(naive.spla, "splu", lambda *a, **k: calls.append(1) or real_splu(*a, **k))
    shared = comparable(conditioning_study(cfg))
    assert len(calls) == 3
    monkeypatch.setattr(experiments, "naive_condition", condition_without_handoff)
    assert comparable(conditioning_study(cfg)) == shared
    assert len(calls) == 9


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


@pytest.mark.parametrize("experiment", ["gummel", "eps-limit"])
@pytest.mark.parametrize("bad", ['"tol_rel": NaN', '"tol_rel": Infinity', '"n_max": 2.5'],
                         ids=["nan-tol", "inf-tol", "fractional-n_max"])
def test_cli_rejects_bad_stop_rule(tmp_path, experiment, bad):
    # json reads NaN and Infinity, and the config passes both limits through
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"meshes": [8], "eps_list": [0.1, 0.0], ' + bad + "}")
    with pytest.raises(ValueError, match="tol_rel|n_max"):
        cli.main([experiment, "--config", str(cfg_path), "--out", str(tmp_path / "o")])


def test_cli_rejects_fractional_mesh(tmp_path):
    # truncated, 25.5 cells per side would run a 25-cell mesh
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"meshes": [25.5], "eps_list": [1.0, 1e-3, 1e-6]}')
    with pytest.raises(ValueError, match="integer"):
        cli.main(["conditioning", "--config", str(cfg_path), "--out", str(tmp_path / "o")])


@pytest.mark.parametrize("experiment, data, match", [
    ("gummel", {"meshes": [100, 2]}, "nx=1"),
    ("convergence", {"eps_list": [0.1, -1.0]}, "eps must be finite and >= 0"),
    ("convergence", {"eps_list": [0.1, float("nan")]}, "eps must be finite and >= 0"),
    ("angle", {"alphas": [0.0, float("nan")]}, "alphas must be finite"),
    ("gummel", {"eta": float("nan")}, "eta must be finite"),
    ("eps-limit", {"mu": float("inf")}, "mu must be finite"),
    ("convergence", {"thresholds": {"slope_rnage": [5.0, 6.0]}}, "slope_rnage"),
    ("convergence", {"thresholds": {"slope_range": 2.0}}, "slope_range must be two finite"),
    ("eps-limit", {"thresholds": {"eps_slope_range": [0.8, "x"]}}, "eps_slope_range"),
    ("gummel", {"thresholds": {"max_iterations": float("nan")}}, "max_iterations must be one"),
    ("angle", {"thresholds": {"variation_linf": [0.1]}}, "variation_linf must be one finite"),
    ("conditioning", {"thresholds": {"blowup_ratio": "x"}}, "blowup_ratio must be one finite"),
    ("convergence", {"meshes": []}, "meshes must not be empty"),
    ("convergence", {"eps_list": []}, "eps_list must not be empty"),
    ("angle", {"alphas": []}, "alphas must not be empty"),
    ("angle", {"meshes": [8, 16]}, "angle runs one mesh"),
    ("conditioning", {"meshes": [8, 16]}, "conditioning runs one mesh"),
    ("convergence", [1, 2], "config must be an object"),
    ("convergence", {"solver": 5}, "solver must be an object"),
    ("convergence", {"solver": {"tol": "x"}}, "solver tol must be in"),
    ("convergence", {"meshes": 5}, "meshes must be a list"),
    ("convergence", {"meshes": ["a"]}, "meshes must hold integers"),
    ("convergence", {"eps_list": ["a"]}, "eps_list: eps must be finite"),
    ("gummel", {"eta": "x"}, "eta must be finite"),
    ("gummel", {"tol_rel": "x"}, "tol_rel must be finite"),
    ("gummel", {"n_max": True}, "n_max must be an integer"),
    ("conditioning", {"mesh": [8]}, r"unknown config keys \['mesh'\]"),
    ("convergence", {"solver": {"tols": 1e-10}}, r"unknown solver keys \['tols'\]"),
    ("convergence", {"thresholds": 5}, "thresholds must be an object"),
    ("convergence", {"thresholds": None}, "thresholds must be an object"),
    ("convergence", {"thresholds": {"slope_range": [2.2, 1.8]}}, "slope_range must.*low to high"),
    ("eps-limit", {"thresholds": {"eps_slope_range": [1.2, 0.8]}}, "eps_slope_range.*low to high"),
    ("convergence", {"meshes": [8, 8, 16]}, "meshes must not repeat"),
    ("gummel", {"eps_list": [0.1, 0.1]}, "eps_list must not repeat"),
    ("eps-limit", {"eps_list": [0.1, 0.0, -0.0]}, "eps_list must not repeat"),
    ("convergence", {"n_max": "x"}, "n_max must be an integer"),
    ("conditioning", {"tol_rel": -1.0}, "tol_rel must be finite and positive"),
], ids=["mesh", "negative-eps", "nan-eps", "nan-alpha", "nan-eta", "inf-mu", "misspelt-threshold",
        "scalar-range", "text-in-range", "nan-threshold", "list-threshold", "text-threshold",
        "no-meshes", "no-eps", "no-alphas", "two-angle-meshes", "two-conditioning-meshes",
        "list-config", "scalar-solver", "text-tol", "scalar-meshes", "text-mesh", "text-eps",
        "text-eta", "text-tol-rel", "true-n-max", "misspelt-key", "misspelt-solver-key",
        "scalar-thresholds", "null-thresholds", "reversed-slope-range", "reversed-eps-slope-range",
        "repeated-mesh", "repeated-eps", "signed-zero-eps", "text-n-max-convergence",
        "negative-tol-rel-conditioning"])
def test_cli_rejects_a_bad_config_before_the_first_solve(tmp_path, monkeypatch, experiment,
                                                          data, match):
    # each bad entry follows good ones, or is read by every run, so a check
    # made in the run that reads it would come after a solve or in the sampler
    calls = []

    def solver(*args, **kwargs):
        calls.append(1)
        raise AssertionError("a run started")

    for name in ("solve_linear_ap", "gummel_solve", "naive_condition", "solve_naive"):
        monkeypatch.setattr(experiments, name, solver)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(data))
    with pytest.raises(ValueError, match=match):
        cli.main([experiment, "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert calls == []
    assert not (tmp_path / "o").exists()


# The meshes and eps list each experiment runs by default.
STUDY_RUNS = {
    "convergence": ([25, 50, 100, 200], [1e-1, 1e-9, 0.0]),
    "angle": ([200], [1e-3, 1e-8]),
    "gummel": ([100, 200], [1e-1, 1e-12, 0.0]),
    "eps-limit": ([100, 200], list(np.logspace(-8, -1, 8)) + [0.0]),
    "conditioning": ([50], [1.0, 1e-3, 1e-6]),
}


@pytest.mark.parametrize("experiment", sorted(STUDY_RUNS))
def test_partial_config_keeps_the_experiment_defaults(experiment, tmp_path, monkeypatch):
    # the keys a config leaves out are the experiment's own defaults, not
    # those of ExperimentConfig, which are convergence's
    configs = []

    def study(config=None):
        configs.append(config)
        return experiments.ExperimentReport(experiment)

    monkeypatch.setitem(cli.EXPERIMENTS, experiment, study)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"thresholds": {"blowup_ratio": 1000}}')
    assert cli.main([experiment, "--config", str(cfg_path), "--out", str(tmp_path / "o")]) == 0
    meshes, eps_list = STUDY_RUNS[experiment]
    assert (configs[0].meshes, configs[0].eps_list) == (meshes, eps_list)
    assert configs[0].thresholds == {"blowup_ratio": 1000}


def test_studies_without_a_config_take_the_same_defaults(monkeypatch):
    def stop(experiment, data=None):
        raise LookupError(experiment)

    monkeypatch.setattr(experiments, "study_config", stop)
    for experiment, study in cli.EXPERIMENTS.items():
        with pytest.raises(LookupError, match=f"^{experiment}$"):
            study()


def test_partial_conditioning_config_runs_its_defaults(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"thresholds": {"blowup_ratio": 1000}}')
    out_dir = tmp_path / "out"
    assert cli.main(["conditioning", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    assert "PASSED" in capsys.readouterr().out
    with open(out_dir / "conditioning.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [(int(r["N_x"]), float(r["eps"])) for r in rows] == [(49, 1e-6), (49, 1e-3), (49, 1.0)]


def test_config_from_dict_with_solver():
    cfg = ExperimentConfig.from_dict({"meshes": [10], "solver": {"tol": 1e-11}})
    assert cfg.meshes == [10]
    assert cfg.solver.tol == 1e-11
    with pytest.raises(ValueError, match=r"unknown solver keys \['kind'\]"):
        ExperimentConfig.from_dict({"solver": {"kind": "direct", "tol": 1e-11}})


def test_config_rejects_case_key():
    with pytest.raises(ValueError, match=r"unknown config keys \['case'\]"):
        ExperimentConfig.from_dict({"case": "linear-variable"})
