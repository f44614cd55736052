"""Experiment runners: convergence, angle sweep, nonlinear iteration, eps limit, conditioning.

Each study produces an :class:`ExperimentReport` holding per-run rows (one
CSV schema for all experiments), derived log-log slope fits, and a summary
with pass/fail checks against configurable thresholds.  Error norms are
always taken over interior nodes only; ghost values never enter a reported
number.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .apcore import StageError, solve_linear_ap
from .grid import INTERIOR, NodeField, make_grid, sample_node
from .gummel import StopRule, error_plateau_check, gummel_solve
from .linsolve import SolverConfig, norm2
from .naive import assemble_naive, naive_condition, solve_naive
from .problems import case_angle, case_ap_limit, case_linear_variable, case_nonlinear

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "rel_error",
    "fit_loglog_slope",
    "convergence_study",
    "angle_sweep",
    "gummel_study",
    "epsilon_limit_study",
    "conditioning_study",
    "study_config",
    "unit_square_grid",
]

ROW_FIELDS = [
    "case", "N_x", "N_y", "h", "eps", "alpha", "norm", "error",
    "iterations", "coarse_iterations", "coarse_factorizations", "residual_h", "residual_L",
    "residual_l", "residual", "cond_estimate", "runtime_ms", "status",
]

HISTORY_FIELDS = ["N", "correction_rel", "error_rel_l2", "residual", "cg_iterations", "factored",
                  "seconds"]

# Every limit a study checks, by name, where ``thresholds`` sets none; in the
# order of the studies that read them: convergence, angle, gummel, eps-limit, conditioning.
_THRESHOLDS = {"slope_range": (1.8, 2.2), "eps_spread": 0.10, "mean_gradient": 1e-9,
               "variation_l1_l2": 0.06, "variation_linf": 0.10, "max_iterations": 6,
               "plateau_change": 0.01, "eps_slope_range": (0.8, 1.2), "plateau_match": 0.05,
               "blowup_ratio": 1e3}


def _finite_number(value) -> bool:
    return (isinstance(value, (int, float, np.integer, np.floating))
            and not isinstance(value, bool) and bool(np.isfinite(value)))


def unit_square_grid(cells: int):
    """Grid of ``cells x cells`` squares over the benchmark domain [1,2]^2."""
    return make_grid(((1.0, 2.0), (1.0, 2.0)), cells - 1, cells - 1)


def rel_error(exact: NodeField, app: NodeField, norm) -> float:
    """Relative error over interior nodes in the 1, 2 or inf norm."""
    if exact.grid is not app.grid and exact.grid != app.grid:
        raise ValueError("fields live on different grids")
    diff = (exact.values[INTERIOR] - app.values[INTERIOR]).ravel()
    ref = exact.values[INTERIOR].ravel()
    ordm = {1: 1, 2: 2, "inf": np.inf, np.inf: np.inf}[norm]

    def measure(v):
        # a sum or a maximum at ord 1 and inf; only the 2-norm is a BLAS reduction
        return norm2(v) if ordm == 2 else float(np.linalg.norm(v, ordm))

    denom = measure(ref)
    if denom == 0.0:
        raise ValueError("exact field has zero norm; relative error undefined")
    return measure(diff) / denom


def fit_loglog_slope(xs, ys) -> float:
    """Ordinary least-squares slope of log(y) against log(x)."""
    xs = np.log(np.asarray(xs, dtype=float))
    ys = np.log(np.asarray(ys, dtype=float))
    if xs.size < 2:
        raise ValueError("need at least two points for a slope fit")
    return float(np.polyfit(xs, ys, 1)[0])


@dataclass
class ExperimentConfig:
    meshes: list = field(default_factory=lambda: [25, 50, 100, 200])  # cells per side
    eps_list: list = field(default_factory=lambda: [1e-1, 1e-9, 0.0])
    alphas: list = field(default_factory=lambda: list(np.linspace(0.0, np.pi / 2, 19)))
    eta: float = 0.1
    mu: float = 60.0
    tol_rel: float = StopRule.tol_rel
    n_max: int = StopRule.n_max
    solver: SolverConfig = field(default_factory=SolverConfig)
    thresholds: dict = field(default_factory=dict)

    def __post_init__(self):
        # checked here, so that a bad entry fails before the first solve of a study
        for name in ("meshes", "eps_list", "alphas"):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple, np.ndarray)):
                raise ValueError(f"{name} must be a list, got {values!r}")
            if len(values) == 0:
                raise ValueError(f"{name} must not be empty")
        for cells in self.meshes:
            if isinstance(cells, bool) or not isinstance(cells, (int, np.integer)):
                raise ValueError(f"meshes must hold integers, got {cells!r}")
            unit_square_grid(cells)
        for eps in self.eps_list:
            if not (_finite_number(eps) and eps >= 0.0):
                raise ValueError(f"eps_list: eps must be finite and >= 0, got {eps!r}")
        for name in ("meshes", "eps_list"):
            # the studies key their results by mesh and by eps, a set takes -0.0 for 0.0
            values = getattr(self, name)
            if len(set(values)) != len(values):
                raise ValueError(f"{name} must not repeat an entry, got {values!r}")
        for name, items in (("alphas", self.alphas), ("eta", [self.eta]), ("mu", [self.mu])):
            if not all(_finite_number(item) for item in items):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        StopRule(tol_rel=self.tol_rel, n_max=self.n_max)  # the one check of the stop setting
        if not isinstance(self.thresholds, dict):
            raise ValueError(f"thresholds must be an object of limits, got {self.thresholds!r}")
        unknown = sorted(set(self.thresholds) - set(_THRESHOLDS))
        if unknown:
            raise ValueError(f"unknown thresholds {unknown}, expected some of {list(_THRESHOLDS)}")
        for name, value in self.thresholds.items():
            # a range is two finite numbers, low to high, every other limit one
            size = np.size(_THRESHOLDS[name])
            items = list(value) if size > 1 and isinstance(value, (list, tuple)) else [value]
            if not (len(items) == size and all(_finite_number(item) for item in items)
                    and items == sorted(items)):
                what = "two finite numbers, low to high" if size > 1 else "one finite number"
                raise ValueError(f"threshold {name} must be {what}, got {value!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        solver = data.pop("solver", None)
        if not (solver is None or isinstance(solver, dict)):
            raise ValueError(f"solver must be an object with the key tol, got {solver!r}")
        for name, keys, known in (("config", data, cls), ("solver", solver or {}, SolverConfig)):
            expected = [f.name for f in fields(known)]
            unknown = sorted(set(keys) - set(expected))
            if unknown:
                raise ValueError(f"unknown {name} keys {unknown}, expected some of {expected}")
        cfg = cls(**data)
        if solver is not None:
            cfg.solver = SolverConfig(**solver)
        return cfg


# Each study's own meshes and eps list, where they differ from ExperimentConfig's
# (those of ``convergence``).
STUDY_DEFAULTS = {
    "angle": {"meshes": [200], "eps_list": [1e-3, 1e-8]},
    "gummel": {"meshes": [100, 200], "eps_list": [1e-1, 1e-12, 0.0]},
    "eps-limit": {"meshes": [100, 200], "eps_list": sorted(np.logspace(-8, -1, 8)) + [0.0]},
    "conditioning": {"meshes": [50], "eps_list": [1.0, 1e-3, 1e-6]},
}


def study_config(experiment: str, data: dict | None = None) -> ExperimentConfig:
    """The config of ``experiment``: the keys of ``data``, the study's defaults for the rest."""
    if data is not None and not isinstance(data, dict):
        raise ValueError(f"config must be an object of ExperimentConfig keys, got {data!r}")
    defaults = {key: list(value) for key, value in STUDY_DEFAULTS.get(experiment, {}).items()}
    return ExperimentConfig.from_dict({**defaults, **(data or {})})


@dataclass
class ExperimentReport:
    experiment: str
    rows: list = field(default_factory=list)
    slopes: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)  # dicts: name, value, limit, passed
    histories: dict = field(default_factory=dict)  # label -> iteration records
    extras: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)

    def add_check(self, name: str, value, limit_descr: str, passed: bool) -> None:
        self.checks.append(
            {"name": name, "value": value, "limit": limit_descr, "passed": bool(passed)}
        )

    def sorted_rows(self) -> list:
        def key(r):
            return (r["case"], r["N_x"], r["eps"], r["alpha"], str(r["norm"]))

        return sorted(self.rows, key=key)

    def write_outputs(self, out_dir) -> None:
        """The rows CSV, one CSV per history, the sweep CSV if any, and the summary JSON."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / f"{self.experiment}.csv", ROW_FIELDS,
                   ([row.get(k, "") for k in ROW_FIELDS] for row in self.sorted_rows()))
        for label, history in self.histories.items():
            _write_csv(out / f"{self.experiment}-history-{label}.csv", HISTORY_FIELDS,
                       ([rec.n] + [getattr(rec, k) for k in HISTORY_FIELDS[1:]] for rec in history))
        if "sweep" in self.extras:
            sweep_fields = ["eps", "cond_estimate", "solve_residual", "status"]
            _write_csv(out / f"{self.experiment}-sweep.csv", sweep_fields,
                       ([entry[k] for k in sweep_fields] for entry in self.extras["sweep"]))
        payload = {"experiment": self.experiment, "passed": self.passed, "checks": self.checks,
                   "slopes": self.slopes, "extras": self.extras}
        with open(out / f"{self.experiment}-summary.json", "w") as fh:
            json.dump(payload, fh, indent=2, default=float)


def _write_csv(path, header, rows) -> None:
    """A CSV of ``header`` and ``rows``; ``csv`` writes each float as its ``repr``."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def _single_grid(config: ExperimentConfig, experiment: str):
    """The grid of a study that runs one mesh; a ``meshes`` list of another length is rejected."""
    if len(config.meshes) != 1:
        raise ValueError(f"{experiment} runs one mesh, got meshes {config.meshes}")
    return unit_square_grid(config.meshes[0])


def _timed(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and its wall time in milliseconds."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, 1e3 * (time.perf_counter() - t0)


def _add_rows(report: ExperimentReport, case, norms, p: NodeField | None = None,
              **fields) -> list:
    """Append one row per norm for a run on ``case`` and return them.

    Name, grid, eps and alpha come from the case; the error is that of ``p``
    against the exact solution, or nan without ``p``.  ``fields`` set or
    override the remaining columns.
    """
    grid = case.grid
    exact = case.exact_field() if p is not None else None
    rows = [
        {
            "case": case.name, "N_x": grid.nx, "N_y": grid.ny, "h": grid.h,
            "eps": case.eps, "alpha": case.params.get("alpha", np.nan), "norm": norm,
            "error": np.nan if p is None else rel_error(exact, p, norm),
            "iterations": 0, "residual_h": np.nan, "residual_L": np.nan,
            "residual_l": np.nan, "residual": np.nan, "cond_estimate": np.nan, "runtime_ms": np.nan,
            **fields,
        }
        for norm in norms
    ]
    report.rows.extend(rows)
    return rows


def _gummel_run(report: ExperimentReport, case, config: ExperimentConfig, label: str, exact=None):
    """``gummel_solve`` on ``case`` from its initial guess: ``(p, state, fields)``.

    ``fields`` are the run's row columns.  Those of its coarse start, none
    without one, also go to ``extras["coarse"][label]``.
    """
    p0 = sample_node(case.initial_guess, case.grid)
    stop = StopRule(tol_rel=config.tol_rel, n_max=config.n_max)
    (p, state), ms = _timed(gummel_solve, case.problem, p0, stop, config.solver, exact=exact)
    coarse = {} if state.coarse is None else {
        "coarse_iterations": state.coarse.n_iterations,
        "coarse_factorizations": sum(r.factored for r in state.coarse.history)}
    report.extras.setdefault("coarse", {})[label] = coarse
    return p, state, {"iterations": state.n_iterations, "runtime_ms": ms, "status": state.status,
                      **coarse}


def _linear_run(report: ExperimentReport, case, config: ExperimentConfig, norms):
    """Solve ``case`` and add one row per norm: ``(dec, rows)``, the decomposition and those rows.

    A failed stage adds one ``failed`` row naming it instead, and gives ``(None, [])``.
    """
    try:
        dec, ms = _timed(solve_linear_ap, case.problem, config.solver)
    except StageError as exc:
        _add_rows(report, case, ["failed"], status=str(exc))
        return None, []
    residuals = {f"residual_{k}": dec.residuals[k] for k in "hLl"}
    return dec, _add_rows(report, case, norms, dec.p, runtime_ms=ms, **residuals)


def convergence_study(config: ExperimentConfig | None = None) -> ExperimentReport:
    """Error decay under mesh refinement, for several anisotropy strengths.

    Also records the along-direction gradient of the reconstructed mean part
    (the kernel property diagnostic) per run.  A solve that fails a stage
    leaves one ``failed`` row whose status names the stage.
    """
    config = config or study_config("convergence")
    report = ExperimentReport("convergence")
    errors: dict = {}
    for cells in config.meshes:
        grid = unit_square_grid(cells)
        for eps in config.eps_list:
            dec, rows = _linear_run(report, case_linear_variable(grid, eps), config, (2, "inf"))
            for row in rows:
                errors[(eps, row["norm"], cells)] = row["error"]
            if dec is not None:
                gradients = report.extras.setdefault("mean_gradient_l2", {})
                gradients[f"{cells}:{eps}"] = dec.mean_gradient_l2

    for eps in config.eps_list:
        for norm in (2, "inf"):
            pairs = [
                (unit_square_grid(c).h, errors[(eps, norm, c)])
                for c in config.meshes
                if (eps, norm, c) in errors
            ]
            if len(pairs) >= 3:
                report.slopes[f"eps={eps}:l{norm}"] = fit_loglog_slope(*zip(*pairs))

    limits = {**_THRESHOLDS, **config.thresholds}
    lo, hi = limits["slope_range"]
    for key, slope in report.slopes.items():
        report.add_check(f"slope {key}", slope, f"[{lo}, {hi}]", lo <= slope <= hi)
    spread_tol = limits["eps_spread"]
    for cells in config.meshes:
        for norm in (2, "inf"):
            vals = [errors[(eps, norm, cells)] for eps in config.eps_list if (eps, norm, cells) in errors]
            if len(vals) >= 2:
                spread = (max(vals) - min(vals)) / max(vals)
                report.add_check(
                    f"eps spread M{cells} l{norm}", spread, f"< {spread_tol}", spread < spread_tol
                )
    kernel_tol = limits["mean_gradient"]
    worst = max(report.extras.get("mean_gradient_l2", {0: 0.0}).values())
    report.add_check("mean-part gradient ratio", worst, f"<= {kernel_tol}", worst <= kernel_tol)
    failed = sum(row["norm"] == "failed" for row in report.rows)
    report.add_check("failed solves", failed, "== 0", failed == 0)
    return report


def angle_sweep(config: ExperimentConfig | None = None) -> ExperimentReport:
    """Accuracy as a function of the anisotropy angle on a fixed mesh.

    A solve that fails a stage leaves one ``failed`` row whose status names
    the stage, and the sweep goes on with the next angle.
    """
    config = config or study_config("angle")
    report = ExperimentReport("angle")
    grid = _single_grid(config, "angle")
    per_norm: dict = {}
    for eps in config.eps_list:
        for alpha in config.alphas:
            _, rows = _linear_run(report, case_angle(grid, eps, alpha), config, (1, 2, "inf"))
            for row in rows:
                per_norm.setdefault((eps, row["norm"]), []).append(row["error"])

    limits = {**_THRESHOLDS, **config.thresholds}
    var_12, var_inf = limits["variation_l1_l2"], limits["variation_linf"]
    for (eps, norm), errs in per_norm.items():
        variation = max(errs) / min(errs) - 1.0
        report.extras.setdefault("variation", {})[f"eps={eps}:l{norm}"] = variation
        limit = var_inf if norm == "inf" else var_12
        report.add_check(
            f"angle variation eps={eps} l{norm}", variation, f"<= {limit}", variation <= limit
        )
    failed = sum(row["norm"] == "failed" for row in report.rows)
    report.add_check("failed solves", failed, "== 0", failed == 0)
    return report


def gummel_study(config: ExperimentConfig | None = None) -> ExperimentReport:
    """Nonlinear-iteration behavior: convergence speed, plateau, error table.

    Rows and ``extras["coarse"]`` carry the iterations and factorizations of
    each run's coarse start (:func:`gummel.gummel_solve`), empty without one.
    """
    config = config or study_config("gummel")
    report = ExperimentReport("gummel")
    limits = {**_THRESHOLDS, **config.thresholds}
    max_iters, plateau_tol = limits["max_iterations"], limits["plateau_change"]
    for cells in config.meshes:
        grid = unit_square_grid(cells)
        for eps in config.eps_list:
            case = case_nonlinear(grid, eps, eta=config.eta, mu=config.mu)
            label = f"M{cells}-eps{eps:g}"
            p, state, run = _gummel_run(report, case, config, label, case.exact_field())
            report.histories[label] = state.history
            residual = state.history[-1].residual if state.history else np.nan
            converged = state.status == "converged"
            _add_rows(report, case, (1, 2, "inf"), p if converged else None, residual=residual,
                      **run)
            report.add_check(
                f"converged M{cells} eps={eps:g}", state.status, "converged", converged
            )
            report.add_check(
                f"iterations M{cells} eps={eps:g}",
                state.n_iterations,
                f"<= {max_iters}",
                converged and state.n_iterations <= max_iters,
            )
            plateau = error_plateau_check(state.history, plateau_tol)
            report.add_check(
                f"error plateau M{cells} eps={eps:g}",
                plateau.max_rel_change,
                f"<= {plateau_tol}",
                plateau.ok,
            )
    return report


def epsilon_limit_study(config: ExperimentConfig | None = None) -> ExperimentReport:
    """Distance of the computed solution to the exact limit as eps -> 0.

    Two regimes: a linear-in-eps decay while the eps-part dominates, then a
    plateau at the discretization error of the limit solution, which shrinks
    quadratically with the mesh step.  Both are measured against the eps = 0
    solve, so ``eps_list`` must contain 0.  The coarse start of each run is
    recorded as in :func:`gummel_study`.
    """
    config = config or study_config("eps-limit")
    if 0.0 not in config.eps_list:
        raise ValueError(f"eps_list must contain 0, got {config.eps_list}")
    report = ExperimentReport("eps-limit")
    plateau_by_mesh = report.extras.setdefault("e0", {})
    limits = {**_THRESHOLDS, **config.thresholds}
    for cells in config.meshes:
        grid = unit_square_grid(cells)
        cases, solutions, errors, unconverged = {}, {}, {}, 0
        for eps in sorted(config.eps_list):  # 0 first: eps_list holds it, and no eps < 0
            case = cases[eps] = case_ap_limit(grid, eps, eta=config.eta, mu=config.mu)
            if eps == 0.0:  # the limit is the same for every eps
                limit = sample_node(case.limit_exact, grid).values[INTERIOR]
                limit_norm = norm2(limit)
            p, state, run = _gummel_run(report, case, config, f"M{cells}-eps{eps:g}")
            solutions[eps] = p.values[INTERIOR]
            errors[eps] = norm2(solutions[eps] - limit) / limit_norm
            _add_rows(report, case, ["E_eps"], error=errors[eps], **run)
            unconverged += state.status != "converged"
        report.add_check(f"unconverged runs M{cells}", unconverged, "== 0", unconverged == 0)

        e0 = plateau_by_mesh[str(cells)] = errors[0.0]
        eps_pos = sorted(e for e in config.eps_list if e > 0)
        eapp = []
        for eps in eps_pos:
            diff = norm2(solutions[eps] - solutions[0.0]) / limit_norm
            _add_rows(report, cases[eps], ["E_eps_app"], error=diff)
            eapp.append(diff)

        floor = 100.0 * max(e0 * 1e-9, 1e-13)
        fit_eps = [e for e, d in zip(eps_pos, eapp) if d > floor]
        fit_val = [d for d in eapp if d > floor]
        if len(fit_eps) >= 3:
            slope = fit_loglog_slope(fit_eps, fit_val)
            report.slopes[f"M{cells}:E_eps_app"] = slope
            lo, hi = limits["eps_slope_range"]
            report.add_check(f"eps slope M{cells}", slope, f"[{lo}, {hi}]", lo <= slope <= hi)

        if eps_pos:
            drift = abs(errors[eps_pos[0]] - e0) / e0
            tol = limits["plateau_match"]
            report.add_check(f"plateau matches e0 M{cells}", drift, f"<= {tol}", drift <= tol)

    if len(config.meshes) >= 2:
        c1, c2 = sorted(config.meshes)[-2:]
        ratio = plateau_by_mesh[str(c1)] / plateau_by_mesh[str(c2)]
        expected = (c2 / c1) ** 2
        lo, hi = expected / 2.0, expected * 2.0
        report.add_check(
            f"plateau mesh scaling M{c1}/M{c2}", ratio, f"[{lo:.3g}, {hi:.3g}]", lo <= ratio <= hi
        )
    return report


def conditioning_study(config: ExperimentConfig | None = None) -> ExperimentReport:
    """Condition growth of the direct discretization as eps decreases.

    Runs the naive baseline of :mod:`naive` on ``linear-variable`` over the
    eps list in descending order.  ``extras["sweep"]`` holds one entry per
    eps with ``eps``, ``cond_estimate``, ``solve_residual``, ``status`` and
    ``runtime_ms``.
    """
    config = config or study_config("conditioning")
    report = ExperimentReport("conditioning")
    grid = _single_grid(config, "conditioning")
    sweep = report.extras["sweep"] = []
    for eps in sorted(config.eps_list, reverse=True):
        t0 = time.perf_counter()
        case = case_linear_variable(grid, eps)
        cond = naive_condition(assemble_naive(case.problem))
        _, solve = solve_naive(case.problem, config.solver)
        ms = 1e3 * (time.perf_counter() - t0)
        if not np.isfinite(cond):
            status = ">= overflow-threshold"
        else:
            status = "ok" if solve.ok else "ill-conditioned"
        _add_rows(report, case, ["cond"], cond_estimate=cond, residual=solve.residual,
                  runtime_ms=ms, status=status)
        sweep.append({"eps": eps, "cond_estimate": cond, "solve_residual": solve.residual,
                      "status": status, "runtime_ms": ms})

    conds = [entry["cond_estimate"] for entry in sweep]
    increasing = all(a < b or not np.isfinite(b) for a, b in zip(conds, conds[1:]))
    report.add_check("condition growth as eps decreases", conds, "monotone", increasing)
    if np.isfinite(conds[0]) and len(conds) >= 2:
        ratio = conds[-1] / conds[0] if np.isfinite(conds[-1]) else np.inf
        min_ratio = {**_THRESHOLDS, **config.thresholds}["blowup_ratio"]
        report.add_check("blow-up ratio", ratio, f">= {min_ratio:g}", ratio >= min_ratio)
    return report
