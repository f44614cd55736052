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
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .apcore import StageError, solve_linear_ap
from .grid import INTERIOR, NodeField, make_grid, sample_node
from .gummel import StopRule, error_plateau_check, gummel_solve
from .linsolve import SolverConfig
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
    "unit_square_grid",
]

ROW_FIELDS = [
    "case", "N_x", "N_y", "h", "eps", "alpha", "norm", "error",
    "iterations", "residual_h", "residual_L", "residual_l",
    "cond_estimate", "runtime_ms", "status",
]

HISTORY_FIELDS = ["N", "correction_rel", "error_rel_l2", "residual_h", "residual_L", "residual_l"]


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
    denom = float(np.linalg.norm(ref, ordm))
    if denom == 0.0:
        raise ValueError("exact field has zero norm; relative error undefined")
    return float(np.linalg.norm(diff, ordm)) / denom


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
    tol_rel: float = 1e-12
    n_max: int = 30
    solver: SolverConfig = field(default_factory=SolverConfig)
    thresholds: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        solver = data.pop("solver", None)
        cfg = cls(**data)
        if solver is not None:
            cfg.solver = SolverConfig(**solver)
        return cfg


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

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.DictWriter(fh, fieldnames=ROW_FIELDS)
            w.writeheader()
            for row in self.sorted_rows():
                w.writerow({k: row.get(k, "") for k in ROW_FIELDS})

    def write_history_csv(self, label: str, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(HISTORY_FIELDS)
            for rec in self.histories[label]:
                w.writerow([rec.n, repr(rec.correction_rel), repr(rec.error_rel_l2),
                            repr(rec.residual_h), repr(rec.residual_L), repr(rec.residual_l)])

    def write_summary(self, path) -> None:
        payload = {
            "experiment": self.experiment,
            "passed": self.passed,
            "checks": self.checks,
            "slopes": self.slopes,
            "extras": self.extras,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, default=float)

    def write_outputs(self, out_dir) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        self.write_csv(out / f"{self.experiment}.csv")
        for label in self.histories:
            self.write_history_csv(label, out / f"{self.experiment}-history-{label}.csv")
        if "sweep" in self.extras:
            with open(out / f"{self.experiment}-sweep.csv", "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["eps", "cond_estimate", "solve_residual", "status"])
                for entry in self.extras["sweep"]:
                    w.writerow([repr(entry["eps"]), repr(entry["cond_estimate"]),
                                repr(entry["solve_residual"]), entry["status"]])
        self.write_summary(out / f"{self.experiment}-summary.json")


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
            "residual_l": np.nan, "cond_estimate": np.nan, "runtime_ms": np.nan,
            **fields,
        }
        for norm in norms
    ]
    report.rows.extend(rows)
    return rows


def convergence_study(config: ExperimentConfig | None = None) -> ExperimentReport:
    """Error decay under mesh refinement, for several anisotropy strengths.

    Also records the along-direction gradient of the reconstructed mean part
    (the kernel property diagnostic) per run.  A solve that fails a stage
    leaves one ``failed`` row whose status names the stage.
    """
    config = config or ExperimentConfig()
    report = ExperimentReport("convergence")
    errors: dict = {}
    for cells in config.meshes:
        grid = unit_square_grid(cells)
        for eps in config.eps_list:
            case = case_linear_variable(grid, eps)
            try:
                dec, ms = _timed(solve_linear_ap, case.problem, config.solver)
            except StageError as exc:
                _add_rows(report, case, ["failed"], status=str(exc))
                continue
            residuals = {f"residual_{k}": dec.residuals[k] for k in "hLl"}
            for row in _add_rows(report, case, (2, "inf"), dec.p, runtime_ms=ms, **residuals):
                errors[(eps, row["norm"], cells)] = row["error"]
            report.extras.setdefault("mean_gradient_l2", {})[f"{cells}:{eps}"] = dec.mean_gradient_l2

    for eps in config.eps_list:
        for norm in (2, "inf"):
            pairs = [
                (unit_square_grid(c).h, errors[(eps, norm, c)])
                for c in config.meshes
                if (eps, norm, c) in errors
            ]
            if len(pairs) >= 3:
                report.slopes[f"eps={eps}:l{norm}"] = fit_loglog_slope(*zip(*pairs))

    lo, hi = config.thresholds.get("slope_range", (1.8, 2.2))
    for key, slope in report.slopes.items():
        report.add_check(f"slope {key}", slope, f"[{lo}, {hi}]", lo <= slope <= hi)
    spread_tol = config.thresholds.get("eps_spread", 0.10)
    for cells in config.meshes:
        for norm in (2, "inf"):
            vals = [errors[(eps, norm, cells)] for eps in config.eps_list if (eps, norm, cells) in errors]
            if len(vals) >= 2:
                spread = (max(vals) - min(vals)) / max(vals)
                report.add_check(
                    f"eps spread M{cells} l{norm}", spread, f"< {spread_tol}", spread < spread_tol
                )
    kernel_tol = config.thresholds.get("mean_gradient", 1e-9)
    worst = max(report.extras.get("mean_gradient_l2", {0: 0.0}).values())
    report.add_check("mean-part gradient ratio", worst, f"<= {kernel_tol}", worst <= kernel_tol)
    return report


def angle_sweep(config: ExperimentConfig | None = None) -> ExperimentReport:
    """Accuracy as a function of the anisotropy angle on a fixed mesh."""
    if config is None:
        config = ExperimentConfig(meshes=[200], eps_list=[1e-3, 1e-8])
    report = ExperimentReport("angle")
    grid = unit_square_grid(config.meshes[0])
    per_norm: dict = {}
    for eps in config.eps_list:
        for alpha in config.alphas:
            case = case_angle(grid, eps, alpha)
            dec, ms = _timed(solve_linear_ap, case.problem, config.solver)
            residuals = {f"residual_{k}": dec.residuals[k] for k in "hLl"}
            for row in _add_rows(report, case, (1, 2, "inf"), dec.p, runtime_ms=ms, **residuals):
                per_norm.setdefault((eps, row["norm"]), []).append(row["error"])

    var_12 = config.thresholds.get("variation_l1_l2", 0.06)
    var_inf = config.thresholds.get("variation_linf", 0.10)
    for (eps, norm), errs in per_norm.items():
        variation = max(errs) / min(errs) - 1.0
        report.extras.setdefault("variation", {})[f"eps={eps}:l{norm}"] = variation
        limit = var_inf if norm == "inf" else var_12
        report.add_check(
            f"angle variation eps={eps} l{norm}", variation, f"<= {limit}", variation <= limit
        )
    return report


def gummel_study(config: ExperimentConfig | None = None) -> ExperimentReport:
    """Nonlinear-iteration behavior: convergence speed, plateau, error table."""
    if config is None:
        config = ExperimentConfig(meshes=[100, 200], eps_list=[1e-1, 1e-12, 0.0])
    report = ExperimentReport("gummel")
    stop = StopRule(tol_rel=config.tol_rel, n_max=config.n_max)
    max_iters = config.thresholds.get("max_iterations", 6)
    plateau_tol = config.thresholds.get("plateau_change", 0.01)
    for cells in config.meshes:
        grid = unit_square_grid(cells)
        for eps in config.eps_list:
            case = case_nonlinear(grid, eps, eta=config.eta, mu=config.mu)
            p0 = sample_node(case.initial_guess, grid)
            (p, state), ms = _timed(gummel_solve, case.problem, p0, stop, config.solver,
                                    exact=case.exact_field())
            report.histories[f"M{cells}-eps{eps:g}"] = state.history
            last = state.history[-1] if state.history else None
            residuals = {f"residual_{k}": getattr(last, f"residual_{k}", np.nan) for k in "hLl"}
            converged = state.status == "converged"
            _add_rows(report, case, (1, 2, "inf"), p if converged else None,
                      iterations=state.n_iterations, runtime_ms=ms, status=state.status,
                      **residuals)
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
    quadratically with the mesh step.
    """
    if config is None:
        config = ExperimentConfig(
            meshes=[100, 200], eps_list=sorted(np.logspace(-8, -1, 8)) + [0.0]
        )
    report = ExperimentReport("eps-limit")
    stop = StopRule(tol_rel=config.tol_rel, n_max=config.n_max)
    plateau_by_mesh = report.extras.setdefault("e0", {})
    for cells in config.meshes:
        grid = unit_square_grid(cells)
        base = case_ap_limit(grid, 0.0, eta=config.eta, mu=config.mu)
        limit = sample_node(base.limit_exact, grid).values[INTERIOR]
        limit_norm = float(np.linalg.norm(limit))
        cases, solutions, errors = {}, {}, {}
        for eps in sorted(config.eps_list):
            case = cases[eps] = case_ap_limit(grid, eps, eta=config.eta, mu=config.mu)
            p0 = sample_node(case.initial_guess, grid)
            (p, state), ms = _timed(gummel_solve, case.problem, p0, stop, config.solver)
            solutions[eps] = p.values[INTERIOR]
            errors[eps] = float(np.linalg.norm(solutions[eps] - limit)) / limit_norm
            _add_rows(report, case, ["E_eps"], error=errors[eps], iterations=state.n_iterations,
                      runtime_ms=ms, status=state.status)

        e0 = plateau_by_mesh[str(cells)] = errors[0.0]
        eps_pos = sorted(e for e in config.eps_list if e > 0)
        eapp = []
        for eps in eps_pos:
            diff = float(np.linalg.norm(solutions[eps] - solutions[0.0])) / limit_norm
            _add_rows(report, cases[eps], ["E_eps_app"], error=diff)
            eapp.append(diff)

        floor = 100.0 * max(e0 * 1e-9, 1e-13)
        fit_eps = [e for e, d in zip(eps_pos, eapp) if d > floor]
        fit_val = [d for d in eapp if d > floor]
        if len(fit_eps) >= 3:
            slope = fit_loglog_slope(fit_eps, fit_val)
            report.slopes[f"M{cells}:E_eps_app"] = slope
            lo, hi = config.thresholds.get("eps_slope_range", (0.8, 1.2))
            report.add_check(f"eps slope M{cells}", slope, f"[{lo}, {hi}]", lo <= slope <= hi)

        if eps_pos:
            drift = abs(errors[eps_pos[0]] - e0) / e0
            tol = config.thresholds.get("plateau_match", 0.05)
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
    if config is None:
        config = ExperimentConfig(meshes=[50], eps_list=[1.0, 1e-3, 1e-6])
    report = ExperimentReport("conditioning")
    grid = unit_square_grid(config.meshes[0])
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
        _add_rows(report, case, ["cond"], cond_estimate=cond, residual_h=solve.residual,
                  runtime_ms=ms, status=status)
        sweep.append({"eps": eps, "cond_estimate": cond, "solve_residual": solve.residual,
                      "status": status, "runtime_ms": ms})

    conds = [entry["cond_estimate"] for entry in sweep]
    increasing = all(a < b or not np.isfinite(b) for a, b in zip(conds, conds[1:]))
    report.add_check("condition growth as eps decreases", conds, "monotone", increasing)
    if np.isfinite(conds[0]) and len(conds) >= 2:
        ratio = conds[-1] / conds[0] if np.isfinite(conds[-1]) else np.inf
        min_ratio = config.thresholds.get("blowup_ratio", 1e3)
        report.add_check("blow-up ratio", ratio, f">= {min_ratio:g}", ratio >= min_ratio)
    return report
