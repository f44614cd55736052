"""Acceptance suite: every criterion at its stated tolerance, one line each.

The heavy study runs are shared through module-scoped fixtures; each test
prints an ``ACCEPTANCE <n> PASS/FAIL`` line before asserting so the outcome
of a full run reads as a checklist.
"""

import sys
import time

import numpy as np
import pytest

from apdiff.apcore import solve_linear_ap
from apdiff.grid import CellField, INTERIOR, NodeField, make_grid, sample_node
from apdiff.gummel import StopRule, error_plateau_check, gummel_solve
from apdiff.linsolve import SolverConfig, assemble
from apdiff.operators import compose_second_order, duality_defect
from apdiff.problems import case_linear_variable, case_nonlinear
from apdiff.experiments import (
    ExperimentConfig,
    angle_sweep,
    conditioning_study,
    convergence_study,
    epsilon_limit_study,
    rel_error,
    unit_square_grid,
)

from test_gummel import linear_law_problem
from test_operators import swirl_ctx
from _oracles import dense_second_order

# reference relative errors of the converged nonlinear runs (regression
# targets for the spline-bump case; columns are 100x100 and 200x200 meshes)
NONLINEAR_REFERENCE = {
    1e-1: {
        100: {1: 3.9452e-5, 2: 1.0446e-4, "inf": 6.0730e-4},
        200: {1: 9.8116e-6, 2: 2.6188e-5, "inf": 1.5793e-4},
    },
    1e-12: {
        100: {1: 3.9796e-5, 2: 1.0496e-4, "inf": 6.1098e-4},
        200: {1: 9.8969e-6, 2: 2.6311e-5, "inf": 1.5885e-4},
    },
    0.0: {
        100: {1: 3.9796e-5, 2: 1.0496e-4, "inf": 6.1098e-4},
        200: {1: 9.8969e-6, 2: 2.6311e-5, "inf": 1.5885e-4},
    },
}


@pytest.fixture
def announce(request):
    """One checklist line per criterion, visible through output capture."""
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def _announce(criterion: int, ok: bool, detail: str) -> None:
        line = f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'} - {detail}"
        if reporter is not None:
            reporter.write_line("\n" + line)
        else:
            sys.__stdout__.write(line + "\n")

    return _announce


@pytest.fixture(scope="module")
def convergence_report():
    cfg = ExperimentConfig(
        meshes=[25, 50, 100, 200],
        eps_list=[1e-1, 1e-9, 0.0],
        solver=SolverConfig(tol=1e-12),
        thresholds={"slope_range": (1.8, 2.2), "eps_spread": 0.10, "mean_gradient": 1e-9},
    )
    t0 = time.perf_counter()
    report = convergence_study(cfg)
    report.extras["elapsed_s"] = time.perf_counter() - t0
    return report


@pytest.fixture(scope="module")
def nonlinear_runs():
    runs = {}
    stop = StopRule(tol_rel=1e-12, n_max=30)
    for cells in (100, 200):
        grid = unit_square_grid(cells)
        for eps in (1e-1, 1e-12, 0.0):
            case = case_nonlinear(grid, eps, eta=0.1, mu=60.0)
            exact = case.exact_field()
            p0 = sample_node(case.initial_guess, grid)
            p, state = gummel_solve(case.problem, p0, stop, exact=exact)
            errors = {norm: rel_error(exact, p, norm) for norm in (1, 2, "inf")}
            runs[(cells, eps)] = {"state": state, "errors": errors}
    return runs


def test_criterion_1_second_order_convergence(convergence_report, announce):
    slopes = convergence_report.slopes
    slope_ok = all(1.8 <= s <= 2.2 for s in slopes.values())
    spread_checks = [c for c in convergence_report.checks if c["name"].startswith("eps spread")]
    spread_ok = all(c["passed"] for c in spread_checks)
    worst_spread = max(c["value"] for c in spread_checks)
    detail = (
        f"slopes {min(slopes.values()):.3f}..{max(slopes.values()):.3f} in [1.8, 2.2]; "
        f"eps spread max {worst_spread:.2%} < 10%; "
        f"elapsed {convergence_report.extras['elapsed_s']:.0f}s"
    )
    announce(1, slope_ok and spread_ok, detail)
    assert slope_ok and spread_ok


def test_criterion_2_mean_part_kernel(convergence_report, announce):
    ratios = convergence_report.extras["mean_gradient_l2"]
    worst = max(ratios.values())
    ok = worst <= 1e-9
    announce(2, ok, f"max ||dh pi|| / ||p|| = {worst:.2e} <= 1e-9 over {len(ratios)} runs")
    assert ok


def test_criterion_3_error_table_reproduction(nonlinear_runs, announce):
    worst = 0.0
    for eps, per_mesh in NONLINEAR_REFERENCE.items():
        for cells, per_norm in per_mesh.items():
            run = nonlinear_runs[(cells, eps)]
            assert run["state"].status == "converged"
            for norm, reference in per_norm.items():
                got = run["errors"][norm]
                worst = max(worst, abs(got - reference) / reference)
    ok = worst <= 0.10
    announce(3, ok, f"18 table entries within {worst:.2%} of reference (limit 10%)")
    assert ok


def test_criterion_4_iteration_speed_and_plateau(nonlinear_runs, announce):
    ok = True
    details = []
    for eps in (1e-1, 0.0):
        state = nonlinear_runs[(100, eps)]["state"]
        fast = state.status == "converged" and state.n_iterations <= 6
        fast = fast and state.corrections[-1] <= 1e-12
        plateau = error_plateau_check(state.history, change_tol=0.01)
        ok = ok and fast and plateau.ok
        details.append(f"eps={eps:g}: {state.n_iterations} iters, plateau drift {plateau.max_rel_change:.2%}")
    announce(4, ok, "; ".join(details))
    assert ok


def test_criterion_5_angle_robustness(announce):
    cfg = ExperimentConfig(
        meshes=[200],
        eps_list=[1e-3, 1e-8],
        alphas=list(np.linspace(0.0, np.pi / 2, 19)),
        thresholds={"variation_l1_l2": 0.06, "variation_linf": 0.10},
    )
    report = angle_sweep(cfg)
    variations = report.extras["variation"]
    worst_12 = max(v for k, v in variations.items() if not k.endswith("linf"))
    worst_inf = max(v for k, v in variations.items() if k.endswith("linf"))
    ok = report.passed
    announce(5, ok, f"l1/l2 variation <= {worst_12:.2%} (limit 6%), "
                    f"linf <= {worst_inf:.2%} (limit 10%) over 19 angles x 2 eps")
    assert ok


def test_criterion_6_vanishing_eps_limit(announce):
    cfg = ExperimentConfig(
        meshes=[100, 200],
        eps_list=sorted(np.logspace(-8, -1, 8)) + [0.0],
        thresholds={"eps_slope_range": (0.8, 1.2), "plateau_match": 0.05},
    )
    report = epsilon_limit_study(cfg)
    slope_txt = ", ".join(f"{k}={v:.3f}" for k, v in report.slopes.items())
    scaling = [c for c in report.checks if "mesh scaling" in c["name"]][0]
    ok = report.passed
    announce(6, ok, f"slopes {slope_txt} in [0.8, 1.2]; plateau=e0 within 5%; "
                    f"plateau ratio {scaling['value']:.2f} in {scaling['limit']}")
    assert ok


def test_criterion_7_structural_properties(announce):
    rng = np.random.default_rng(123)
    checks = []

    # discrete summation-by-parts on both stated grids
    for nx, ny in ((8, 8), (33, 17)):
        g = make_grid(((1.0, 2.0), (1.0, 2.0)), nx, ny)
        ctx = swirl_ctx(g)
        theta = NodeField(g, rng.standard_normal(g.node_shape))
        chi = CellField.zeros(g)
        chi.values[INTERIOR] = rng.standard_normal((nx, ny))
        defect = abs(duality_defect(theta, chi, ctx))
        bound = 1e-12 * np.linalg.norm(theta.values) * np.linalg.norm(chi.values)
        checks.append(("duality", defect <= bound))

    # probe-assembled matrix reproduces the operator action
    g = make_grid(((1.0, 2.0), (1.0, 2.0)), 12, 12)
    problem = case_linear_variable(g, 0.3).problem
    ctx = problem.context()

    def op(v):
        chi = CellField.zeros(g)
        chi.values[INTERIOR] = v
        return compose_second_order(
            chi, problem.reaction_cell, problem.reaction_node, ctx
        ).values[INTERIOR]

    mat = assemble(op, (g.nx, g.ny))
    match = True
    for _ in range(5):
        v = rng.standard_normal((g.nx, g.ny))
        diff = np.linalg.norm(mat @ v.ravel() - op(v).ravel())
        match = match and diff <= 1e-13 * max(np.linalg.norm(op(v)), 1.0)
    checks.append(("probe-assembly", match))

    # one-step convergence for a linear reaction law
    g20 = unit_square_grid(20)
    lin = linear_law_problem(g20, eps=0.1, coeff=2.0)
    p0 = sample_node(lambda x, y: 1.0 + 0.2 * np.sin(2 * x + y), g20)
    _, state = gummel_solve(lin, p0, StopRule(tol_rel=1e-12, n_max=5))
    checks.append(("linear one-step", state.status == "converged" and state.n_iterations <= 2))

    # dense-oracle equivalence of the three elliptic stages
    g8 = make_grid(((1.0, 2.0), (1.0, 2.0)), 7, 7)
    case = case_linear_variable(g8, 0.37)
    dec = solve_linear_ap(case.problem, fill=False)
    b = case.problem.direction.values
    a_mean = dense_second_order(
        g8, b, case.problem.reaction_cell.values, case.problem.reaction_node.values
    )
    a_fluct = dense_second_order(
        g8, b, case.problem.diffusivity_cell.values, case.problem.reaction_node.values
    ) + case.eps * np.eye(g8.n_interior_cells)
    from apdiff.operators import apply_dh

    ratio = NodeField(g8, case.problem.source_node.values / case.problem.reaction_node.values)
    rhs_mean = apply_dh(ratio, case.problem.context()).values[INTERIOR].ravel()
    h_dense = np.linalg.solve(a_mean, rhs_mean)
    rhs_L = -case.eps * (rhs_mean - case.problem.grad_source_cell.values[INTERIOR].ravel())
    L_dense = np.linalg.solve(a_fluct, rhs_L)
    l_dense = np.linalg.solve(a_mean, L_dense - case.problem.grad_source_cell.values[INTERIOR].ravel())
    oracle_ok = (
        np.allclose(dec.h.values[INTERIOR].ravel(), h_dense, atol=1e-12)
        and np.allclose(dec.L.values[INTERIOR].ravel(), L_dense, atol=1e-12)
        and np.allclose(dec.l.values[INTERIOR].ravel(), l_dense, atol=1e-12)
    )
    checks.append(("dense-oracle solves", oracle_ok))

    ok = all(passed for _, passed in checks)
    announce(7, ok, "; ".join(f"{name}: {'ok' if passed else 'FAILED'}" for name, passed in checks))
    assert ok


def test_criterion_8_conditioning_blowup(announce):
    cfg = ExperimentConfig(
        meshes=[50],
        eps_list=[1.0, 1e-3, 1e-6],
        thresholds={"blowup_ratio": 1e3},
    )
    report = conditioning_study(cfg)
    conds = [e["cond_estimate"] for e in report.extras["sweep"]]

    errors = []
    grid = unit_square_grid(50)
    for eps in (1.0, 1e-3, 1e-6):
        case = case_linear_variable(grid, eps)
        dec = solve_linear_ap(case.problem)
        errors.append(rel_error(case.exact_field(), dec.p, 2))
    spread = (max(errors) - min(errors)) / max(errors)

    ok = report.passed and spread < 0.10
    announce(8, ok, f"cond {conds[0]:.2e} -> {conds[-1]:.2e} "
                    f"(ratio {conds[-1] / conds[0]:.1e} >= 1e3); "
                    f"decomposition-solver error spread {spread:.2%} < 10%")
    assert ok
