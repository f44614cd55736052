import dataclasses
import sys
import weakref

import numpy as np
import pytest

from apdiff import apcore, gummel, linsolve
from apdiff.apcore import HeldFactor, StageError, fill_ghost, solve_linear_ap, solve_p
from apdiff.grid import (INTERIOR, CellField, NodeField, make_grid, prolong_node, restrict_node,
                         sample_cell, sample_cell_vec, sample_node)
from apdiff.gummel import (
    IterationRecord,
    NonlinearProblem,
    StopRule,
    error_plateau_check,
    gummel_solve,
    linearize,
)
from apdiff.problems import case_nonlinear
from apdiff.experiments import unit_square_grid

UNIT = ((1.0, 2.0), (1.0, 2.0))


def linear_law_problem(grid, eps=0.1, coeff=2.0):
    bump = lambda x, y: 1.0 + np.sin(x) ** 2 * np.sin(y) ** 2
    return NonlinearProblem(
        grid=grid,
        eps=eps,
        diffusivity_cell=sample_cell(bump, grid),
        direction=sample_cell_vec(
            lambda x, y: (y / np.hypot(x, y), -x / np.hypot(x, y)), grid
        ),
        source_node=sample_node(lambda x, y: coeff / (1.0 + x**2 + y**2), grid),
        grad_source_cell=sample_cell(lambda x, y: np.zeros_like(x), grid),
        reaction_law=lambda p: coeff * p,
        reaction_slope=lambda p: coeff * np.ones_like(p),
    )


def count_lu_solves(monkeypatch):
    """The list that every later ``lu_solve`` call of a band or SuperLU factor appends to."""
    calls = []
    for factor_class in (apcore.BandFactor, apcore.DirectFactor):
        def counted(self, r, lu_solve=factor_class.lu_solve):
            calls.append(1)
            return lu_solve(self, r)

        monkeypatch.setattr(factor_class, "lu_solve", counted)
    return calls


def each_factor_path(monkeypatch):
    """Send every grid to the band factor, then to SuperLU: yields the factor class in use.

    ``apcore.BAND_MAX_WIDTH`` is patched while the caller's loop body runs.
    """
    for width, factor_class in ((sys.maxsize, apcore.BandFactor), (0, apcore.DirectFactor)):
        with monkeypatch.context() as m:
            m.setattr(apcore, "BAND_MAX_WIDTH", width)
            yield factor_class


def test_linearize_linear_law():
    g = make_grid(UNIT, 8, 8)
    problem = linear_law_problem(g, coeff=2.0)
    rng = np.random.default_rng(0)
    p = NodeField(g, rng.standard_normal(g.node_shape))
    lp = linearize(problem, p)
    np.testing.assert_allclose(lp.reaction_node.values, 2.0)
    np.testing.assert_allclose(lp.reaction_cell.values, 2.0)
    np.testing.assert_allclose(
        lp.source_node.values, problem.source_node.values - 2.0 * p.values
    )


def test_linearize_power_law_at_one():
    g = make_grid(UNIT, 6, 6)
    case = case_nonlinear(g, 0.1)
    p = NodeField(g, np.ones(g.node_shape))
    lp = linearize(case.problem, p)
    np.testing.assert_allclose(lp.reaction_node.values, 6.0)
    np.testing.assert_allclose(lp.reaction_cell.values, 6.0)
    np.testing.assert_allclose(
        lp.source_node.values, case.problem.source_node.values - 1.0
    )


def test_linearize_cell_average_rule():
    g = make_grid(UNIT, 6, 6)
    case = case_nonlinear(g, 0.1, eta=0.1, mu=60.0)
    p0 = sample_node(case.initial_guess, g)
    lp = linearize(case.problem, p0)
    slope = case.problem.reaction_slope
    t = p0.values
    for ci, cj in ((0, 0), (3, 4), (g.nx + 1, g.ny + 1)):
        avg = 0.25 * (t[ci + 1, cj + 1] + t[ci + 1, cj] + t[ci, cj + 1] + t[ci, cj])
        assert lp.reaction_cell.values[ci, cj] == pytest.approx(float(slope(avg)), rel=1e-14)


def test_linearize_gradient_offset():
    g = make_grid(UNIT, 6, 6)
    problem = linear_law_problem(g)
    p = sample_node(lambda x, y: x * y, g)
    lp = linearize(problem, p)
    from apdiff.operators import apply_dh

    expected = problem.grad_source_cell.values - apply_dh(p, problem.direction).values
    np.testing.assert_allclose(lp.grad_source_cell.values, expected)


def test_slope_floor_warns():
    g = make_grid(UNIT, 6, 6)
    case = case_nonlinear(g, 0.1)
    p = NodeField(g, np.full(g.node_shape, -1.0))  # slope 6 p^5 < 0 everywhere
    with pytest.warns(RuntimeWarning, match="clamped"):
        lp = linearize(case.problem, p)
    assert np.all(lp.reaction_node.values >= 1e-12)


def test_linear_law_converges_in_one_iteration():
    g = unit_square_grid(20)
    problem = linear_law_problem(g, eps=0.1, coeff=2.0)
    p0 = sample_node(lambda x, y: 1.0 + 0.3 * np.sin(3 * x) * y, g)
    p, state = gummel_solve(problem, p0, StopRule(tol_rel=1e-12, n_max=10))
    assert state.status == "converged"
    assert state.n_iterations <= 2
    # second correction sits at the solver-residual level
    if state.n_iterations == 2:
        assert state.corrections[1] <= 1e3 * 1e-12


def test_iteration_identity():
    g = unit_square_grid(12)
    problem = linear_law_problem(g)
    p0 = sample_node(lambda x, y: np.cos(x + y), g)
    p1, state = gummel_solve(problem, p0, StopRule(tol_rel=1e-30, n_max=1))
    delta, *_ = solve_p(linearize(problem, p0), HeldFactor())
    np.testing.assert_array_equal(
        p1.values[INTERIOR], p0.values[INTERIOR] + delta.values[INTERIOR]
    )


def test_nonlinear_case_converges_fast():
    g = unit_square_grid(50)
    case = case_nonlinear(g, 1e-1, eta=0.1, mu=60.0)
    exact = case.exact_field()
    p0 = sample_node(case.initial_guess, g)
    p, state = gummel_solve(case.problem, p0, StopRule(), exact=exact)
    assert state.status == "converged"
    assert state.n_iterations <= 6
    assert state.corrections[-1] <= 1e-12


def test_iteration_count_independent_of_eps():
    counts = []
    g = unit_square_grid(30)
    for eps in (1e-1, 1e-12, 0.0):
        case = case_nonlinear(g, eps)
        p0 = sample_node(case.initial_guess, g)
        _, state = gummel_solve(case.problem, p0, StopRule())
        assert state.status == "converged"
        counts.append(state.n_iterations)
    assert max(counts) - min(counts) <= 1


def test_monotone_correction_decay():
    g = unit_square_grid(30)
    case = case_nonlinear(g, 1e-1)
    p0 = sample_node(case.initial_guess, g)
    _, state = gummel_solve(case.problem, p0, StopRule())
    corrs = state.corrections
    floor = 1e-14
    for a, b in zip(corrs[1:], corrs[2:]):
        if a <= floor:
            break
        assert b < a


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_reported_not_raised():
    g = unit_square_grid(25)
    case = case_nonlinear(g, 1e-1, eta=1000.0, mu=60.0)
    p0 = sample_node(case.initial_guess, g)
    p, state = gummel_solve(case.problem, p0, StopRule(n_max=20))
    assert state.status == "diverged"
    assert state.detail


def test_problem_rejects_non_finite_data():
    g = make_grid(UNIT, 5, 5)
    problem = linear_law_problem(g)
    with pytest.raises(ValueError, match="diffusivity_cell"):
        dataclasses.replace(problem, diffusivity_cell=CellField(g, np.full(g.cell_shape, np.inf)))
    nan_source = problem.source_node.values.copy()
    nan_source[2, 2] = np.nan
    with pytest.raises(ValueError, match="source_node"):
        dataclasses.replace(problem, source_node=NodeField(g, nan_source))


def test_slope_overflow_reported_as_divergence():
    g = unit_square_grid(12)
    problem = dataclasses.replace(linear_law_problem(g), reaction_law=lambda p: np.exp(1e3 * p),
                                  reaction_slope=lambda p: 1e3 * np.exp(1e3 * p))
    p0 = sample_node(lambda x, y: 1.0 + 0.0 * x, g)
    p, state = gummel_solve(problem, p0, StopRule())
    assert state.status == "diverged"
    assert "non-finite" in state.detail
    np.testing.assert_array_equal(p.values, p0.values)


def test_stage_error_reported_as_divergence(monkeypatch):
    def broken(*args, **kwargs):
        raise StageError("mean-potential solve failed")

    monkeypatch.setattr(gummel, "solve_p", broken)
    g = unit_square_grid(10)
    p0 = sample_node(lambda x, y: np.cos(x + y), g)
    _, state = gummel_solve(linear_law_problem(g), p0, StopRule())
    assert state.status == "diverged"
    assert "mean-potential" in state.detail


def test_programming_error_propagates(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bad call")

    monkeypatch.setattr(gummel, "solve_p", broken)
    g = unit_square_grid(10)
    p0 = sample_node(lambda x, y: np.cos(x + y), g)
    with pytest.raises(TypeError, match="bad call"):
        gummel_solve(linear_law_problem(g), p0, StopRule())

    # numpy raises a plain ValueError on a shape mismatch: a bug, not a divergence
    def mismatched(*args, **kwargs):
        raise ValueError("operands could not be broadcast together with shapes (9,9) (8,8)")

    monkeypatch.setattr(gummel, "solve_p", mismatched)
    with pytest.raises(ValueError, match="could not be broadcast"):
        gummel_solve(linear_law_problem(g), p0, StopRule())


def corrections_patched(monkeypatch, correction):
    """Run ``solve_p`` as usual but return ``correction(lp)`` as its p; the holders it was given.

    Each holder is checked to hold a factor once the real solve returns.
    """
    holders = []

    def patched(lp, held, config):
        _, residual, steps, factored = solve_p(lp, held, config)
        assert held.factor is not None
        holders.append(held)
        return correction(lp), residual, steps, factored

    monkeypatch.setattr(gummel, "solve_p", patched)
    return holders


def test_non_finite_correction_is_reported_as_divergence(monkeypatch):
    case = case_nonlinear(unit_square_grid(16), 0.1)
    p0 = sample_node(case.initial_guess, case.grid)
    holders = corrections_patched(
        monkeypatch, lambda lp: NodeField(lp.grid, np.full(lp.grid.node_shape, np.nan)))
    p, state = gummel_solve(case.problem, p0, StopRule())
    assert (state.status, state.detail) == ("diverged", "non-finite iterate at iteration 0")
    assert state.n_iterations == 1 and np.isnan(state.history[0].correction_rel)
    assert p is not p0
    np.testing.assert_array_equal(p.values, p0.values)
    assert len(holders) == 1 and holders[0].factor is None


def test_growing_correction_is_reported_as_divergence(monkeypatch):
    # each correction is a multiple of p0's interior, so iterate k is
    # (1 + scales[0] + ... + scales[k]) p0 and its correction_rel is scales[k] over that sum
    case = case_nonlinear(unit_square_grid(16), 0.1)
    p0 = sample_node(case.initial_guess, case.grid)
    scales = [1e-6, 1e-5, 1e-4, 1e-2]
    queue = iter(scales)
    holders = corrections_patched(
        monkeypatch, lambda lp: NodeField.on_interior(lp.grid, next(queue) * p0.values[INTERIOR]))
    _, state = gummel_solve(case.problem, p0, StopRule())
    assert state.status == "diverged"
    assert state.detail == "correction grew more than 10x over three iterations at 3"
    assert [r.n for r in state.history] == [0, 1, 2, 3]
    totals = 1.0 + np.cumsum(scales)
    np.testing.assert_allclose(state.corrections, np.array(scales) / totals, rtol=1e-12)
    assert len(holders) == 4 and holders[-1].factor is None


def test_history_records_fields():
    g = unit_square_grid(20)
    case = case_nonlinear(g, 1e-1)
    exact = case.exact_field()
    p0 = sample_node(case.initial_guess, g)
    _, state = gummel_solve(case.problem, p0, StopRule(), exact=exact)
    rec = state.history[0]
    assert rec.n == 0
    assert np.isfinite(rec.error_rel_l2)
    assert rec.residual <= 1e-12
    assert all(r.seconds > 0.0 for r in state.history)


def per_iteration_fill_reference(problem, p0, stop, exact):
    """The Gummel loop with a ghost fill after every update, for converging runs.

    It holds the mean factor across iterations as :func:`gummel_solve` does.
    """
    p = p0.copy()
    history = []
    held = HeldFactor()
    exact_norm = np.linalg.norm(exact.values[INTERIOR])
    for n in range(stop.n_max):
        lp = linearize(problem, p)
        delta, residual, steps, factored = solve_p(lp, held=held)
        p_new = p.copy()
        p_new.values[INTERIOR] = p.values[INTERIOR] + delta.values[INTERIOR]
        corr = float(np.linalg.norm(delta.values[INTERIOR])) / float(
            np.linalg.norm(p_new.values[INTERIOR]))
        p, _ = fill_ghost(p_new, problem.direction, problem.grad_source_cell)
        err = float(np.linalg.norm(p.values[INTERIOR] - exact.values[INTERIOR])) / exact_norm
        # seconds do not take part in the comparison of records
        history.append(IterationRecord(n, corr, err, residual, lp._slope_floored, steps,
                                       factored, seconds=np.nan))
        if corr <= stop.tol_rel:
            return p, history
    raise AssertionError("reference loop did not converge")


@pytest.mark.parametrize("eps", [0.1, 0.0])
def test_ghost_fill_once_matches_per_iteration_fill(eps):
    g = unit_square_grid(64)
    case = case_nonlinear(g, eps)
    exact = case.exact_field()
    p0 = sample_node(case.initial_guess, g)
    stop = StopRule(tol_rel=1e-12)
    p, state = gummel_solve(case.problem, p0, stop, exact=exact)
    p_ref, history_ref = per_iteration_fill_reference(case.problem, p0, stop, exact)
    assert state.status == "converged"
    assert state.history == history_ref
    np.testing.assert_array_equal(p.values, p_ref.values)


def test_error_plateau_check():
    g = unit_square_grid(30)
    case = case_nonlinear(g, 1e-1)
    exact = case.exact_field()
    p0 = sample_node(case.initial_guess, g)
    _, state = gummel_solve(case.problem, p0, StopRule(), exact=exact)
    report = error_plateau_check(state.history)
    assert report.ok
    assert report.max_rel_change <= 0.01


def test_stop_rule_validation():
    with pytest.raises(ValueError):
        StopRule(tol_rel=0.0)
    with pytest.raises(ValueError):
        StopRule(n_max=0)
    # nan would never stop the loop, inf would stop it at once, and a
    # fractional limit would fail later inside range(); True passes
    # isinstance(int) and np.isfinite, and as n_max would stop every run
    # after one iteration; np.isfinite raises a TypeError on a text or None, and >
    # on a list or a complex
    for bad in (np.nan, np.inf, True, "x", None, [1e-12], 1e-12 + 0j):
        with pytest.raises(ValueError, match="tol_rel must be finite"):
            StopRule(tol_rel=bad)
    for bad in (2.5, True):
        with pytest.raises(ValueError, match="n_max"):
            StopRule(n_max=bad)


def new_factor_every_iteration(lp, held, config=None):
    """``solve_p`` with no factor held across iterations."""
    return apcore.solve_p(lp, HeldFactor(), config)


@pytest.mark.parametrize("eps", [0.1, 1e-6, 0.0])
def test_held_factor_matches_new_factor_every_iteration(eps, monkeypatch):
    g = unit_square_grid(64)
    case = case_nonlinear(g, eps)
    exact = case.exact_field()
    p0 = sample_node(case.initial_guess, g)
    p, state = gummel_solve(case.problem, p0, StopRule(tol_rel=1e-12), exact=exact)
    with monkeypatch.context() as m:
        m.setattr(gummel, "solve_p", new_factor_every_iteration)
        p_ref, state_ref = gummel_solve(case.problem, p0, StopRule(tol_rel=1e-12), exact=exact)
    assert state.status == state_ref.status == "converged"
    assert state.n_iterations == state_ref.n_iterations
    assert not all(r.factored for r in state.history)
    assert all(r.factored for r in state_ref.history)
    assert np.linalg.norm(p.values - p_ref.values) <= 1e-10 * np.linalg.norm(p_ref.values)
    for rec in state.history:
        assert rec.residual <= 1e-12


def three_stage_reference(problem, p0, stop, exact):
    """The Gummel loop on ``solve_linear_ap``'s p, three stages on a new factor every iteration.

    Returns the ghost-filled final iterate and the error of every iterate.
    """
    p = p0.copy()
    errors = []
    exact_norm = np.linalg.norm(exact.values[INTERIOR])
    for _ in range(stop.n_max):
        delta = solve_linear_ap(linearize(problem, p)).p.values[INTERIOR]
        p.values[INTERIOR] += delta
        errors.append(float(np.linalg.norm(p.values[INTERIOR] - exact.values[INTERIOR]))
                      / exact_norm)
        if np.linalg.norm(delta) <= stop.tol_rel * np.linalg.norm(p.values[INTERIOR]):
            filled, _ = fill_ghost(p, problem.direction, problem.grad_source_cell)
            return filled, errors
    raise AssertionError("reference loop did not converge")


@pytest.mark.parametrize("eps", [0.1, 1e-3, 0.0])
def test_one_stage_run_matches_the_three_stage_loop(eps):
    g = unit_square_grid(64)
    case = case_nonlinear(g, eps)
    exact = case.exact_field()
    p0 = sample_node(case.initial_guess, g)
    stop = StopRule(tol_rel=1e-12)
    p, state = gummel_solve(case.problem, p0, stop, exact=exact)
    p_ref, errors_ref = three_stage_reference(case.problem, p0, stop, exact)
    assert state.status == "converged"
    assert state.n_iterations == len(errors_ref) == 5
    assert np.linalg.norm(p.values - p_ref.values) <= 1e-12 * np.linalg.norm(p_ref.values)
    for rec, err_ref in zip(state.history, errors_ref):
        assert abs(rec.error_rel_l2 - err_ref) <= 1e-12 * err_ref


def test_run_factors_while_the_slope_moves(monkeypatch):
    # the cell slope changes by 1.7e-1, 1.3e-2, then 1e-4 and less between
    # iterations: the factor of iteration 0 misses on iteration 1, which
    # factors anew, and the factor of 1 serves iterations 2-4
    g = unit_square_grid(64)
    case = case_nonlinear(g, 0.0)
    p0 = sample_node(case.initial_guess, g)
    for _ in each_factor_path(monkeypatch):
        _, state = gummel_solve(case.problem, p0, StopRule(tol_rel=1e-12))
        assert state.status == "converged"
        assert [r.factored for r in state.history] == [True, True, False, False, False]
        # at eps 0 the one cell system is A s = dh(f/G) - b.S: one CG step on
        # a new factor, and on the held one four before iteration 1 gives up
        # and eight after
        assert [r.cg_iterations for r in state.history] == [1, 5, 8, 8, 8]


def test_large_eps_run_holds_the_system_factor(monkeypatch):
    # at eps 10 the factor of iteration 0 misses on iteration 1 after 20 CG
    # steps, which factors anew, and the factor of 1 serves iterations 2-4;
    # each new factor is of the system itself, so its stage takes one step
    g = unit_square_grid(64)
    case = case_nonlinear(g, 10.0)
    p0 = sample_node(case.initial_guess, g)
    for _ in each_factor_path(monkeypatch):
        _, state = gummel_solve(case.problem, p0, StopRule(tol_rel=1e-12))
        assert state.status == "converged" and state.n_iterations == 5
        assert [r.factored for r in state.history] == [True, True, False, False, False]
        assert [r.cg_iterations for r in state.history] == [1, 21, 8, 8, 8]


# the work of a run does not grow with eps: the system itself is factored
@pytest.mark.parametrize("eps, lu_solves",
                         [(1.0, 29), (0.3, 29), (0.1, 30), (1e-3, 30), (0.0, 30)])
def test_held_factor_run_keeps_its_lu_solve_count(eps, lu_solves, monkeypatch):
    calls = count_lu_solves(monkeypatch)
    g = unit_square_grid(64)
    case = case_nonlinear(g, eps)
    p0 = sample_node(case.initial_guess, g)
    for factor_class in each_factor_path(monkeypatch):
        calls.clear()
        _, state = gummel_solve(case.problem, p0, StopRule(tol_rel=1e-12))
        assert state.status == "converged"
        assert not all(r.factored for r in state.history)
        assert len(calls) == sum(r.cg_iterations for r in state.history) == lu_solves


def test_at_most_one_mean_factor_alive(monkeypatch):
    # from the guess, and from the coarse grid of 16 squares per side, whose
    # loop drops its factor before its own ghost fill
    g = unit_square_grid(32)
    case = case_nonlinear(g, 0.1)
    p0 = sample_node(case.initial_guess, g)
    for factor_class in each_factor_path(monkeypatch):
        for min_squares, fills in ((gummel.COARSE_MIN_SQUARES, [0]), (16, [0, 0])):
            alive = [0]
            peak = [0]
            at_fill = []

            def released():
                alive[0] -= 1

            class LiveFactor(factor_class):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    alive[0] += 1
                    peak[0] = max(peak[0], alive[0])
                    weakref.finalize(self, released)

            def counted_fill(*args, **kwargs):
                at_fill.append(alive[0])
                return fill_ghost(*args, **kwargs)

            with monkeypatch.context() as m:
                m.setattr(apcore, factor_class.__name__, LiveFactor)
                m.setattr(gummel, "fill_ghost", counted_fill)
                m.setattr(gummel, "COARSE_MIN_SQUARES", min_squares)
                _, state = gummel_solve(case.problem, p0, StopRule(tol_rel=1e-12))
            assert state.status == "converged"
            runs = (state.coarse.history if state.coarse else []) + state.history
            assert sum(r.factored for r in runs) >= 2
            assert peak[0] == 1
            assert at_fill == fills  # dropped before each ghost fill
            assert alive[0] == 0


# The coarse start -------------------------------------------------------------
#
# Runs at 64 squares per side start from their coarse grid once
# ``COARSE_MIN_SQUARES`` is lowered to 16: cheap runs on the same path as
# large grids take by default.


def guess_started(problem, p0, stop, **kwargs):
    """:func:`gummel_solve` with no coarse start, the loop alone from ``p0``."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(gummel, "COARSE_MIN_SQUARES", sys.maxsize)
        return gummel_solve(problem, p0, stop, **kwargs)


def coarse_started(problem, p0, stop):
    """The start of :func:`gummel_solve`'s fine loop: the coarse run's result, prolonged."""
    coarse = gummel._coarse_problem(problem)
    p, state = guess_started(coarse, restrict_node(p0, coarse.grid), stop)
    assert state.status == "converged"
    return prolong_node(p, problem.grid)


def test_coarse_start_needs_two_even_sides_of_its_size(monkeypatch):
    stop = StopRule(tol_rel=1e-12)
    for cells, min_squares, runs in ((64, gummel.COARSE_MIN_SQUARES, False), (63, 16, False),
                                     (64, 16, True)):
        monkeypatch.setattr(gummel, "COARSE_MIN_SQUARES", min_squares)
        g = unit_square_grid(cells)
        case = case_nonlinear(g, 0.1)
        _, state = gummel_solve(case.problem, sample_node(case.initial_guess, g), stop)
        assert state.status == "converged"
        assert (state.coarse is not None) == runs
        if not runs:
            assert [r.factored for r in state.history] == [True, True, False, False, False]


@pytest.mark.parametrize("eps, cg_iterations", [(0.1, [1, 15, 15, 15]), (1e-3, [1, 15, 15, 15]),
                                                (0.0, [1, 15, 15, 15]), (10.0, [1, 12, 12, 12])])
def test_coarse_start_factors_once_and_keeps_the_solution(eps, cg_iterations, monkeypatch):
    # the prolonged coarse solution is 1.5e-3 off at 64 squares per side, so the
    # fine loop takes four iterations on the factor of its first one, the
    # factor of its system, on which the first stage takes one CG step
    g = unit_square_grid(64)
    case = case_nonlinear(g, eps)
    p0 = sample_node(case.initial_guess, g)
    stop = StopRule(tol_rel=1e-12)
    p_ref, state_ref = guess_started(case.problem, p0, stop)
    monkeypatch.setattr(gummel, "COARSE_MIN_SQUARES", 16)
    for _ in each_factor_path(monkeypatch):
        p, state = gummel_solve(case.problem, p0, stop)
        assert state.status == state.coarse.status == state_ref.status == "converged"
        assert state.coarse.n_iterations == state_ref.n_iterations == 5
        assert [r.factored for r in state.history] == [True, False, False, False]
        assert [r.cg_iterations for r in state.history] == cg_iterations
        assert np.linalg.norm(p.values - p_ref.values) <= 1e-12 * np.linalg.norm(p_ref.values)


def test_coarse_started_runs_keep_both_stencil_structures():
    # at 160 squares per side the run assembles on its coarse grid and its own;
    # both index structures are kept, so the second run builds neither
    g = unit_square_grid(160)
    case = case_nonlinear(g, 0.1)
    p0 = sample_node(case.initial_guess, g)
    linsolve._stencil_structure.cache_clear()
    for _ in range(2):
        _, state = gummel_solve(case.problem, p0, StopRule(tol_rel=1e-12))
        assert state.status == state.coarse.status == "converged"
    assert linsolve._stencil_structure.cache_info().misses == 2


def test_coarse_run_that_fails_leaves_the_start_at_the_guess(monkeypatch):
    def fails_on_the_coarse_grid(lp, *args):
        if lp.grid.nx < 63:
            raise StageError("sum-potential solve failed")
        return solve_p(lp, *args)

    g = unit_square_grid(64)
    case = case_nonlinear(g, 0.1)
    p0 = sample_node(case.initial_guess, g)
    stop = StopRule(tol_rel=1e-12)
    p_ref, state_ref = guess_started(case.problem, p0, stop)
    monkeypatch.setattr(gummel, "COARSE_MIN_SQUARES", 16)
    monkeypatch.setattr(gummel, "solve_p", fails_on_the_coarse_grid)
    p, state = gummel_solve(case.problem, p0, stop)
    assert state.coarse.status == "diverged" and "sum-potential" in state.coarse.detail
    assert state.status == "converged"
    assert state.history == state_ref.history
    np.testing.assert_array_equal(p.values, p_ref.values)


@pytest.mark.parametrize("eps", [0.1, 1e-3, 0.0])
def test_coarse_started_run_matches_the_reference_loops(eps, monkeypatch):
    # the loops of the tests above, each started from the prolonged coarse run
    monkeypatch.setattr(gummel, "COARSE_MIN_SQUARES", 16)
    g = unit_square_grid(64)
    case = case_nonlinear(g, eps)
    exact = case.exact_field()
    p0 = sample_node(case.initial_guess, g)
    stop = StopRule(tol_rel=1e-12)
    p, state = gummel_solve(case.problem, p0, stop, exact=exact)
    start = coarse_started(case.problem, p0, stop)
    p_fill, history_fill = per_iteration_fill_reference(case.problem, start, stop, exact)
    p_three, errors_three = three_stage_reference(case.problem, start, stop, exact)
    assert state.status == "converged"
    assert state.history == history_fill
    np.testing.assert_array_equal(p.values, p_fill.values)
    assert state.n_iterations == len(errors_three) == 4
    assert np.linalg.norm(p.values - p_three.values) <= 1e-12 * np.linalg.norm(p_three.values)
    for rec, err_ref in zip(state.history, errors_three):
        assert abs(rec.error_rel_l2 - err_ref) <= 1e-12 * err_ref


@pytest.mark.parametrize("eps, lu_solves", [(0.1, 78), (0.0, 80)])
def test_coarse_started_run_keeps_its_lu_solve_count(eps, lu_solves, monkeypatch):
    # 32 and 34 of them on the coarse grid
    monkeypatch.setattr(gummel, "COARSE_MIN_SQUARES", 16)
    calls = count_lu_solves(monkeypatch)
    g = unit_square_grid(64)
    case = case_nonlinear(g, eps)
    p0 = sample_node(case.initial_guess, g)
    for _ in each_factor_path(monkeypatch):
        calls.clear()
        _, state = gummel_solve(case.problem, p0, StopRule(tol_rel=1e-12))
        assert state.status == "converged"
        runs = state.coarse.history + state.history
        assert len(calls) == sum(r.cg_iterations for r in runs) == lu_solves


@pytest.mark.parametrize("eps", [0.1, 0.0])
def test_large_grid_factors_once_on_the_fine_grid(eps):
    # by default: the coarse run on 100 squares per side is 1.6e-4 off the
    # fine solution, and the fine loop takes three iterations on one factor
    g = unit_square_grid(200)
    case = case_nonlinear(g, eps)
    p0 = sample_node(case.initial_guess, g)
    stop = StopRule(tol_rel=1e-12)
    p, state = gummel_solve(case.problem, p0, stop)
    p_ref, state_ref = guess_started(case.problem, p0, stop)
    assert state.status == state.coarse.status == state_ref.status == "converged"
    assert [r.factored for r in state.history] == [True, False, False]
    assert [r.factored for r in state_ref.history] == [True, True, False, False, False]
    assert np.linalg.norm(p.values - p_ref.values) <= 1e-12 * np.linalg.norm(p_ref.values)


@pytest.mark.parametrize("coarse_start", [False, True], ids=["guess", "coarse"])
def test_the_ghosts_of_the_guess_do_not_reach_the_result(coarse_start, monkeypatch):
    # linearizing reads the ghosts of p0 (the reaction law, the problem's
    # checks, the slope clamp), but no iterate depends on them: random ghosts
    # where the law is valid give the same run, byte for byte; the coarse
    # start restricts fine interior nodes to coarse interior ones
    if coarse_start:
        monkeypatch.setattr(gummel, "COARSE_MIN_SQUARES", 16)
    g = unit_square_grid(32)
    case = case_nonlinear(g, 0.1)
    exact = case.exact_field()
    p0 = sample_node(case.initial_guess, g)
    stop = StopRule(tol_rel=1e-12)
    p_ref, state_ref = gummel_solve(case.problem, p0, stop, exact=exact)
    ring = np.ones(g.node_shape, dtype=bool)
    ring[INTERIOR] = False
    guess = p0.copy()
    guess.values[ring] = np.random.default_rng(11).uniform(1.0, 1.5, np.count_nonzero(ring))
    assert not np.any(guess.values[ring] == p0.values[ring])
    p, state = gummel_solve(case.problem, guess, stop, exact=exact)
    assert state.status == state_ref.status == "converged"
    assert (state.coarse is not None) == coarse_start
    if coarse_start:
        assert state.coarse.status == "converged"
        assert state.coarse.corrections == state_ref.coarse.corrections
    assert state.history == state_ref.history
    np.testing.assert_array_equal(p.values, p_ref.values)
