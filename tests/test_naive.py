import os
import subprocess
import sys
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from apdiff import naive
from apdiff.apcore import solve_linear_ap
from apdiff.grid import INTERIOR, make_grid, sample_node
from apdiff.linsolve import SolveReport, SolverConfig, refine
from apdiff.naive import (NaiveSystem, assemble_naive, estimate_condition, naive_condition,
                          solve_naive)
from apdiff.problems import case_angle, case_linear_variable
from apdiff.experiments import ExperimentConfig, conditioning_study, rel_error, unit_square_grid

from _oracles import dense_dh
from test_apcore import sampled_problem

UNIT = ((1.0, 2.0), (1.0, 2.0))


def axis_problem(grid, eps=1.0):
    ones = lambda x, y: np.ones_like(x)
    return sampled_problem(
        grid, eps,
        reaction=ones, diffusivity=ones,
        direction=lambda x, y: (np.ones_like(x), np.zeros_like(x)),
        source=lambda x, y: np.cos(np.pi * x),
        grad_source=lambda x, y: -np.pi * np.sin(np.pi * x),
    )


def test_interior_rows_reduce_to_1d_stencil():
    g = make_grid(((0.0, 1.0), (0.0, 1.0)), 8, 8)
    system = assemble_naive(axis_problem(g, eps=1.0))
    ni = (g.nx + 1) * (g.ny + 1)
    interior = system.matrix[:ni]
    rng = np.random.default_rng(0)
    col = rng.standard_normal(g.nx + 3)
    v = np.repeat(col[:, None], g.ny + 3, axis=1)  # y-constant over all nodes
    out = (interior @ v.ravel()).reshape(g.nx + 1, g.ny + 1)
    # hand 1D assembly: -(p'' ) + eps G p on the interior points
    expected = -(col[2:] - 2.0 * col[1:-1] + col[:-2]) / g.dx**2 + col[1:-1]
    for j in range(g.ny + 1):
        np.testing.assert_allclose(out[:, j], expected, rtol=1e-11)


def test_constant_solution_is_exact():
    g = make_grid(UNIT, 12, 12)
    bump = lambda x, y: 1.0 + np.sin(x) ** 2 * np.sin(y) ** 2
    problem = sampled_problem(
        g, 1.0,
        reaction=bump, diffusivity=bump,
        direction=lambda x, y: (y / np.hypot(x, y), -x / np.hypot(x, y)),
        source=lambda x, y: 3.0 * bump(x, y),
        grad_source=lambda x, y: np.zeros_like(x),
    )
    p, rep = solve_naive(problem)
    assert rep.ok
    np.testing.assert_allclose(p.values, 3.0, atol=1e-8)


def flux_rows_reference(problem):
    """Ring flux rows ``diag(H b.nu) dh``, and the degenerate cells, cell by cell."""
    g = problem.grid
    nx, ny = g.nx, g.ny
    dh = dense_dh(g, problem.direction.values)
    rows, degenerate = [], []
    for ci in range(nx + 2):
        for cj in range(ny + 2):
            if not (ci in (0, nx + 1) or cj in (0, ny + 1)):
                continue
            nu = np.array([-1.0 if ci == 0 else (1.0 if ci == nx + 1 else 0.0),
                           -1.0 if cj == 0 else (1.0 if cj == ny + 1 else 0.0)])
            nu /= np.linalg.norm(nu)
            align = float(problem.direction.values[ci, cj] @ nu)
            if abs(align) < 1e-12:
                degenerate.append((ci - 1, cj - 1))
                continue
            rows.append(problem.diffusivity_cell.values[ci, cj] * align * dh[ci * (ny + 2) + cj])
    return np.array(rows), degenerate


def test_degenerate_rows_flagged():
    g = make_grid(UNIT, 10, 10)
    ni = (g.nx + 1) * (g.ny + 1)
    problems = [case_linear_variable(g, 1.0).problem]
    problems += [case_angle(g, 1.0, np.radians(degrees)).problem for degrees in (0.0, 33.0, 90.0)]
    ring_cells = 2 * (g.nx + 2) + 2 * g.ny
    dropped = []
    for problem in problems:
        system = assemble_naive(problem)
        want, degenerate = flux_rows_reference(problem)
        # one flux row per ring cell but the degenerate ones, then one
        # extrapolation row per ghost node
        ghosts = system.matrix.shape[1] - ni
        assert len(want) == ring_cells - len(degenerate)
        assert system.matrix.shape[0] == ni + len(want) + ghosts
        got = system.matrix[ni:ni + len(want)].toarray()
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)
        dropped.append(degenerate)
    # circular direction is exactly tangent at the two diagonal corners
    assert set(dropped[0]) == {(-1, -1), (g.nx, g.ny)}
    # uniform vertical direction: tangent along the whole left and right edges
    lefts = [(ci, cj) for ci, cj in dropped[1] if ci == -1]
    rights = [(ci, cj) for ci, cj in dropped[1] if ci == g.nx]
    assert len(lefts) == g.ny and len(rights) == g.ny


def test_system_is_rectangular_least_squares():
    g = make_grid(UNIT, 8, 8)
    system = assemble_naive(case_linear_variable(g, 1.0).problem)
    rows, cols = system.matrix.shape
    assert rows > cols


def test_naive_converges_on_smooth_case():
    errs = []
    for cells in (20, 40):
        g = unit_square_grid(cells)
        problem = axis_problem(g, eps=1.0)
        exact = sample_node(lambda x, y: np.cos(np.pi * x), g)
        p, rep = solve_naive(problem)
        assert rep.ok
        errs.append(np.abs((p.values - exact.values)[INTERIOR]).max())
    assert errs[1] <= errs[0] / 2.5  # close to second order


def test_agreement_with_decomposition_solver_at_moderate_eps():
    g = unit_square_grid(50)
    case = case_linear_variable(g, 1.0)
    exact = case.exact_field()
    p_naive, rep = solve_naive(case.problem)
    dec = solve_linear_ap(case.problem)
    err_naive = rel_error(exact, p_naive, 2)
    err_ap = rel_error(exact, dec.p, 2)
    gap = np.linalg.norm(p_naive.values[INTERIOR] - dec.p.values[INTERIOR])
    gap /= np.linalg.norm(exact.values[INTERIOR])
    assert gap <= 10.0 * max(err_naive, err_ap)
    assert err_naive <= 1e-3  # the baseline is usable at eps = 1


def test_conditioning_sweep_blowup():
    cfg = ExperimentConfig(meshes=[30], eps_list=[1.0, 1e-3, 1e-6])
    rows = conditioning_study(cfg).extras["sweep"]
    conds = [r["cond_estimate"] for r in rows]
    assert conds[0] < conds[1] < conds[2]
    assert conds[2] / conds[0] >= 1e3
    assert conds[0] < 1e8
    assert {"eps", "cond_estimate", "solve_residual", "status"} <= set(rows[0])


def test_condition_diagonally_dominant_limit():
    # with the reaction scaled enormously the interior block approaches its
    # diagonal, whose condition is the reaction spread
    g = make_grid(UNIT, 12, 12)
    bump = lambda x, y: 1e6 * (1.0 + np.sin(x) ** 2 * np.sin(y) ** 2)
    problem = sampled_problem(
        g, 1.0,
        reaction=bump, diffusivity=lambda x, y: np.ones_like(x),
        direction=lambda x, y: (y / np.hypot(x, y), -x / np.hypot(x, y)),
        source=lambda x, y: np.zeros_like(x),
        grad_source=lambda x, y: np.zeros_like(x),
    )
    system = assemble_naive(problem)
    ni = (g.nx + 1) * (g.ny + 1)
    sy = g.node_shape[1]
    interior_cols = np.array(
        [(i + 1) * sy + (j + 1) for i in range(g.nx + 1) for j in range(g.ny + 1)]
    )
    block = system.matrix[:ni][:, interior_cols].toarray()
    diag = np.diag(block)
    cond_block = np.linalg.cond(block)
    cond_diag = diag.max() / diag.min()
    assert cond_block <= 10.0 * cond_diag


def test_naive_condition_reports_inf_on_breakdown():
    g = unit_square_grid(20)
    # eps = 0 makes the direct system truly singular up to rounding; the
    # estimate must stay finite-or-inf without raising
    system = assemble_naive(case_linear_variable(g, 0.0).problem)
    cond = naive_condition(system)
    assert cond > 1e8 or not np.isfinite(cond)


def test_failed_normal_equations_give_a_nan_solution(monkeypatch):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    g = unit_square_grid(8)
    monkeypatch.setattr(naive, "_normal_equations", singular)
    p, report = solve_naive(case_linear_variable(g, 1.0).problem)
    assert p.values.shape == g.node_shape and np.all(np.isnan(p.values))
    assert report == SolveReport(np.inf, False)


def test_estimate_condition_identity():
    mat = sp.eye(10, format="csr")
    assert estimate_condition(mat, spla.splu(mat.tocsc()).solve) == pytest.approx(1.0, rel=1e-10)


def test_estimate_condition_known_spectrum():
    mat = sp.diags([1.0, 1e6], format="csr")
    est = estimate_condition(mat, spla.splu(mat.tocsc()).solve)
    assert 0.5e6 <= est <= 2e6


def test_estimate_condition_and_refine_take_a_plain_function():
    d = np.arange(1.0, 41.0)
    mat = sp.diags(d, format="csr")
    lu_solve = lambda b: b / d
    assert estimate_condition(mat, lu_solve) == pytest.approx(40.0, rel=1e-3)
    x, residual = refine(mat, lu_solve, np.ones(40), 1e-12)
    assert np.array_equal(x, 1.0 / d) and residual <= 1e-12


@pytest.mark.parametrize("eps", [1.0, 1e-3])
def test_naive_condition_matches_dense_svd(eps):
    # eps = 1e-6 is left out: there the dense condition number is set by rounding
    system = assemble_naive(case_linear_variable(unit_square_grid(16), eps).problem)
    dense = np.linalg.cond(system.matrix.toarray())
    assert naive_condition(system) == pytest.approx(dense, rel=1e-3)


def test_estimate_condition_solve_count():
    system = assemble_naive(case_linear_variable(unit_square_grid(32), 1e-3).problem)
    ata, lu_solve = naive._normal_equations(system)
    solves = []

    def counted(rhs):
        solves.append(1)
        return lu_solve(rhs)

    assert np.isfinite(estimate_condition(ata, counted))
    assert 0 < len(solves) <= 12


@pytest.mark.parametrize("value", [np.nan, 0.0])
def test_estimate_condition_reports_inf_on_a_broken_factor(value):
    mat = sp.diags(np.arange(1.0, 41.0), format="csr")
    assert estimate_condition(mat, lambda b: np.full_like(b, value)) == np.inf


BROKEN_ESTIMATE = """
import numpy as np, scipy.sparse as sp
from apdiff.naive import estimate_condition
mat = sp.diags(np.arange(1.0, 41.0), format="csr")
print(estimate_condition(mat, lambda b: np.full_like(b, {value})))
"""


@pytest.mark.parametrize("value", ["np.nan", "np.inf", "0.0"])
def test_broken_factor_writes_nothing_to_stderr(value, capfd):
    # a non-finite solve stops the estimate before ARPACK's LAPACK calls see
    # it; they write to stderr from compiled code, buffered until the process
    # exits, so the estimate runs in a child process that shares this one's fds
    src = str(Path(naive.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", BROKEN_ESTIMATE.format(value=value)], env=env,
                   check=True, timeout=120)
    captured = capfd.readouterr()
    assert captured.out.strip() == "inf"
    assert captured.err == ""


class TrackedFactor:
    """A ``splu`` factor behind a proxy that ``weakref.finalize`` can watch.

    ``solve`` is the proxy's own method, so a solve function holds the proxy.
    """

    def __init__(self, lu):
        self.lu = lu

    def solve(self, rhs):
        return self.lu.solve(rhs)

    def __getattr__(self, name):
        return getattr(self.lu, name)


@pytest.fixture
def factors(monkeypatch):
    """Track every ``splu``: ``made`` lists each call's ``permc_spec``, ``alive()`` live factors.

    ``last()`` is the proxy of the last factor, or ``None`` once it is freed.
    Both hand-off slots start and end empty.
    """
    real = spla.splu
    made, live, last = [], set(), [lambda: None]

    def tracked(*args, **kwargs):
        assert not live, "a new factor is built while an older one is alive"
        made.append(kwargs.get("permc_spec"))
        factor = TrackedFactor(real(*args, **kwargs))
        live.add(len(made))
        weakref.finalize(factor, live.discard, len(made))
        last[0] = weakref.ref(factor)
        return factor

    naive._handoff.clear()
    naive._column_order.clear()
    monkeypatch.setattr(naive.spla, "splu", tracked)
    yield SimpleNamespace(made=made, alive=lambda: len(live), last=lambda: last[0]())
    naive._handoff.clear()
    naive._column_order.clear()


def fresh_solve(problem):
    """``solve_naive`` with nothing handed off."""
    naive._handoff.clear()
    return solve_naive(problem)


@pytest.mark.parametrize("eps", [1.0, 1e-3, 1e-6])
def test_handed_off_factor_gives_bitwise_equal_results(eps):
    problem = case_linear_variable(unit_square_grid(32), eps).problem
    want_p, want = fresh_solve(problem)
    want_cond = naive_condition(assemble_naive(problem))
    naive._handoff.clear()

    cond = naive_condition(assemble_naive(problem))
    p, rep = solve_naive(problem)
    assert cond == want_cond
    assert np.array_equal(p.values, want_p.values)
    assert rep.residual == want.residual and rep.ok == want.ok
    assert not naive._handoff


def test_condition_then_solve_factors_once_and_frees_the_factor(factors):
    problem = case_linear_variable(unit_square_grid(16), 1e-3).problem
    naive_condition(assemble_naive(problem))
    assert len(factors.made) == 1 and factors.alive() == 1
    solve_naive(problem)
    assert len(factors.made) == 1 and factors.alive() == 0


def test_other_eps_misses(factors):
    g = unit_square_grid(16)
    naive_condition(assemble_naive(case_linear_variable(g, 1.0).problem))
    p, rep = solve_naive(case_linear_variable(g, 1e-3).problem)
    assert len(factors.made) == 2 and factors.alive() == 0
    want_p, want = fresh_solve(case_linear_variable(g, 1e-3).problem)
    assert np.array_equal(p.values, want_p.values) and rep.residual == want.residual


def test_other_grid_misses(factors):
    naive_condition(assemble_naive(case_linear_variable(unit_square_grid(16), 1.0).problem))
    solve_naive(case_linear_variable(unit_square_grid(12), 1.0).problem)
    assert len(factors.made) == 2 and factors.alive() == 0


def test_matrix_edited_in_place_misses(factors, monkeypatch):
    # solve_naive is handed the very system that was conditioned, then edited:
    # a comparison by reference would reuse the factor of the unedited matrix
    problem = case_linear_variable(unit_square_grid(16), 1.0).problem
    system = assemble_naive(problem)
    monkeypatch.setattr(naive, "assemble_naive", lambda problem: system)
    naive_condition(system)
    system.matrix.data[0] += 1.0
    p, rep = solve_naive(problem)
    assert len(factors.made) == 2 and factors.alive() == 0
    want_p, want = fresh_solve(problem)
    assert np.array_equal(p.values, want_p.values) and rep.residual == want.residual


def test_failed_factor_leaves_the_slot_empty():
    system = assemble_naive(case_linear_variable(unit_square_grid(8), 1.0).problem)
    naive._handoff.clear()
    naive_condition(system)
    assert naive._handoff
    system.matrix.data[:] = 0.0  # A^T A = 0: splu raises
    assert naive_condition(system) == np.inf
    assert not naive._handoff


def colamd_oracle(problem):
    """``(cond, x, residual, perm_c)`` of the naive baseline from an explicit COLAMD factor."""
    system = assemble_naive(problem)
    a = system.matrix
    ata = (a.T @ a).tocsr()
    lu = spla.splu(ata.tocsc(), permc_spec="COLAMD")
    kappa = estimate_condition(ata, lu.solve)
    x, res = refine(ata, lu.solve, a.T @ system.rhs, SolverConfig().tol)
    return float(np.sqrt(kappa)) if np.isfinite(kappa) else np.inf, x, res, lu.perm_c


def assert_matches_oracle(problem, want):
    """A condition estimate, then a solve, of ``problem``: bitwise the oracle's."""
    cond = naive_condition(assemble_naive(problem))
    p, rep = solve_naive(problem)
    assert cond == want[0]
    assert np.array_equal(p.values.ravel(), want[1]) and rep.residual == want[2]


@pytest.mark.parametrize("eps", [1.0, 1e-3, 1e-6])
@pytest.mark.parametrize("cells", [16, 50])
def test_column_order_slot_is_bitwise_a_colamd_factor(factors, cells, eps):
    g = unit_square_grid(cells)
    problem = case_linear_variable(g, eps).problem
    want = colamd_oracle(problem)
    first = len(factors.made)
    assert_matches_oracle(problem, want)  # cold: COLAMD, whose order the slot keeps
    naive._handoff.clear()
    assert_matches_oracle(problem, want)  # warm: the slot's order
    naive_condition(assemble_naive(case_linear_variable(g, 10.0 * eps).problem))
    naive._handoff.clear()
    assert_matches_oracle(problem, want)  # warm from another eps of the mesh
    assert factors.made[first:] == ["COLAMD", "NATURAL", "NATURAL", "NATURAL"]

    naive._handoff.clear()
    _, lu_solve = naive._normal_equations(assemble_naive(problem))
    assert factors.made[-1] == "NATURAL" and factors.alive() == 1
    n = g.node_shape[0] * g.node_shape[1]
    assert np.array_equal(factors.last().perm_c, np.arange(n))  # no reordering by SuperLU
    (order,) = naive._column_order.values()
    assert np.array_equal(np.argsort(order), want[3])
    del lu_solve
    assert factors.alive() == 0 and factors.last() is None


def test_a_new_pattern_recomputes_the_order(factors):
    problems = [case_linear_variable(unit_square_grid(cells), 1e-3).problem
                for cells in (16, 20, 16)]
    wants = [colamd_oracle(problem) for problem in problems]
    first = len(factors.made)
    for problem, want in zip(problems, wants):
        assert_matches_oracle(problem, want)
        assert len(naive._column_order) == 1
    assert factors.made[first:] == ["COLAMD"] * 3
    problem = case_linear_variable(unit_square_grid(16), 1.0).problem
    assert_matches_oracle(problem, colamd_oracle(problem))
    assert factors.made[-1] == "NATURAL" and factors.alive() == 0


def test_singular_matrix_on_a_held_pattern(factors, monkeypatch):
    # two unknowns a block: A^T A is block diagonal with full 2 x 2 blocks
    # either way, [[2, 1], [1, 2]] regular and [[3, 3], [3, 3]] singular
    g = unit_square_grid(8)
    pairs = g.node_shape[0] * g.node_shape[1] // 2
    regular, singular = (
        NaiveSystem(sp.kron(sp.eye(pairs), block, format="csr"), np.ones(3 * pairs))
        for block in ([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]], np.ones((3, 2)))
    )
    assert naive_condition(regular) == pytest.approx(np.sqrt(3.0), rel=1e-3)
    assert naive._column_order
    assert naive_condition(singular) == np.inf
    assert not naive._handoff

    monkeypatch.setattr(naive, "assemble_naive", lambda problem: singular)
    p, report = solve_naive(case_linear_variable(g, 1.0).problem)
    assert p.values.shape == g.node_shape and np.all(np.isnan(p.values))
    assert report == SolveReport(np.inf, False)
    assert not naive._handoff
    assert factors.made == ["COLAMD", "NATURAL", "NATURAL"]
    assert factors.alive() == 0


def test_same_shape_other_pattern_recomputes_the_order(factors):
    # the same two-unknown blocks, paired (0, 1), (2, 3), ... and then
    # (1, 2), (3, 4), ..., (n - 1, 0): A^T A has one shape and two patterns
    n = 40
    block = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
    pairs = NaiveSystem(sp.kron(sp.eye(n // 2), block, format="csr"), np.ones(3 * n // 2))
    shifted = NaiveSystem(pairs.matrix[:, np.roll(np.arange(n), 1)], pairs.rhs)
    for system in (pairs, shifted, pairs):
        assert naive_condition(system) == pytest.approx(np.sqrt(3.0), rel=1e-3)
    assert factors.made == ["COLAMD"] * 3
    naive_condition(shifted)
    naive._handoff.clear()
    naive_condition(shifted)
    assert factors.made[3:] == ["COLAMD", "NATURAL"]
