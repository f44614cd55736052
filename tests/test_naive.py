import numpy as np

from apdiff.apcore import LinearProblem, solve_linear_ap
from apdiff.grid import INTERIOR, make_grid, sample_node
from apdiff.naive import assemble_naive, naive_condition, solve_naive
from apdiff.problems import case_angle, case_linear_variable
from apdiff.experiments import ExperimentConfig, conditioning_study, rel_error, unit_square_grid

from _oracles import dense_dh

UNIT = ((1.0, 2.0), (1.0, 2.0))


def axis_problem(grid, eps=1.0):
    ones = lambda x, y: np.ones_like(x)
    return LinearProblem.from_functions(
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
    problem = LinearProblem.from_functions(
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
    systems = [assemble_naive(problem) for problem in problems]
    for problem, system in zip(problems, systems):
        want, degenerate = flux_rows_reference(problem)
        assert system.degenerate_cells == degenerate  # content and order
        got = system.matrix[ni:ni + len(want)].toarray()
        assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)
    # circular direction is exactly tangent at the two diagonal corners
    assert set(systems[0].degenerate_cells) == {(-1, -1), (g.nx, g.ny)}
    # uniform vertical direction: tangent along the whole left and right edges
    lefts = [(ci, cj) for ci, cj in systems[1].degenerate_cells if ci == -1]
    rights = [(ci, cj) for ci, cj in systems[1].degenerate_cells if ci == g.nx]
    assert len(lefts) == g.ny and len(rights) == g.ny


def test_system_is_rectangular_least_squares():
    g = make_grid(UNIT, 8, 8)
    system = assemble_naive(case_linear_variable(g, 1.0).problem)
    rows, cols = system.shape
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
    problem = LinearProblem.from_functions(
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
