import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from apdiff import apcore
from apdiff.apcore import (
    LinearProblem,
    fill_ghost,
    reconstruct_pi,
    reconstruct_q,
    StageError,
    solve_L,
    solve_linear_ap,
)
from apdiff.grid import INTERIOR, CellField, NodeField, make_grid, sample_node
from apdiff.linsolve import SolveReport, SolverConfig
from apdiff.operators import apply_dh
from apdiff.problems import case_angle, case_linear_variable
from apdiff.experiments import fit_loglog_slope, rel_error, unit_square_grid

from _oracles import dense_second_order

UNIT = ((1.0, 2.0), (1.0, 2.0))


def swirl_problem(grid, eps, source=None, grad_source=None):
    bump = lambda x, y: 1.0 + np.sin(x) ** 2 * np.sin(y) ** 2
    return LinearProblem.from_functions(
        grid,
        eps,
        reaction=bump,
        diffusivity=bump,
        direction=lambda x, y: (y / np.hypot(x, y), -x / np.hypot(x, y)),
        source=source or (lambda x, y: np.zeros_like(x)),
        grad_source=grad_source or (lambda x, y: np.zeros_like(x)),
    )


def test_problem_validation():
    g = make_grid(UNIT, 5, 5)
    with pytest.raises(ValueError):
        swirl_problem(g, -1.0)
    with pytest.raises(ValueError):
        LinearProblem.from_functions(
            g, 0.0,
            reaction=lambda x, y: np.zeros_like(x),  # not strictly positive
            diffusivity=lambda x, y: np.ones_like(x),
            direction=lambda x, y: (np.ones_like(x), np.zeros_like(x)),
            source=lambda x, y: np.zeros_like(x),
            grad_source=lambda x, y: np.zeros_like(x),
        )
    # inf passes a sign check, so finiteness is checked on its own
    problem = swirl_problem(g, 0.1)
    with pytest.raises(ValueError, match="diffusivity_cell"):
        dataclasses.replace(problem, diffusivity_cell=CellField(g, np.full(g.cell_shape, np.inf)))
    nan_source = problem.source_node.values.copy()
    nan_source[3, 2] = np.nan
    with pytest.raises(ValueError, match="source_node"):
        dataclasses.replace(problem, source_node=NodeField(g, nan_source))
    with pytest.raises(ValueError, match="eps"):
        dataclasses.replace(problem, eps=np.inf)


def ghost_ring(g):
    """Mask of the ghost node ring."""
    mask = np.ones(g.node_shape, dtype=bool)
    mask[INTERIOR] = False
    return mask


def test_solve_h_zero_source():
    g = make_grid(UNIT, 8, 8)
    dec = solve_linear_ap(swirl_problem(g, 0.5))
    np.testing.assert_allclose(dec.h.values, 0.0, atol=1e-12)


def test_solve_h_constant_source_ratio():
    g = make_grid(UNIT, 8, 8)
    bump = lambda x, y: 1.0 + np.sin(x) ** 2 * np.sin(y) ** 2
    # f/G constant -> right-hand side vanishes
    problem = swirl_problem(g, 0.5, source=lambda x, y: 3.0 * bump(x, y))
    dec = solve_linear_ap(problem)
    np.testing.assert_allclose(dec.h.values, 0.0, atol=1e-10)


def test_reconstruct_pi_trivial_cases():
    g = make_grid(UNIT, 6, 6)
    bump = lambda x, y: 1.0 + np.sin(x) ** 2 * np.sin(y) ** 2
    problem = swirl_problem(g, 0.1, source=bump)
    pi = reconstruct_pi(problem, CellField.zeros(g))
    np.testing.assert_allclose(pi.values[INTERIOR], 1.0, rtol=1e-14)
    problem0 = swirl_problem(g, 0.1)
    pi0 = reconstruct_pi(problem0, CellField.zeros(g))
    np.testing.assert_allclose(pi0.values, 0.0)


def test_solve_L_skipped_at_eps_zero():
    g = make_grid(UNIT, 8, 8)
    case = case_linear_variable(g, 0.0)
    L, rep = solve_L(case.problem)
    assert "skipped" in rep.method
    assert np.all(L.values == 0.0)


def test_solve_L_vanishes_when_sources_balance():
    g = make_grid(UNIT, 8, 8)
    problem = swirl_problem(g, 0.3, source=lambda x, y: np.sin(x) * np.cos(y))
    # prescribe b.S = dh(f/G) pointwise so the right-hand side cancels exactly
    ratio = NodeField(g, problem.source_node.values / problem.reaction_node.values)
    problem.grad_source_cell = CellField(g, apply_dh(ratio, problem.context()).values)
    L, rep = solve_L(problem)
    np.testing.assert_allclose(L.values, 0.0, atol=1e-10)


def test_solve_l_trivial():
    # zero sources give L = 0, so the fluctuation system has a zero right-hand side
    g = make_grid(UNIT, 8, 8)
    dec = solve_linear_ap(swirl_problem(g, 0.2))
    np.testing.assert_array_equal(dec.L.values, 0.0)
    np.testing.assert_allclose(dec.l.values, 0.0, atol=1e-12)


def test_reconstruct_q_trivial_and_impulse():
    g = make_grid(UNIT, 6, 6)
    problem = swirl_problem(g, 0.2)
    q = reconstruct_q(problem, CellField.zeros(g))
    np.testing.assert_allclose(q.values, 0.0)
    # single-cell impulse with unit reaction: q equals the divergence stencil
    ones = lambda x, y: np.ones_like(x)
    problem1 = LinearProblem.from_functions(
        g, 0.2, reaction=ones, diffusivity=ones,
        direction=lambda x, y: (y / np.hypot(x, y), -x / np.hypot(x, y)),
        source=lambda x, y: np.zeros_like(x), grad_source=lambda x, y: np.zeros_like(x),
    )
    l = CellField.zeros(g)
    l.values[3, 3] = 1.0
    from apdiff.operators import apply_dh_star

    q1 = reconstruct_q(problem1, l)
    expected = apply_dh_star(l, problem1.context())
    np.testing.assert_allclose(q1.values, expected.values, atol=1e-14)


def test_three_solves_match_dense_oracle():
    # every elliptic stage against a dense LU on a small grid
    g = make_grid(UNIT, 7, 7)
    case = case_linear_variable(g, 0.37)
    problem = case.problem
    dec = solve_linear_ap(problem, fill=False)

    b = problem.direction.values
    a_mean = dense_second_order(g, b, problem.reaction_cell.values, problem.reaction_node.values)
    a_fluct = dense_second_order(g, b, problem.diffusivity_cell.values, problem.reaction_node.values)
    a_fluct += problem.eps * np.eye(g.n_interior_cells)

    ratio = NodeField(g, problem.source_node.values / problem.reaction_node.values)
    rhs_mean = apply_dh(ratio, problem.context()).values[INTERIOR].ravel()
    h_dense = np.linalg.solve(a_mean, rhs_mean)
    np.testing.assert_allclose(dec.h.values[INTERIOR].ravel(), h_dense, atol=1e-12)

    rhs_L = -problem.eps * (rhs_mean - problem.grad_source_cell.values[INTERIOR].ravel())
    L_dense = np.linalg.solve(a_fluct, rhs_L)
    np.testing.assert_allclose(dec.L.values[INTERIOR].ravel(), L_dense, atol=1e-12)

    rhs_l = L_dense - problem.grad_source_cell.values[INTERIOR].ravel()
    l_dense = np.linalg.solve(a_mean, rhs_l)
    np.testing.assert_allclose(dec.l.values[INTERIOR].ravel(), l_dense, atol=1e-12)


def test_constant_solution_for_any_eps():
    g = make_grid(UNIT, 10, 10)
    bump = lambda x, y: 1.0 + np.sin(x) ** 2 * np.sin(y) ** 2
    for eps in (0.0, 1e-9, 0.5):
        problem = swirl_problem(g, eps, source=lambda x, y: 4.2 * bump(x, y))
        dec = solve_linear_ap(problem)
        np.testing.assert_allclose(dec.p.values[INTERIOR], 4.2, rtol=1e-9)


def test_decomposition_identity():
    g = make_grid(UNIT, 12, 12)
    case = case_linear_variable(g, 1e-3)
    dec = solve_linear_ap(case.problem)
    np.testing.assert_array_equal(
        dec.p.values[INTERIOR], dec.pi.values[INTERIOR] + dec.q.values[INTERIOR]
    )


def test_mean_part_kernel_property():
    g = unit_square_grid(50)
    case = case_linear_variable(g, 1e-9)
    dec = solve_linear_ap(case.problem, SolverConfig(tol=1e-12))
    assert dec.mean_gradient_l2 <= 100 * 1e-12


def test_eps_uniform_well_posedness():
    g = unit_square_grid(25)
    errors = []
    for eps in (1.0, 1e-3, 1e-9, 0.0):
        case = case_linear_variable(g, eps)
        dec = solve_linear_ap(case.problem)
        errors.append(rel_error(case.exact_field(), dec.p, 2))
    assert (max(errors) - min(errors)) / max(errors) < 0.10


def test_vanishing_eps_matches_limit_solve():
    g = unit_square_grid(25)
    p_small = solve_linear_ap(case_linear_variable(g, 1e-9).problem).p
    p_zero = solve_linear_ap(case_linear_variable(g, 0.0).problem).p
    diff = np.linalg.norm(p_small.values[INTERIOR] - p_zero.values[INTERIOR])
    assert diff / np.linalg.norm(p_zero.values[INTERIOR]) <= 1e-8


def test_second_order_convergence_small():
    errs, hs = [], []
    for cells in (12, 24, 48):
        g = unit_square_grid(cells)
        case = case_linear_variable(g, 0.0)
        dec = solve_linear_ap(case.problem)
        errs.append(rel_error(case.exact_field(), dec.p, 2))
        hs.append(g.h)
    slope = fit_loglog_slope(hs, errs)
    assert 1.8 <= slope <= 2.2


def test_orthogonality_of_decomposition():
    # the mean and fluctuation parts are orthogonal in the reaction-weighted
    # inner product down to the solver residual (the duality identity makes
    # this exact, far below the O(h^2) one could settle for)
    for cells in (16, 32):
        g = unit_square_grid(cells)
        case = case_angle(g, 1e-3, 0.6)
        dec = solve_linear_ap(case.problem)
        gv = case.problem.reaction_node.values[INTERIOR]
        w = g.dx * g.dy
        pi_i, q_i = dec.pi.values[INTERIOR], dec.q.values[INTERIOR]
        num = abs(np.sum(gv * pi_i * q_i) * w)
        den = np.sqrt(np.sum(gv * pi_i**2) * w) * np.sqrt(np.sum(gv * q_i**2) * w)
        assert num / den <= 1e-10


def test_fill_ghost_affine_exactness():
    g = make_grid(UNIT, 10, 10)
    c0, c1, c2 = 0.4, 1.7, -0.9
    problem = swirl_problem(g, 0.2)
    b = problem.direction
    problem.grad_source_cell = CellField(g, b.x * c1 + b.y * c2)
    p = NodeField.zeros(g)
    exact = sample_node(lambda x, y: c0 + c1 * x + c2 * y, g)
    p.values[INTERIOR] = exact.values[INTERIOR]
    filled, report = fill_ghost(p, g, problem.direction, problem.grad_source_cell)
    assert report.constraint_defect <= 1e-12
    mask = ghost_ring(g)
    np.testing.assert_allclose(filled.values[mask], exact.values[mask], atol=1e-10)


def test_fill_ghost_constant():
    g = make_grid(UNIT, 8, 8)
    problem = swirl_problem(g, 0.2)
    p = NodeField.zeros(g)
    p.values[INTERIOR] = 2.5
    filled, report = fill_ghost(p, g, problem.direction, problem.grad_source_cell)
    mask = ghost_ring(g)
    np.testing.assert_allclose(filled.values[mask], 2.5, atol=1e-12)
    assert report.constraint_defect <= 1e-12


def test_fill_ghost_second_order_on_manufactured_case():
    errs = []
    for cells in (25, 50):
        g = unit_square_grid(cells)
        case = case_linear_variable(g, 0.1)
        exact = case.exact_field()
        p = NodeField.zeros(g)
        p.values[INTERIOR] = exact.values[INTERIOR]
        filled, report = fill_ghost(p, g, case.problem.direction, case.problem.grad_source_cell)
        assert report.rank_deficient  # tangential corners: reported, not fatal
        mask = ghost_ring(g)
        errs.append(np.abs(filled.values - exact.values)[mask].max())
    assert errs[1] <= errs[0] / 3.0  # ~ h^2


def test_fill_ghost_preserves_interior():
    g = make_grid(UNIT, 8, 8)
    case = case_linear_variable(g, 0.1)
    rng = np.random.default_rng(2)
    p = NodeField.zeros(g)
    p.values[INTERIOR] = rng.standard_normal((g.nx + 1, g.ny + 1))
    before = p.values[INTERIOR].copy()
    filled, _ = fill_ghost(p, g, case.problem.direction, case.problem.grad_source_cell)
    np.testing.assert_array_equal(filled.values[INTERIOR], before)


def svd_fill_reference(p, g, direction, grad_source):
    """Ghost values of the dense truncated-SVD fill, written out stencil by stencil.

    Returns ``(ghost values in row-major order, rank)``.
    """
    nx, ny = g.nx, g.ny
    dx2, dy2 = 2.0 * g.dx, 2.0 * g.dy
    b, bs, vals = direction.values, grad_source.values, p.values
    order = [(ai, aj) for ai in range(nx + 3) for aj in range(ny + 3)
             if not (1 <= ai <= nx + 1 and 1 <= aj <= ny + 1)]
    index = {node: k for k, node in enumerate(order)}
    ring = [(ci, cj) for ci in range(nx + 2) for cj in range(ny + 2)
            if ci in (0, nx + 1) or cj in (0, ny + 1)]
    a = np.zeros((len(ring) + 4, len(order)))
    rhs = np.zeros(len(ring) + 4)
    for row, (ci, cj) in enumerate(ring):
        bx, by = b[ci, cj]
        rhs[row] = bs[ci, cj]
        for di in (0, 1):
            for dj in (0, 1):
                coef = (1.0 if di else -1.0) * bx / dx2 + (1.0 if dj else -1.0) * by / dy2
                if (ci + di, cj + dj) in index:
                    a[row, index[ci + di, cj + dj]] = coef
                else:
                    rhs[row] -= coef * vals[ci + di, cj + dj]
    target = np.empty(len(order))
    for k, (ai, aj) in enumerate(order):
        di = 1 if ai == 0 else (-1 if ai == nx + 2 else 0)
        dj = 1 if aj == 0 else (-1 if aj == ny + 2 else 0)
        target[k] = 2.0 * vals[ai + di, aj + dj] - vals[ai + 2 * di, aj + 2 * dj]
    for row, corner in enumerate([(0, 0), (nx + 2, 0), (0, ny + 2), (nx + 2, ny + 2)]):
        a[len(ring) + row, index[corner]] = 1.0
        rhs[len(ring) + row] = target[index[corner]]
    scale = np.linalg.norm(a, axis=1)
    scale[scale == 0.0] = 1.0
    u, sig, vt = np.linalg.svd(a / scale[:, None], full_matrices=False)
    rank = int(np.sum(sig > 1e-6 * sig[0]))
    misfit = (rhs - a @ target) / scale
    return target + vt[:rank].T @ ((u[:, :rank].T @ misfit) / sig[:rank]), rank


@pytest.mark.parametrize("kind, value", [("linear", 0.1), ("angle", 0), ("angle", 33),
                                         ("angle", 45), ("angle", 90)])
def test_fill_ghost_matches_svd_reference(kind, value):
    g = unit_square_grid(64)
    if kind == "linear":
        problem = case_linear_variable(g, value).problem
    else:
        problem = case_angle(g, 1e-3, math.radians(value)).problem
    p = solve_linear_ap(problem, fill=False).p
    filled, report = fill_ghost(p, g, problem.direction, problem.grad_source_cell)
    want, rank = svd_fill_reference(p, g, problem.direction, problem.grad_source_cell)
    got = filled.values[ghost_ring(g)]
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert (report.rank, report.rank_deficient) == (rank, rank < want.size)
    assert report.n_unknowns == want.size


def test_residuals_reported():
    g = make_grid(UNIT, 10, 10)
    case = case_linear_variable(g, 0.5)
    dec = solve_linear_ap(case.problem)
    assert set(dec.residuals) == {"h", "L", "l"}
    assert all(r <= 1e-12 for r in dec.residuals.values())


class ColamdFactor:
    """Oracle: the factorization in COLAMD column order, refined as DirectFactor refines."""

    def __init__(self, matrix, perm, tol=1e-12):
        self.matrix = matrix.tocsr()
        self.tol = tol
        self._lu = spla.splu(self.matrix.tocsc(), permc_spec="COLAMD")

    def solve(self, rhs):
        x = self._lu.solve(rhs)
        scale = max(float(np.linalg.norm(rhs)), 1e-300)
        res = float(np.linalg.norm(self.matrix @ x - rhs)) / scale
        for _ in range(2):
            if res <= self.tol or not np.isfinite(res):
                break
            x = x + self._lu.solve(rhs - self.matrix @ x)
            res = float(np.linalg.norm(self.matrix @ x - rhs)) / scale
        return SolveReport(x, res, 0.0, bool(np.isfinite(res) and res <= self.tol), "colamd")


@pytest.mark.parametrize(
    "kind, value",
    [("linear", 0.1), ("linear", 1e-3), ("linear", 0.0), ("angle", 0), ("angle", 45), ("angle", 90)],
)
def test_nested_dissection_matches_colamd_oracle(kind, value, monkeypatch):
    # eps for the linear case, degrees for the angle case (0 and 90 are the
    # axis-aligned directions)
    g = unit_square_grid(64)
    if kind == "linear":
        case = case_linear_variable(g, value)
    else:
        case = case_angle(g, 1e-3, math.radians(value))
    config = SolverConfig()
    dec = solve_linear_ap(case.problem, config)
    with monkeypatch.context() as m:
        m.setattr(apcore, "DirectFactor", ColamdFactor)
        oracle = solve_linear_ap(case.problem, config)
    assert all(r <= config.tol for r in dec.residuals.values())
    for name in ("h", "L", "l", "pi", "q", "p"):
        got = getattr(dec, name).values[INTERIOR]
        want = getattr(oracle, name).values[INTERIOR]
        assert np.linalg.norm(got - want) <= 1e-10 * max(np.linalg.norm(want), 1e-300), name


def singular_mean_operator(g, cell):
    """The mean-potential operator with one cell's row and column zeroed."""
    problem = swirl_problem(g, 0.1)
    base = apcore._cell_operator(problem, problem.context(), problem.reaction_cell)

    def op(v):
        v = v.copy()
        v[cell] = 0.0
        out = base(v)
        out[cell] = 0.0
        return out

    return op


def test_gauge_shift_retry_solves_consistent_rhs():
    g = make_grid(UNIT, 8, 8)
    cell = (3, 4)
    op = singular_mean_operator(g, cell)
    with pytest.raises(RuntimeError):  # exactly singular without the shift
        apcore.DirectFactor(apcore.assemble(op, (g.nx, g.ny)), np.arange(g.n_interior_cells))
    factor = apcore._factor(op, g, 1e-12, "mean-potential")
    assert factor.shift > 0.0  # the retry fired

    x_true = np.random.default_rng(5).standard_normal((g.nx, g.ny))
    x_true[cell] = 0.0
    rhs = op(x_true)  # in the range of the singular matrix
    field, report = apcore._solve(factor, rhs, g, 1e-12, "mean-potential")
    assert report.ok and report.residual <= 1e-12
    # the reported residual is that of the unshifted system, not of the factored one
    matrix = apcore.assemble(op, (g.nx, g.ny))
    unshifted = np.linalg.norm(matrix @ report.x - rhs.ravel()) / np.linalg.norm(rhs)
    assert report.residual == pytest.approx(unshifted, rel=1e-12, abs=0.0)
    np.testing.assert_allclose(field.values[INTERIOR], x_true, rtol=0, atol=1e-8)


def test_gauge_shift_failure_names_stage():
    g = make_grid(UNIT, 6, 6)
    with pytest.raises(StageError, match="flux-potential"):
        apcore._factor(lambda v: np.zeros_like(v), g, 1e-12, "flux-potential")
