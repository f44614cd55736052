import contextlib
import dataclasses
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from apdiff import apcore, linsolve
from apdiff.apcore import (
    GHOST_RCOND,
    LinearProblem,
    fill_ghost,
    reconstruct_pi,
    reconstruct_q,
    StageError,
    solve_L,
    solve_linear_ap,
    solve_p,
)
from apdiff.grid import (INTERIOR, CellField, CellVectorField, NodeField, make_grid, sample_cell,
                         sample_cell_vec, sample_node)
from apdiff.linsolve import (AssemblyError, BandFactor, DirectFactor, SolverConfig, assemble,
                             factor_order, nested_dissection, refine, stencil_matrix)
from apdiff.operators import apply_dh, compose_second_order, ghost_extrapolation, ring_dh
from apdiff.gummel import linearize
from apdiff.problems import case_angle, case_ap_limit, case_linear_variable, case_nonlinear
from apdiff.experiments import fit_loglog_slope, rel_error, unit_square_grid

from _oracles import dense_second_order, truncated_lstsq_40_digits
from test_gummel import count_lu_solves, each_factor_path, linear_law_problem
from test_operators import uniform_direction

UNIT = ((1.0, 2.0), (1.0, 2.0))


def sampled_problem(grid, eps, reaction, diffusivity, direction, source, grad_source):
    """The linear problem of closed forms ``fn(x, y)``, each sampled on its lattice."""
    return LinearProblem(grid, float(eps), sample_node(reaction, grid),
                         sample_cell(reaction, grid), sample_cell(diffusivity, grid),
                         sample_cell_vec(direction, grid), sample_node(source, grid),
                         sample_cell(grad_source, grid))


def swirl_problem(grid, eps, source=None, grad_source=None):
    bump = lambda x, y: 1.0 + np.sin(x) ** 2 * np.sin(y) ** 2
    return sampled_problem(
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
        sampled_problem(
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


def test_problems_and_fill_ghost_reject_zero_direction():
    g = make_grid(UNIT, 5, 5)
    problem = swirl_problem(g, 0.1)
    values = problem.direction.values.copy()
    values[2, 3] = 0.0
    zero = CellVectorField(g, values)
    with pytest.raises(ValueError, match="zero vectors"):
        dataclasses.replace(problem, direction=zero)
    with pytest.raises(ValueError, match="zero vectors"):
        dataclasses.replace(linear_law_problem(g), direction=zero)
    with pytest.raises(ValueError, match="zero vectors"):
        fill_ghost(NodeField.zeros(g), zero, problem.grad_source_cell)


@pytest.mark.parametrize("vector", [(np.nan, np.nan), (np.nan, 0.5), (-0.5, np.nan)],
                         ids=["nan-nan", "nan-x", "nan-y"])
def test_fill_ghost_rejects_nan_direction(vector):
    # fill_ghost takes a direction that need not have passed check_data
    g = make_grid(UNIT, 5, 5)
    problem = swirl_problem(g, 0.1)
    values = problem.direction.values.copy()
    values[2, 3] = vector
    with pytest.raises(apcore.DataError, match="direction"):
        fill_ghost(NodeField.zeros(g), CellVectorField(g, values), problem.grad_source_cell)


@pytest.mark.parametrize("field, where", [("p", (0, 0)), ("p", (3, 4)), ("grad_source", (0, 2)),
                                          ("grad_source", (3, 3))])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_fill_ghost_rejects_non_finite_data(field, where, value):
    # p is read on its interior only; grad_source, as check_data reads it, everywhere
    g = make_grid(UNIT, 5, 5)
    problem = swirl_problem(g, 0.1)
    p = NodeField(g, np.random.default_rng(1).standard_normal(g.node_shape))
    grad_source = problem.grad_source_cell.copy()
    (p if field == "p" else grad_source).values[where] = value
    if field == "p" and where == (0, 0):
        filled, _ = fill_ghost(p, problem.direction, grad_source)
        assert np.all(np.isfinite(filled.values))
        return
    with pytest.raises(apcore.DataError, match=f"^{field} has non-finite"):
        fill_ghost(p, problem.direction, grad_source)


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


def no_factor(*args, **kwargs):
    raise AssertionError("no system may be factored")


def mean_factor(problem):
    """The factor of the mean-potential system, as solve_linear_ap builds it."""
    return apcore._factor(problem, apcore.assemble(problem), "mean-potential")


def test_solve_L_skipped_at_eps_zero(monkeypatch):
    g = make_grid(UNIT, 8, 8)
    case = case_linear_variable(g, 0.0)
    with monkeypatch.context() as m:
        m.setattr(apcore, "_factor", no_factor)
        L, residual, cg_iterations = solve_L(case.problem, None)
    assert residual == 0.0 and cg_iterations == 0
    assert np.all(L.values == 0.0)


def test_solve_L_vanishes_when_sources_balance():
    g = make_grid(UNIT, 8, 8)
    problem = swirl_problem(g, 0.3, source=lambda x, y: np.sin(x) * np.cos(y))
    # prescribe b.S = dh(f/G) pointwise so the right-hand side cancels exactly
    ratio = NodeField(g, problem.source_node.values / problem.reaction_node.values)
    problem.grad_source_cell = CellField(g, apply_dh(ratio, problem.direction).values)
    L, rep, _ = solve_L(problem, mean_factor(problem))
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
    problem1 = sampled_problem(
        g, 0.2, reaction=ones, diffusivity=ones,
        direction=lambda x, y: (y / np.hypot(x, y), -x / np.hypot(x, y)),
        source=lambda x, y: np.zeros_like(x), grad_source=lambda x, y: np.zeros_like(x),
    )
    l = CellField.zeros(g)
    l.values[3, 3] = 1.0
    from apdiff.operators import apply_dh_star

    q1 = reconstruct_q(problem1, l)
    expected = apply_dh_star(l, problem1.direction)
    np.testing.assert_allclose(q1.values, expected.values, atol=1e-14)


def test_three_solves_match_dense_oracle():
    # every elliptic stage against a dense LU on a small grid
    g = make_grid(UNIT, 7, 7)
    case = case_linear_variable(g, 0.37)
    problem = case.problem
    dec = solve_linear_ap(problem)

    b = problem.direction.values
    a_mean = dense_second_order(g, b, problem.reaction_cell.values, problem.reaction_node.values)
    a_fluct = dense_second_order(g, b, problem.diffusivity_cell.values, problem.reaction_node.values)
    a_fluct += problem.eps * np.eye(g.nx * g.ny)

    ratio = NodeField(g, problem.source_node.values / problem.reaction_node.values)
    rhs_mean = apply_dh(ratio, problem.direction).values[INTERIOR].ravel()
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
    filled, report = fill_ghost(p, problem.direction, problem.grad_source_cell)
    assert report.constraint_defect <= 1e-12
    mask = ghost_ring(g)
    np.testing.assert_allclose(filled.values[mask], exact.values[mask], atol=1e-10)


def test_fill_ghost_constant():
    g = make_grid(UNIT, 8, 8)
    problem = swirl_problem(g, 0.2)
    p = NodeField.zeros(g)
    p.values[INTERIOR] = 2.5
    filled, report = fill_ghost(p, problem.direction, problem.grad_source_cell)
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
        filled, report = fill_ghost(p, case.problem.direction, case.problem.grad_source_cell)
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
    filled, _ = fill_ghost(p, case.problem.direction, case.problem.grad_source_cell)
    np.testing.assert_array_equal(filled.values[INTERIOR], before)


def ghost_fill_system(p, g, direction, grad_source):
    """The dense ghost-fill system, written out stencil by stencil.

    Returns ``(a, misfit, target)``: the row-equilibrated matrix, its
    right-hand side for the correction off the extrapolation, and the
    extrapolated ghost values, all in row-major ghost order.
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
    return a / scale[:, None], (rhs - a @ target) / scale, target


def svd_fill_spectrum(p, g, direction, grad_source):
    """The dense truncated-SVD fill in float64.

    Returns ``(ghost values in row-major order, rank, singular values)``, the
    singular values of the row-equilibrated system relative to the largest.
    """
    a, misfit, target = ghost_fill_system(p, g, direction, grad_source)
    u, sig, vt = np.linalg.svd(a, full_matrices=False)
    rank = int(np.sum(sig > 1e-6 * sig[0]))
    return target + vt[:rank].T @ ((u[:, :rank].T @ misfit) / sig[:rank]), rank, sig / sig[0]


def svd_fill_reference(p, g, direction, grad_source):
    """Ghost values of the dense truncated-SVD fill in row-major order, and its rank."""
    values, rank, _ = svd_fill_spectrum(p, g, direction, grad_source)
    return values, rank


# At 10 and 80 degrees the row-equilibrated ghost system has no spectral gap: its
# singular values decay through GHOST_RCOND, so the fill depends on the cutoff.
# An LSQR fill, which does not truncate, misses there by 0.26 and 0.35 of max |ghost|.
@pytest.mark.parametrize("kind, value", [("linear", 0.1), ("angle", 0), ("angle", 10),
                                         ("angle", 33), ("angle", 45), ("angle", 80),
                                         ("angle", 90)])
def test_fill_ghost_matches_svd_reference(kind, value):
    g = unit_square_grid(64)
    if kind == "linear":
        problem = case_linear_variable(g, value).problem
    else:
        problem = case_angle(g, 1e-3, math.radians(value)).problem
    p = solve_linear_ap(problem).p
    filled, report = fill_ghost(p, problem.direction, problem.grad_source_cell)
    want, rank = svd_fill_reference(p, g, problem.direction, problem.grad_source_cell)
    got = filled.values[ghost_ring(g)]
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert (report.rank, report.rank_deficient) == (rank, rank < want.size)
    assert report.n_unknowns == want.size


# Bounds: the worst deviation of a LAPACK gelsd fill from the dense SVD
# fill, over every integer angle at M16 (at 21 degrees) and over 3-5 and 85-87
# degrees at M64 (at 5 degrees).  Where a kept singular value is small the dense
# oracle itself is off by up to that much; elsewhere it is accurate to rounding.
ANGLE_SWEEP = ([(16, degrees, 1.6e-7) for degrees in range(91)]
               + [(64, degrees, 5.1e-9) for degrees in (3, 4, 5, 85, 86, 87)])
# Below this smallest kept singular value (relative) the float64 oracle's own
# rounding nears 1e-12: it is 9.8e-13 off at M16 9 degrees.  There the ghost
# system has one exact null direction, and the fill is held to the 40-digit
# truncated solve: it is within 4e-14 of it at every such angle of M16, and
# within 5.1e-13 at M64 (85 degrees).
NEAR_CUTOFF = 1e-2
EXACT_BOUND = {16: 1e-12, 64: 1e-11}


@pytest.mark.parametrize("cells, degrees, bound", ANGLE_SWEEP)
def test_fill_ghost_angle_sweep_against_svd_reference(cells, degrees, bound):
    g = unit_square_grid(cells)
    problem = case_angle(g, 1e-3, math.radians(degrees)).problem
    p = solve_linear_ap(problem).p
    filled, report = fill_ghost(p, problem.direction, problem.grad_source_cell)
    want, rank, sig = svd_fill_spectrum(p, g, problem.direction, problem.grad_source_cell)
    assert report.rank == rank
    assert report.deflated <= 3
    kept = sig[sig > GHOST_RCOND]
    got = filled.values[ghost_ring(g)]
    if kept.min() >= NEAR_CUTOFF:
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        return
    assert np.linalg.norm(got - want) <= bound * np.linalg.norm(want)
    a, misfit, target = ghost_fill_system(p, g, problem.direction, problem.grad_source_cell)
    exact = target + truncated_lstsq_40_digits(a, misfit, rank)
    assert np.linalg.norm(got - exact) <= EXACT_BOUND[cells] * np.linalg.norm(exact)


@pytest.mark.parametrize("cells", [16, 64, 400])
@pytest.mark.parametrize("case", [case_linear_variable, case_nonlinear])
def test_fill_ghost_deflates_few_directions(case, cells):
    g = unit_square_grid(cells)
    manufactured = case(g, 0.1)
    p = NodeField.zeros(g)
    p.values[INTERIOR] = manufactured.exact_field().values[INTERIOR]
    _, report = fill_ghost(p, manufactured.problem.direction, manufactured.problem.grad_source_cell)
    # two tangential corners, each with a singular value at rounding level
    assert report.deflated == 2
    assert report.rank == report.n_unknowns - 2


def test_fill_ghost_forms_no_dense_system():
    # one dense k x k float64 matrix of the M400 ghost system takes 20.6 MB; the
    # fill peaks at about 8 MB, a dense least-squares solve at 65 MB
    g = unit_square_grid(400)
    manufactured = case_linear_variable(g, 0.1)
    p = NodeField.zeros(g)
    p.values[INTERIOR] = manufactured.exact_field().values[INTERIOR]
    tracemalloc.start()
    try:
        _, report = fill_ghost(p, manufactured.problem.direction,
                               manufactured.problem.grad_source_cell)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < report.n_unknowns**2 * 8


def ghost_fill_data(g, seed):
    """A random p, unit direction field and grad_source on ``g``."""
    rng = np.random.default_rng(seed)
    angle = rng.uniform(0.0, 2.0 * np.pi, g.cell_shape)
    direction = CellVectorField(g, np.stack([np.cos(angle), np.sin(angle)], axis=-1))
    return (NodeField(g, rng.standard_normal(g.node_shape)), direction,
            CellField(g, rng.standard_normal(g.cell_shape)))


@pytest.mark.parametrize("shape", [(2, 2), (2, 9), (12, 12), (9, 17)])
@pytest.mark.parametrize("kind", ["random", "anti-diagonal", "axis"])
def test_ghost_layout_gathers_the_sparse_constructions_bitwise(kind, shape, monkeypatch):
    # the ghost system a fill solves and the matrix it factors, against
    # scipy.sparse.vstack and bmat on ring_dh's rows; anti-diagonal b holds
    # exact zeros
    g = make_grid(UNIT, *shape)
    p, direction, grad_source = ghost_fill_data(g, 3)
    if kind != "random":
        vector = (0.6, -0.6) if kind == "anti-diagonal" else (1.0, 0.0)
        direction = uniform_direction(g, *vector)
    solved = []
    truncated_solve = apcore._truncated_solve

    def recorded(a, rhs):
        solved.append(a.copy())
        return truncated_solve(a, rhs)

    monkeypatch.setattr(apcore, "_truncated_solve", recorded)
    fill_ghost(p, direction, grad_source)
    ring, dh_ring = ring_dh(direction)
    ghosts, _ = ghost_extrapolation(g)
    sx, sy = g.node_shape
    corners = np.searchsorted(ghosts, [0, sy - 1, (sx - 1) * sy, sx * sy - 1])
    corner_rows = scipy.sparse.csr_matrix((np.ones(4), (np.arange(4), corners)),
                                          shape=(4, ghosts.size))
    want = scipy.sparse.vstack([dh_ring[:, ghosts], corner_rows], format="csr")
    want.data /= np.repeat(spla.norm(want, axis=1), np.diff(want.indptr))
    [a] = solved
    assert_bitwise(a, want)
    shift = 1e-9 * scipy.sparse.identity(ghosts.size)
    assert_bitwise(apcore._augmented(want, 1e-9),
                   scipy.sparse.bmat([[-shift, want], [want.T, -shift]], format="csc"))


@pytest.mark.parametrize("block", [2, 8, 10**6])
def test_fill_ghost_block_doubling_and_dense_svd(block, monkeypatch):
    # block 2 cannot hold the two small values: it doubles twice, to the default
    # width 8; a block of at least twice the unknowns is the dense SVD at once.
    # At every width the fill factors one matrix, the shifted system, whose LU
    # also solves the bulk
    g = unit_square_grid(64)
    problem = case_linear_variable(g, 0.1).problem
    p = solve_linear_ap(problem).p
    default, default_report = fill_ghost(p, problem.direction, problem.grad_source_cell)
    factored = []
    splu = apcore.spla.splu

    def counted(*args, **kwargs):
        factored.append(1)
        return splu(*args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(apcore, "GHOST_BLOCK", block)
        m.setattr(apcore.spla, "splu", counted)
        filled, report = fill_ghost(p, problem.direction, problem.grad_source_cell)
    assert len(factored) == 1
    assert default_report.deflated == 2
    assert (report.rank, report.deflated) == (default_report.rank, default_report.deflated)
    want, rank = svd_fill_reference(p, g, problem.direction, problem.grad_source_cell)
    got = filled.values[ghost_ring(g)]
    assert report.rank == rank
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
    assert np.linalg.norm(got - default.values[ghost_ring(g)]) <= 1e-12 * np.linalg.norm(want)


def test_fill_ghost_bulk_solve_is_robust_to_the_shift(monkeypatch):
    # M100 at 5 degrees deflates 5.45e-9 (and one value at rounding level); with
    # the shift sigma 1e-6 relative off that value the bulk solve still meets
    # the default fill.  A shift exactly on a deflated value is not covered: the
    # shifted system is then singular along that direction, and the solve
    # amplifies the rounding left after the projection by 1/|s - sigma|
    g = unit_square_grid(100)
    problem = case_angle(g, 1e-3, math.radians(5)).problem
    p = solve_linear_ap(problem).p
    found = []
    triplets = apcore._small_singular_triplets

    def recorded(a):
        found.append(triplets(a))
        return found[-1]

    with monkeypatch.context() as m:
        m.setattr(apcore, "_small_singular_triplets", recorded)
        default, default_report = fill_ghost(p, problem.direction, problem.grad_source_cell)
    [(_, deflated, _, _)] = found
    assert deflated[0] == pytest.approx(5.45e-9, rel=1e-3)
    monkeypatch.setattr(apcore, "_GHOST_SHIFT", deflated[0] * (1 + 1e-6) / apcore._GHOST_SIGMA_MAX)
    filled, report = fill_ghost(p, problem.direction, problem.grad_source_cell)
    assert (report.rank, report.deflated) == (default_report.rank, default_report.deflated)
    want = default.values[ghost_ring(g)]
    assert np.linalg.norm(filled.values[ghost_ring(g)] - want) <= 1e-12 * np.linalg.norm(want)


def test_fill_ghost_stops_the_inverse_iteration_once_converged(monkeypatch):
    # at 30 degrees the small triplets reach their 12-step residual within 2
    # steps, so the iteration stops at its first test; it ran 12 steps before
    g = unit_square_grid(100)
    problem = case_angle(g, 1e-3, math.radians(30)).problem
    p = solve_linear_ap(problem).p
    block_solves = []
    splu = apcore.spla.splu

    class Counted:
        def __init__(self, lu):
            self._lu = lu

        def solve(self, rhs):
            if rhs.ndim == 2:
                block_solves.append(rhs.shape[1])
            return self._lu.solve(rhs)

    monkeypatch.setattr(apcore.spla, "splu", lambda *args, **kw: Counted(splu(*args, **kw)))
    _, report = fill_ghost(p, problem.direction, problem.grad_source_cell)
    assert report.deflated == 2
    assert 1 <= len(block_solves) <= 4


# M100 at 88 degrees keeps a value near the cutoff and stops at step 6; M16 at
# 21 degrees stops at step 3
@pytest.mark.parametrize("cells, degrees", [(100, 88), (16, 21)])
def test_fill_ghost_early_stop_meets_the_capped_iteration(cells, degrees, monkeypatch):
    g = unit_square_grid(cells)
    problem = case_angle(g, 1e-3, math.radians(degrees)).problem
    p = solve_linear_ap(problem).p
    filled, report = fill_ghost(p, problem.direction, problem.grad_source_cell)
    monkeypatch.setattr(apcore, "_GHOST_CHECKS", apcore._GHOST_CHECKS[-1:])
    capped, capped_report = fill_ghost(p, problem.direction, problem.grad_source_cell)
    assert (report.rank, report.deflated) == (capped_report.rank, capped_report.deflated)
    want = capped.values[ghost_ring(g)]
    assert np.linalg.norm(filled.values[ghost_ring(g)] - want) <= 1e-13 * np.linalg.norm(want)


@st.composite
def random_ghost_data(draw):
    """A small square or non-square grid, a random unit direction field and random data."""
    nx = draw(st.integers(2, 14))
    ny = nx if draw(st.booleans()) else draw(st.integers(2, 14).filter(lambda n: n != nx))
    g = make_grid(UNIT, nx, ny)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    angle = rng.uniform(0.0, 2.0 * np.pi, g.cell_shape)
    direction = CellVectorField(g, np.stack([np.cos(angle), np.sin(angle)], axis=-1))
    p = NodeField(g, rng.standard_normal(g.node_shape))
    return p, direction, CellField(g, rng.standard_normal(g.cell_shape))


@settings(max_examples=40, deadline=None)
@given(random_ghost_data())
def test_fill_ghost_random_directions_property(drawn):
    p, direction, grad_source = drawn
    before = p.values.copy()
    filled, report = fill_ghost(p, direction, grad_source)
    again, again_report = fill_ghost(p, direction, grad_source)
    np.testing.assert_array_equal(p.values, before)
    np.testing.assert_array_equal(filled.values[INTERIOR], before[INTERIOR])
    assert np.array_equal(filled.values, again.values) and report == again_report
    _, rank, sig = svd_fill_spectrum(p, p.grid, direction, grad_source)
    if not np.any((sig > 0.5 * GHOST_RCOND) & (sig < 2.0 * GHOST_RCOND)):
        assert report.rank == rank


# the unit roundoff of float64
UNIT_ROUNDOFF = np.finfo(float).eps / 2


@settings(max_examples=40, deadline=None)
@given(random_ghost_data())
def test_ghost_system_largest_singular_value_is_at_most_sqrt2(drawn):
    # each column holds two entries and each row has norm at most 1 (the corner
    # rows exactly 1), so 1 <= sigma_max <= sqrt(2)
    p, direction, grad_source = drawn
    a, _, _ = ghost_fill_system(p, p.grid, direction, grad_source)
    assert 1.0 <= np.linalg.norm(a, 2) <= math.sqrt(2) * (1 + 4 * UNIT_ROUNDOFF)


@pytest.mark.parametrize("kind, cells, degrees", [
    *[("angle", cells, degrees) for cells in (16, 64) for degrees in range(0, 91, 5)],
    *[(kind, cells, None) for kind in ("linear", "nonlinear") for cells in (16, 64, 100)]])
def test_ghost_system_reaches_sqrt2_on_the_study_cases(kind, cells, degrees):
    # the fill takes sqrt(2) for the largest singular value (apcore._GHOST_SIGMA_MAX)
    g = unit_square_grid(cells)
    if kind == "angle":
        problem = case_angle(g, 1e-3, math.radians(degrees)).problem
    else:
        case = case_linear_variable if kind == "linear" else case_nonlinear
        problem = case(g, 0.1).problem
    a, _, _ = ghost_fill_system(NodeField.zeros(g), g, problem.direction, problem.grad_source_cell)
    assert np.linalg.norm(a, 2) == pytest.approx(apcore._GHOST_SIGMA_MAX, rel=1e-15, abs=0.0)


def test_residuals_reported():
    g = make_grid(UNIT, 10, 10)
    case = case_linear_variable(g, 0.5)
    dec = solve_linear_ap(case.problem)
    assert set(dec.residuals) == {"h", "L", "l"}
    assert all(r <= 1e-12 for r in dec.residuals.values())


class ColamdFactor:
    """Oracle: the factorization in COLAMD column order, in place of the band or nested dissection."""

    def __init__(self, matrix, *_):
        self.matrix = matrix.tocsr()
        self._lu = spla.splu(self.matrix.tocsc(), permc_spec="COLAMD")

    def lu_solve(self, rhs):
        return self._lu.solve(rhs)


def pinned_problem(kind, value, cells=64):
    """``linear-variable`` at eps ``value``, or ``angle`` at eps 1e-3 and ``value`` degrees.

    0 and 90 degrees are the axis-aligned directions.
    """
    g = unit_square_grid(cells)
    if kind == "linear":
        return case_linear_variable(g, value).problem
    return case_angle(g, 1e-3, math.radians(value)).problem


def assert_same_decomposition(dec, oracle):
    """h, L, l, pi, q and p agree within 1e-10 relative on the interior."""
    for name in ("h", "L", "l", "pi", "q", "p"):
        got = getattr(dec, name).values[INTERIOR]
        want = getattr(oracle, name).values[INTERIOR]
        assert np.linalg.norm(got - want) <= 1e-10 * max(np.linalg.norm(want), 1e-300), name


@pytest.mark.parametrize(
    "kind, value",
    [("linear", 0.1), ("linear", 1e-3), ("linear", 0.0), ("angle", 0), ("angle", 45), ("angle", 90)],
)
def test_nested_dissection_matches_colamd_oracle(kind, value, monkeypatch):
    problem = pinned_problem(kind, value)
    config = SolverConfig()
    for factor_class in each_factor_path(monkeypatch):
        dec = solve_linear_ap(problem, config)
        with monkeypatch.context() as m:
            m.setattr(apcore, factor_class.__name__, ColamdFactor)
            oracle = solve_linear_ap(problem, config)
        assert all(r <= config.tol for r in dec.residuals.values())
        assert_same_decomposition(dec, oracle)


def band_oracle(matrix, gc, ny):
    """Lower band of ``(S + S^T) / 2``, ``S = A diag(1 / gc)``, by sparse arithmetic, placed entry by entry."""
    s = matrix.tocoo()
    s.data = s.data / gc[s.col]
    sym = ((s + s.T) * 0.5).tocoo()
    lower = sym.row >= sym.col
    band = np.zeros((ny + 2, matrix.shape[0]))
    band[sym.row[lower] - sym.col[lower], sym.col[lower]] = sym.data[lower]
    return band


def system_oracle(matrix, problem, factor_class):
    """The form ``factor_class`` builds from the CSR ``matrix`` to factor it.

    The band by :func:`band_oracle`, the nested-dissection copy by fancy indexing.
    """
    g = problem.grid
    if factor_class is BandFactor:
        return band_oracle(matrix, problem.reaction_cell.values[INTERIOR].ravel(), g.ny)
    perm = nested_dissection(g.nx, g.ny)
    return matrix[perm][:, perm].tocsc()


def probe_oracle(problem):
    """A probed from its operator, as natural-order CSR."""
    g = problem.grid
    return assemble(apcore._cell_operator(problem), (g.nx, g.ny))


def built_forms(monkeypatch):
    """The list that every later form a band or SuperLU factor builds is copied to.

    A copy: the band factor overwrites its band.
    """
    forms = []
    for name in ("symmetric_band", "factor_order"):
        def recorded(*args, build=getattr(linsolve, name)):
            form = build(*args)
            forms.append(form.copy(order="K") if isinstance(form, np.ndarray) else form.copy())
            return form

        monkeypatch.setattr(linsolve, name, recorded)
    return forms


def assert_bitwise(got, want):
    """Same format, shape and index arrays, and data equal bit for bit (signed zeros too).

    A dense band need only equal its oracle's values, in Fortran order.
    """
    assert type(got) is type(want) and got.shape == want.shape
    if isinstance(got, np.ndarray):
        assert got.flags.f_contiguous or got.ndim == 1
        np.testing.assert_array_equal(got, want)
        return
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def linearized(case, grid):
    """The first Gummel linearization of a nonlinear manufactured case."""
    return linearize(case.problem, sample_node(case.initial_guess, grid))


BUILDER_CASES = {
    "linear-0.1": lambda g: case_linear_variable(g, 0.1).problem,
    "linear-0": lambda g: case_linear_variable(g, 0.0).problem,
    "angle-0": lambda g: case_angle(g, 1e-3, 0.0).problem,
    "angle-33": lambda g: case_angle(g, 1e-3, math.radians(33)).problem,
    "angle-45": lambda g: case_angle(g, 1e-3, math.radians(45)).problem,
    "angle-90": lambda g: case_angle(g, 1e-3, math.radians(90)).problem,
    "nonlinear": lambda g: linearized(case_nonlinear(g, 0.1), g),
    "ap-limit": lambda g: linearized(case_ap_limit(g, 1e-3), g),
    "swirl": lambda g: swirl_problem(g, 0.1),
    # b parallel to (dx, -dy) where dx = dy: a probe's dh* sums cancel to zeros
    # at two of its nodes, and two thirds of the entries are signed zeros
    "anti-diagonal": lambda g: dataclasses.replace(swirl_problem(g, 0.1),
                                                   direction=uniform_direction(g, 0.6, -0.6)),
}


@pytest.mark.parametrize("name", list(BUILDER_CASES))
@pytest.mark.parametrize("shape", [(16, 16), (7, 12), (3, 2)])
def test_assemble_equals_the_probe_bitwise(name, shape, monkeypatch):
    # A itself, and the band or nested-dissection copy its factor builds
    g = make_grid(UNIT, *shape)
    problem = BUILDER_CASES[name](g)
    for factor_class in each_factor_path(monkeypatch):
        matrix = apcore.assemble(problem)
        assert_bitwise(matrix, probe_oracle(problem))
        with monkeypatch.context() as m:
            forms = built_forms(m)
            assert type(mean_factor(problem)) is factor_class
        assert len(forms) == 1
        assert_bitwise(forms[0], system_oracle(matrix, problem, factor_class))


def test_assemble_equals_the_probe_on_clamped_slopes(monkeypatch):
    # a Gummel linearization whose slope 6 p^5 is clamped to 1e-12 where p < 0
    g = make_grid(UNIT, 16, 16)
    case = case_nonlinear(g, 0.1)
    with pytest.warns(RuntimeWarning, match="clamped"):
        problem = linearize(case.problem, sample_node(lambda x, y: x - 1.5 + 0.0 * y, g))
    assert np.any(problem.reaction_node.values == 1e-12)
    for factor_class in each_factor_path(monkeypatch):
        matrix = apcore.assemble(problem)
        assert_bitwise(matrix, probe_oracle(problem))
        with monkeypatch.context() as m:
            forms = built_forms(m)
            mean_factor(problem)
        assert_bitwise(forms[0], system_oracle(matrix, problem, factor_class))


def test_assemble_shares_read_only_grid_structure(monkeypatch):
    g = make_grid(UNIT, 9, 6)
    for factor_class in each_factor_path(monkeypatch):
        first = apcore.assemble(swirl_problem(g, 0.1))
        second = apcore.assemble(case_linear_variable(g, 0.1).problem)
        assert np.shares_memory(first.indices, second.indices)
        assert np.shares_memory(first.indptr, second.indptr)
        assert not first.indices.flags.writeable and first.indices.dtype == np.int32
        if factor_class is DirectFactor:
            # the nested-dissection copy is int32 too, and not kept once factored
            copies = []

            def ordered(*args):
                copies.append(factor_order(*args))
                return copies[-1]

            with monkeypatch.context() as m:
                m.setattr(linsolve, "factor_order", ordered)
                factor = apcore._factor(swirl_problem(g, 0.1), first, "mean-potential")
            assert copies[0].indices.dtype == np.int32 and factor.matrix is first
            copy = weakref.ref(copies.pop())
            assert copy() is None


def test_assemble_check_raises_on_a_wrong_matrix(monkeypatch):
    # the random probe still checks the matrix: a stencil off by one weight raises
    g = make_grid(UNIT, 6, 6)
    real = apcore.second_order_stencil

    def off(*args):
        planes = real(*args)
        planes[4, 2, 3] *= 1.0 + 1e-9
        return planes

    monkeypatch.setattr(apcore, "second_order_stencil", off)
    with pytest.raises(AssemblyError):
        apcore.assemble(swirl_problem(g, 0.1))


@pytest.mark.parametrize("eps", [100.0, 1000.0])
def test_flux_fallback_system_equals_the_probe_bitwise(eps, monkeypatch):
    # A + diag(eps G/H) as the fallback factors it: the probed A with the
    # diagonal added in place, in A's structure, and the band or
    # nested-dissection copy its factor builds from that
    problem = pinned_problem("linear", eps, cells=16)
    gc = problem.reaction_cell.values[INTERIOR].ravel()
    hc = problem.diffusivity_cell.values[INTERIOR].ravel()
    real_factor, real_stencil = apcore._factor, apcore.second_order_stencil

    def recorded(problem, matrix, stage):
        systems.append((stage, matrix.copy()))
        return real_factor(problem, matrix, stage)

    monkeypatch.setattr(apcore, "_factor", recorded)
    monkeypatch.setattr(apcore, "second_order_stencil",
                        lambda *args: stencils.append(1) or real_stencil(*args))
    for factor_class in each_factor_path(monkeypatch):
        systems, stencils = [], []
        with monkeypatch.context() as m:
            forms = built_forms(m)
            dec = solve_linear_ap(problem)
        assert dec.cg_iterations is None and [s for s, _ in systems] == ["mean-potential",
                                                                          "flux-potential"]
        # the fallback builds on A's matrix: the stencil is evaluated once
        assert len(stencils) == 1
        want = probe_oracle(problem)
        rows = np.repeat(np.arange(want.shape[0]), np.diff(want.indptr))
        want.data[want.indices == rows] += eps * gc / hc
        assert_bitwise(systems[1][1], want)
        assert_bitwise(forms[1], system_oracle(want, problem, factor_class))


class ShiftedBandFactor:
    """Oracle: the L fallback as a band with ``eps/H`` added to A's band after the division by G.

    The fallback's band of ``S + diag(eps/H)`` as it was built before the
    diagonal went into a copy of A's matrix, factored by the same LAPACK
    routines as :class:`linsolve.BandFactor`.
    """

    def __init__(self, problem, matrix):
        gc = problem.reaction_cell.values[INTERIOR].ravel()
        hc = problem.diffusivity_cell.values[INTERIOR].ravel()
        band = band_oracle(probe_oracle(problem), gc, problem.grid.ny)
        band[0] += problem.eps * gc / hc / gc
        self.matrix = matrix
        self._cholesky = scipy.linalg.cholesky_banded(band, lower=True)
        self._gc = gc

    def lu_solve(self, rhs):
        return scipy.linalg.cho_solve_banded((self._cholesky, True), rhs) / self._gc


@pytest.mark.parametrize(
    "kind, value",
    [("linear", 0.1), ("linear", 1e-3), ("linear", 0.0), ("angle", 0), ("angle", 45), ("angle", 90),
     ("linear", 100.0), ("linear", 1000.0)],
)
def test_solution_equals_the_probe_built_solution(kind, value, monkeypatch):
    # bit for bit, unless the L fallback runs: then within 1e-12 of the
    # fallback that adds the diagonal to A's band (measured: 2.8e-15)
    problem = pinned_problem(kind, value)
    real_factor = apcore._factor
    for factor_class in each_factor_path(monkeypatch):
        dec = solve_linear_ap(problem)
        with monkeypatch.context() as m:
            m.setattr(apcore, "assemble", probe_oracle)
            if factor_class is BandFactor:
                m.setattr(apcore, "_factor", lambda problem, matrix, stage: (
                    ShiftedBandFactor(problem, matrix) if stage == "flux-potential"
                    else real_factor(problem, matrix, stage)))
            oracle = solve_linear_ap(problem)
        for name in ("h", "L", "l", "pi", "q", "p"):
            got, want = getattr(dec, name).values, getattr(oracle, name).values
            if dec.cg_iterations is None:
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), name
            else:
                np.testing.assert_array_equal(got, want)
        assert dec.cg_iterations == oracle.cg_iterations
        assert dec.cg_iterations is None or dec.residuals == oracle.residuals


def flux_operator(problem):
    """The flux-potential operator in L: ``-dh((1/G) dh*(H chi)) + eps chi`` on interior cells."""
    g = problem.grid

    def op(v):
        chi = CellField.zeros(g)
        chi.values[INTERIOR] = v
        out = compose_second_order(chi, problem.diffusivity_cell, problem.reaction_node,
                                   problem.direction)
        return out.values[INTERIOR] + problem.eps * v

    return op


def flux_system(problem):
    """The probe-assembled flux-potential matrix and its right-hand side."""
    g = problem.grid
    b = problem.direction
    op = flux_operator(problem)
    ratio = NodeField(g, problem.source_node.values / problem.reaction_node.values)
    rhs = -problem.eps * (apply_dh(ratio, b).values[INTERIOR]
                          - problem.grad_source_cell.values[INTERIOR])
    return assemble(op, (g.nx, g.ny)), rhs.ravel()


def direct_solve_L(problem, mean_factor, config=None, rhs_mean=None):
    """Oracle: the flux-potential system assembled and factored on its own."""
    config = config or SolverConfig()
    g = problem.grid
    L = CellField.zeros(g)
    if problem.eps == 0.0:
        return L, 0.0, None
    matrix, rhs = flux_system(problem)
    order = nested_dissection(g.nx, g.ny)
    factor = DirectFactor(matrix, order)
    x, residual = refine(matrix, factor.lu_solve, rhs, config.tol)
    L.values[INTERIOR] = x.reshape(g.nx, g.ny)
    return L, residual, None


@pytest.mark.parametrize(
    "kind, value",
    [("linear", 1.0), ("linear", 0.1), ("linear", 1e-3), ("linear", 0.0),
     ("angle", 0), ("angle", 45), ("angle", 90)],
)
def test_cg_flux_solve_matches_direct_path(kind, value, monkeypatch):
    problem = pinned_problem(kind, value)
    config = SolverConfig()
    dec = solve_linear_ap(problem, config)
    with monkeypatch.context() as m:
        m.setattr(apcore, "solve_L", direct_solve_L)
        oracle = solve_linear_ap(problem, config)
    assert dec.cg_iterations is not None  # no fallback
    # one CG step each for h and l, and those of L unless eps = 0
    assert (dec.cg_iterations > 2) == (problem.eps > 0.0)
    assert all(r <= config.tol for r in dec.residuals.values())
    assert_same_decomposition(dec, oracle)
    if problem.eps > 0.0:
        # the residual gate as measured on the assembled system
        matrix, rhs = flux_system(problem)
        L = dec.L.values[INTERIOR].ravel()
        assert np.linalg.norm(matrix @ L - rhs) <= config.tol * np.linalg.norm(rhs)


@pytest.mark.parametrize("eps, factorizations, cg_ran", [(0.1, 1, True), (0.0, 1, True),
                                                          (100.0, 2, False)])
def test_one_factorization_unless_cg_falls_back(eps, factorizations, cg_ran, monkeypatch):
    # at eps 100, 30 CG steps reach only about 1e-9: the L system is factored
    problem = pinned_problem("linear", eps, cells=32)
    for factor_class in each_factor_path(monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(apcore, "solve_L", direct_solve_L)
            oracle = solve_linear_ap(problem)
        built = []

        class CountingFactor(factor_class):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self.matrix.shape)

        with monkeypatch.context() as m:
            m.setattr(apcore, factor_class.__name__, CountingFactor)
            dec = solve_linear_ap(problem)
        assert len(built) == factorizations
        assert (dec.cg_iterations is not None) == cg_ran
        assert all(r <= SolverConfig().tol for r in dec.residuals.values())
        assert_same_decomposition(dec, oracle)


@pytest.mark.parametrize(
    "kind, value, lu_solves",
    [("linear", 0.1, 8), ("linear", 1e-3, 6), ("linear", 0.0, 2), ("linear", 1.0, 11),
     ("linear", 10.0, 20), ("angle", 0, 8), ("angle", 21, 6), ("angle", 45, 6), ("angle", 90, 8)],
)
def test_new_factor_solve_costs_the_L_steps_plus_two(kind, value, lu_solves, monkeypatch):
    # on a new factor h and l take one CG step each, one lu_solve apiece
    problem = pinned_problem(kind, value)
    for _ in each_factor_path(monkeypatch):
        _, _, L_steps = solve_L(problem, mean_factor(problem))
        calls = count_lu_solves(monkeypatch)
        dec = solve_linear_ap(problem)
        assert len(calls) == dec.cg_iterations == L_steps + 2 == lu_solves


@pytest.mark.parametrize("cells", [16, 64])
@pytest.mark.parametrize(
    "kind, value",
    [("linear", 0.1), ("linear", 1e-3), ("linear", 0.0), ("linear", 1.0), ("linear", 10.0),
     ("angle", 0), ("angle", 21), ("angle", 45), ("angle", 90)],
)
def test_band_and_superlu_solves_agree(kind, value, cells, monkeypatch):
    # measured: at most 8.1e-12 relative (h at M64, 0 degrees), 2.4e-14 at M16;
    # both take the same CG steps
    problem = pinned_problem(kind, value, cells)
    band, superlu = (solve_linear_ap(problem) for _ in each_factor_path(monkeypatch))
    assert_same_decomposition(band, superlu)
    assert band.cg_iterations == superlu.cg_iterations
    assert all(r <= SolverConfig().tol for r in band.residuals.values())


@pytest.mark.parametrize("cells, factor_class", [(100, BandFactor), (200, DirectFactor)])
def test_factor_path_follows_the_grid_width(cells, factor_class):
    problem = pinned_problem("linear", 0.1, cells)
    assert problem.grid.ny == cells - 1
    assert type(mean_factor(problem)) is factor_class


def test_flux_fallback_factors_the_cg_operator_without_assembling(monkeypatch):
    # at eps 100 CG misses the tolerance: the fallback factors A + diag(eps G/H)
    # from the assembled mean matrix, so only the mean system is assembled
    problem = pinned_problem("linear", 100.0, cells=32)
    config = SolverConfig()
    matrix, rhs = flux_system(problem)
    real_assemble = apcore.assemble
    for _ in each_factor_path(monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(apcore, "solve_L", direct_solve_L)
            oracle = solve_linear_ap(problem, config)
        built = []
        with monkeypatch.context() as m:
            m.setattr(apcore, "assemble", lambda p: built.append(p) or real_assemble(p))
            dec = solve_linear_ap(problem, config)
        assert built == [problem]
        assert dec.cg_iterations is None  # the fallback ran
        assert dec.residuals["L"] <= config.tol
        # the residual gate as measured on the probe-assembled system in L
        L = dec.L.values[INTERIOR].ravel()
        assert np.linalg.norm(matrix @ L - rhs) <= config.tol * np.linalg.norm(rhs)
        assert_same_decomposition(dec, oracle)


def singular_mean_operator(g, cell):
    """The mean-potential operator with one cell's row and column zeroed."""
    problem = swirl_problem(g, 0.1)
    base = apcore._cell_operator(problem)

    def op(v):
        v = v.copy()
        v[cell] = 0.0
        out = base(v)
        out[cell] = 0.0
        return out

    return op


@pytest.mark.parametrize("solver, stage", [("solve_linear_ap", "mean-potential"),
                                           ("solve_linear_ap", "fluctuation-potential"),
                                           ("solve_L", "flux-potential"),
                                           ("solve_p", "sum-potential")])
def test_new_factor_miss_raises_naming_the_stage(solver, stage, monkeypatch):
    # every CG run of the stage misses: the one on the held factor, then the
    # one on the system's own factor, which raises naming the stage; in
    # solve_linear_ap only the h stage, or only the l stage, misses, and the
    # one run on A's factor raises, since A's factor is that system's own
    problem = pinned_problem("linear", 0.1, cells=16)
    held = apcore.HeldFactor()
    solve_p(problem, held)
    factor = mean_factor(problem)
    dec = solve_linear_ap(problem)
    stage_rhs = {"mean-potential": apcore._rhs_mean(problem).values[INTERIOR],
                 "fluctuation-potential": (dec.L.values[INTERIOR]
                                           - problem.grad_source_cell.values[INTERIOR])}
    real_cg = apcore._cg
    runs, passed = [], []

    def missing_cg(apply, gc, factor, rhs, tol):
        if solver == "solve_linear_ap" and not np.array_equal(rhs, stage_rhs[stage].ravel()):
            passed.append((rhs, factor))
            return real_cg(apply, gc, factor, rhs, tol)
        runs.append(factor)
        return np.zeros_like(rhs), 1.0, 1

    monkeypatch.setattr(apcore, "_cg", missing_cg)
    with pytest.raises(StageError, match=f"{stage} solve failed"):
        if solver == "solve_linear_ap":
            solve_linear_ap(problem)
        elif solver == "solve_L":
            solve_L(problem, factor)
        else:
            solve_p(problem, held)
    if solver != "solve_linear_ap":
        assert len(runs) == 2 and runs[0] is not runs[1]
        return
    # L, and for the l stage h, ran on A's factor and passed
    assert len(runs) == 1 and all(factor is runs[0] for _, factor in passed)
    if stage == "fluctuation-potential":
        assert len(passed) == 2
        assert np.array_equal(passed[1][0], stage_rhs["mean-potential"].ravel())


def test_no_factor_outlives_the_flux_fallback(monkeypatch):
    # at eps 1000 the L stage misses on A's factor and factors its own system;
    # neither factor is alive once the solve returns
    problem = pinned_problem("linear", 1000.0, cells=32)
    real_factor = apcore._factor

    def recorded(*args):
        factor = real_factor(*args)
        refs.append(weakref.ref(factor))
        return factor

    monkeypatch.setattr(apcore, "_factor", recorded)
    for _ in each_factor_path(monkeypatch):
        refs = []
        dec = solve_linear_ap(problem)
        gc.collect()
        assert dec.cg_iterations is None and len(refs) == 2
        assert all(ref() is None for ref in refs)


def test_one_step_stop_reads_the_true_residual():
    # at 440 squares per side the recursive residual after step 1 of the l
    # stage passed the tolerance while the true one read 1.004e-12, and the
    # solve raised; on the true residual CG takes the step it needs
    case = case_linear_variable(unit_square_grid(440), 0.1)
    dec = solve_linear_ap(case.problem)
    assert max(dec.residuals.values()) <= SolverConfig().tol


def test_gauge_shift_failure_names_stage(monkeypatch):
    # no gauge shift is tried: the zero matrix fails on its first
    # factorization, as a band and by SuperLU
    g = make_grid(UNIT, 8, 8)
    problem = swirl_problem(g, 0.1)
    zero = stencil_matrix(np.zeros((9, g.nx, g.ny)))
    for _ in each_factor_path(monkeypatch):
        with pytest.raises(StageError, match="flux-potential factorization failed"):
            apcore._factor(problem, zero, "flux-potential")


def test_singular_factor_names_stage(monkeypatch):
    # the one-cell-zeroed mean matrix is exactly singular and raises naming
    # its stage, as a band and by SuperLU
    g = make_grid(UNIT, 8, 8)
    problem = swirl_problem(g, 0.1)
    for _ in each_factor_path(monkeypatch):
        singular = assemble(singular_mean_operator(g, (3, 4)), (g.nx, g.ny))
        with pytest.raises(StageError, match="mean-potential factorization failed"):
            apcore._factor(problem, singular, "mean-potential")


def scipy_cg_solve_L(problem, factor, tol=1e-12):
    """The flux-potential CG as ``scipy.sparse.linalg.cg`` runs it: ``(L values, steps)``.

    Same operator, preconditioner, step cap and ``1e-3 tol`` stopping rule
    as :func:`solve_L`, without its early give-up.
    """
    g = problem.grid
    _, rhs = flux_system(problem)
    gc = problem.reaction_cell.values[INTERIOR].ravel()
    hc = problem.diffusivity_cell.values[INTERIOR].ravel()
    shape = (rhs.size, rhs.size)
    steps = []
    y, _ = spla.cg(
        spla.LinearOperator(shape, lambda y: factor.matrix @ (y / gc) + problem.eps * y / hc,
                            dtype=float),
        rhs, rtol=1e-3 * tol, atol=0.0, maxiter=apcore.FLUX_CG_MAX_STEPS,
        M=spla.LinearOperator(shape, lambda r: gc * factor.lu_solve(r), dtype=float),
        callback=steps.append)
    return (y / hc).reshape(g.nx, g.ny), len(steps)


@pytest.mark.parametrize("eps", [1e-3, 0.1, 1.0, 3.0, 10.0])
def test_flux_cg_takes_the_steps_of_scipy_cg(eps):
    # the shared CG helper repeats scipy's recurrence, run in x = y/G: the
    # same steps, and the same values up to rounding
    problem = pinned_problem("linear", eps)
    factor = mean_factor(problem)
    L, residual, cg_iterations = solve_L(problem, factor)
    L_ref, steps_ref = scipy_cg_solve_L(problem, factor)
    assert cg_iterations == steps_ref < apcore.FLUX_CG_MAX_STEPS
    assert residual <= 1e-12
    assert np.linalg.norm(L.values[INTERIOR] - L_ref) <= 1e-13 * np.linalg.norm(L_ref)


@pytest.mark.parametrize("eps", [100.0, 1000.0])
def test_flux_cg_gives_up_early_before_the_fallback(eps):
    # 30 steps would leave CG at 3e-9 (eps 100) or 1e-3 (eps 1000); the
    # contraction of its first steps shows that, so it falls back at once
    problem = pinned_problem("linear", eps)
    factor = mean_factor(problem)
    applications = []
    lu_solve = factor.lu_solve
    factor.lu_solve = lambda r: applications.append(1) or lu_solve(r)
    L, residual, cg_iterations = solve_L(problem, factor)
    assert cg_iterations is None  # the fallback ran
    assert len(applications) <= 10
    assert residual <= 1e-12
    L_ref, _, _ = direct_solve_L(problem, None)
    want = L_ref.values[INTERIOR]
    assert np.linalg.norm(L.values[INTERIOR] - want) <= 1e-10 * np.linalg.norm(want)


def nearby_problem(problem, scale):
    """``problem`` with its reaction coefficient multiplied by ``1 + scale * bump``."""
    g = problem.grid
    bump = lambda x, y: np.sin(3 * x) * np.cos(2 * y)
    factor_node = 1.0 + scale * sample_node(bump, g).values
    factor_cell = 1.0 + scale * sample_cell(bump, g).values
    return dataclasses.replace(
        problem, reaction_node=NodeField(g, problem.reaction_node.values * factor_node),
        reaction_cell=CellField(g, problem.reaction_cell.values * factor_cell))


@contextlib.contextmanager
def nothing_factored(monkeypatch):
    """Fail any assembly or factorization of a cell system inside the block."""
    with monkeypatch.context() as m:
        for name in ("assemble", "BandFactor", "DirectFactor"):
            m.setattr(apcore, name, no_factor)
        yield


def assert_same_p(p, want):
    """Interior ``p`` within 1e-12 relative of ``want``."""
    got, want = p.values[INTERIOR], want.values[INTERIOR]
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("kind", ["linear", "linearized"])
@pytest.mark.parametrize("eps", [0.0, 1e-9, 1e-3, 0.1, 10.0, 1000.0])
def test_one_stage_p_equals_the_decomposition_p(eps, kind, monkeypatch):
    # s = h + l solves (A + diag(eps G/H)) s = dh(f/G) - b.S, and
    # p = (f + dh*(G s)) / G; measured: at most 1.1e-16 relative.  The
    # system itself is factored, so its stage takes one CG step at every
    # eps.  The b.S of linear-variable rounds to zero; the first Gummel
    # linearization of nonlinear-spline has one of order 1.
    if kind == "linear":
        problem = pinned_problem("linear", eps)
    else:
        g = unit_square_grid(64)
        problem = linearized(case_nonlinear(g, eps), g)
        assert np.abs(problem.grad_source_cell.values[INTERIOR]).max() > 1.0
    for _ in each_factor_path(monkeypatch):
        want = solve_linear_ap(problem).p
        p, residual, steps, factored = solve_p(problem, apcore.HeldFactor())
        assert factored and residual <= 1e-12
        assert steps == 1
        assert np.all(p.values[0] == 0.0) and np.all(p.values[:, -1] == 0.0)
        assert_same_p(p, want)
        # the same problem again on the held factor, which takes one step
        # too; measured: p within 6.8e-15 relative
        held = apcore.HeldFactor()
        solve_p(problem, held=held)
        with nothing_factored(monkeypatch):
            p, residual, held_steps, factored = solve_p(problem, held=held)
        assert not factored and residual <= 1e-12
        assert held_steps == 1
        assert_same_p(p, want)


@pytest.mark.parametrize("eps", [0.1, 1e-3, 0.0])
def test_held_factor_serves_a_nearby_problem(eps, monkeypatch):
    problem = pinned_problem("linear", eps)
    held = apcore.HeldFactor()
    *_, factored = solve_p(problem, held=held)
    assert factored and held.factor is not None
    factor = held.factor
    nearby = nearby_problem(problem, 2e-4)
    with nothing_factored(monkeypatch):
        p, residual, steps, factored = solve_p(nearby, held=held)
    assert not factored and held.factor is factor
    assert residual <= 1e-12
    assert 0 < steps <= 10
    assert_same_p(p, solve_linear_ap(nearby).p)


def test_held_factor_serves_a_drifted_slope(monkeypatch):
    # a held factor serves until a stage misses, however far G has moved
    problem = pinned_problem("linear", 0.1, cells=32)
    held = apcore.HeldFactor()
    solve_p(problem, held=held)
    factor = held.factor
    far = nearby_problem(problem, 1e-2)
    with nothing_factored(monkeypatch):
        p, residual, steps, factored = solve_p(far, held=held)
    assert not factored and held.factor is factor
    assert residual <= 1e-12 and steps > 0
    assert_same_p(p, solve_linear_ap(far).p)


def test_held_factor_miss_factors_anew(monkeypatch):
    # a held factor of an unrelated system of the same size cannot
    # precondition: the stage misses, and the solve factors anew
    problem = pinned_problem("linear", 0.1, cells=32)
    other = pinned_problem("angle", 45, cells=32)
    held = apcore.HeldFactor(mean_factor(other))
    calls = []
    for factor_class in (apcore.BandFactor, apcore.DirectFactor):
        def counted(self, r, lu_solve=factor_class.lu_solve):
            calls.append(1)
            return lu_solve(self, r)

        monkeypatch.setattr(factor_class, "lu_solve", counted)
    p, residual, steps, factored = solve_p(problem, held=held)
    assert factored and len(calls) == steps
    p_plain, residual_plain, steps_plain, _ = solve_p(problem, apcore.HeldFactor())
    np.testing.assert_array_equal(p.values, p_plain.values)
    assert residual == residual_plain
    assert steps > steps_plain  # the held stage's steps count as well


def test_held_factor_of_another_grid_does_not_fit():
    held = apcore.HeldFactor()
    solve_p(pinned_problem("linear", 0.1, cells=16), held=held)
    problem = pinned_problem("linear", 0.1, cells=20)
    *_, factored = solve_p(problem, held=held)
    assert factored
    n = problem.grid.nx * problem.grid.ny
    assert held.factor.matrix.shape == (n, n)
