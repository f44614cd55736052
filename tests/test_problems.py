import numpy as np
import pytest

from apdiff.grid import INTERIOR, CellField, make_grid, sample_node
from apdiff.operators import OperatorContext, apply_dh, apply_dh_star
from apdiff.problems import (
    CASES,
    case_angle,
    case_ap_limit,
    case_linear_variable,
    case_nonlinear,
    spline,
    spline_deriv,
)
from apdiff.experiments import fit_loglog_slope, unit_square_grid

from _oracles import central_difference

UNIT = ((1.0, 2.0), (1.0, 2.0))


# spline -----------------------------------------------------------------------


def test_spline_values():
    assert spline(0.0) == pytest.approx(2.0 / 3.0)
    assert spline(1.0) == pytest.approx(1.0 / 6.0)
    assert spline(2.0) == 0.0
    assert spline(2.5) == 0.0
    assert spline(-2.5) == 0.0


def test_spline_branch_agreement_at_one():
    inner = 2.0 / 3.0 - 1.0 + 0.5
    outer = (2.0 - 1.0) ** 3 / 6.0
    assert abs(inner - outer) <= 1e-14
    d_inner = -2.0 + 1.5
    d_outer = -0.5 * (2.0 - 1.0) ** 2
    assert abs(d_inner - d_outer) <= 1e-14
    # second derivatives agree too (the bump is C2)
    assert abs((-2.0 + 3.0) - (2.0 - 1.0)) <= 1e-14


def test_spline_deriv_matches_central_difference():
    rng = np.random.default_rng(0)
    zs = rng.uniform(-2.5, 2.5, size=200)
    zs = zs[(np.abs(np.abs(zs) - 1.0) > 1e-3) & (np.abs(np.abs(zs) - 2.0) > 1e-3)]
    step = 1e-6
    num = (spline(zs + step) - spline(zs - step)) / (2 * step)
    np.testing.assert_allclose(spline_deriv(zs), num, atol=1e-7)


# shared case properties ---------------------------------------------------------


ALL_CASES = [
    ("linear-variable", lambda g: case_linear_variable(g, 0.1)),
    ("angle", lambda g: case_angle(g, 0.1, 0.6)),
    ("nonlinear-spline", lambda g: case_nonlinear(g, 0.1)),
    ("ap-limit", lambda g: case_ap_limit(g, 0.01)),
]


@pytest.mark.parametrize("name,builder", ALL_CASES)
def test_direction_is_unit_length(name, builder):
    g = make_grid(UNIT, 15, 15)
    case = builder(g)
    b = case.problem.direction
    norms = np.hypot(b.x, b.y)
    np.testing.assert_allclose(norms, 1.0, atol=1e-14)


@pytest.mark.parametrize("name,builder", ALL_CASES)
def test_grad_source_matches_central_differences(name, builder):
    # the hand-differentiated gradient source sampled at the cell centers
    # must agree with central differences of the exact solution there
    g = make_grid(UNIT, 15, 13)
    case = builder(g)
    prob = case.problem
    xs, ys = g.cell_coords()
    gx, gy = central_difference(case.p_exact, xs, ys)
    expected = prob.direction.x * gx + prob.direction.y * gy
    sampled = prob.grad_source_cell.values
    keep = np.ones_like(sampled, dtype=bool)
    if name == "ap-limit":
        # the eps-part has gradient kinks on the zero set of the cosine
        # product; central differences are meaningless within a step of them
        lx = (g.x_max - g.x_min) / 10.0
        wave_x = np.cos(2.0 * np.pi * (xs - 1.5) / lx)
        wave_y = np.cos(2.0 * np.pi * (ys - 1.5) / lx)
        keep = (np.abs(wave_x) > 1e-3) & (np.abs(wave_y) > 1e-3)
    scale = np.abs(expected) + 1.0
    np.testing.assert_allclose(
        (sampled / scale)[keep], (expected / scale)[keep], atol=2e-6
    )


@pytest.mark.parametrize("name,builder", ALL_CASES)
def test_source_consistent_with_reaction_balance(name, builder):
    g = make_grid(UNIT, 12, 12)
    case = builder(g)
    xs, ys = g.node_coords()
    p = case.p_exact(xs, ys)
    if case.is_nonlinear:
        expected = p**6
    else:
        expected = (1.0 + np.sin(xs) ** 2 * np.sin(ys) ** 2) * p
    np.testing.assert_allclose(case.problem.source_node.values, expected, rtol=1e-12)


# individual cases ----------------------------------------------------------------


def test_linear_variable_values():
    g = make_grid(UNIT, 10, 10)
    case = case_linear_variable(g, 0.1)
    assert case.p_exact(1.0, 1.0) == pytest.approx(1.0 / 3.0)
    # the solution is constant along the circular direction, so the gradient
    # source vanishes identically: at (1,1), grad p = (-2/9, -2/9) and b is
    # the perpendicular direction
    assert case.problem.grad_source_cell.values[0, 0] == pytest.approx(0.0, abs=1e-15)


def test_angle_case_alpha_zero():
    g = make_grid(UNIT, 12, 12)
    case = case_angle(g, 1e-3, 0.0)
    b = case.problem.direction
    np.testing.assert_allclose(b.x, 0.0, atol=1e-15)
    np.testing.assert_allclose(b.y, -1.0, atol=1e-15)
    xs, ys = g.node_coords()
    np.testing.assert_allclose(case.pi_exact(xs, ys), np.sin(xs), atol=1e-14)


def test_angle_case_fluctuation_generator_vanishes_on_ring():
    g = make_grid(UNIT, 14, 9)
    ax = 2.0 * np.pi / (g.x_max - g.x_min)
    ay = 2.0 * np.pi / (g.y_max - g.y_min)
    xs, ys = g.cell_coords()
    l = np.sin(ax * (xs - g.x_min)) * np.sin(ay * (ys - g.y_min))
    ring = np.ones(g.cell_shape, dtype=bool)
    ring[INTERIOR] = False
    np.testing.assert_allclose(l[ring], 0.0, atol=1e-12)


def test_angle_case_fluctuation_against_difference_oracle():
    g = make_grid(UNIT, 12, 12)
    alpha = np.pi / 4
    case = case_angle(g, 1e-3, alpha)
    gfun = lambda x, y: 1.0 + np.sin(x) ** 2 * np.sin(y) ** 2
    ax = 2.0 * np.pi / (g.x_max - g.x_min)
    ay = 2.0 * np.pi / (g.y_max - g.y_min)
    lfun = lambda x, y: np.sin(ax * (x - g.x_min)) * np.sin(ay * (y - g.y_min))
    s, c = np.sin(alpha), np.cos(alpha)
    step = 1e-6

    def q_oracle(x, y):
        gxp = gfun(x + step, y) * s * lfun(x + step, y)
        gxm = gfun(x - step, y) * s * lfun(x - step, y)
        gyp = gfun(x, y + step) * (-c) * lfun(x, y + step)
        gym = gfun(x, y - step) * (-c) * lfun(x, y - step)
        div = (gxp - gxm) / (2 * step) + (gyp - gym) / (2 * step)
        return div / gfun(x, y)

    x0, y0 = 1.5, 1.5
    assert case.q_exact(x0, y0) == pytest.approx(q_oracle(x0, y0), rel=1e-6)


def test_nonlinear_case_values():
    g = make_grid(UNIT, 10, 10)
    case = case_nonlinear(g, 0.1, eta=0.1, mu=60.0)
    assert case.p_exact(1.5, 1.5) == pytest.approx(1.0 + (2.0 / 3.0) ** 2)
    xs = np.array([1.2, 1.75, 1.9])
    ys = np.array([1.5, 1.72, 1.1])
    np.testing.assert_allclose(case.p_exact(xs, ys), 1.0)  # outside the bump support
    assert case.initial_guess(1.5, 1.5) == pytest.approx(13.0 / 9.0 + 0.1)


def test_ap_limit_case_values():
    g = make_grid(UNIT, 10, 10)
    case0 = case_ap_limit(g, 0.0)
    xs, ys = g.node_coords()
    np.testing.assert_allclose(case0.p_exact(xs, ys), case0.limit_exact(xs, ys))
    case = case_ap_limit(g, 1e-2)
    assert case.p_exact(1.5, 1.5) == pytest.approx(13.0 / 9.0 + 1e-2)
    assert case.p_exact(1.5, 1.5) - case.limit_exact(1.5, 1.5) == pytest.approx(1e-2)


def test_registry_names():
    assert set(CASES) == {"linear-variable", "angle", "nonlinear-spline", "ap-limit"}


# discrete consistency oracle -----------------------------------------------------


def discrete_residual_mean(case):
    """Mean absolute residual of the one-shot discrete equation at interior nodes."""
    g = case.grid
    prob = case.problem
    ctx = OperatorContext(g, prob.direction)
    pex = sample_node(case.p_exact, g)
    flux = CellField(
        g, prob.diffusivity_cell.values * (apply_dh(pex, ctx).values - prob.grad_source_cell.values)
    )
    div = apply_dh_star(flux, ctx)
    if case.is_nonlinear:
        react = prob.reaction_law(pex.values[INTERIOR]) - prob.source_node.values[INTERIOR]
    else:
        react = prob.reaction_node.values[INTERIOR] * pex.values[INTERIOR] - prob.source_node.values[INTERIOR]
    return float(np.mean(np.abs(-div.values[INTERIOR] + case.eps * react)))


@pytest.mark.parametrize(
    "builder",
    [
        lambda g: case_linear_variable(g, 0.1),
        lambda g: case_angle(g, 0.1, 0.6),
        lambda g: case_nonlinear(g, 0.1),
        lambda g: case_ap_limit(g, 0.0),
    ],
)
def test_truncation_is_second_order(builder):
    hs, rs = [], []
    for cells in (32, 64, 128):
        g = unit_square_grid(cells)
        case = builder(g)
        rs.append(discrete_residual_mean(case))
        hs.append(g.h)
    assert fit_loglog_slope(hs, rs) >= 1.8
