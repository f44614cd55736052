import collections
import dataclasses

import numpy as np
import pytest

from apdiff import apcore, problems
from apdiff.grid import INTERIOR, CellField, CellVectorField, NodeField, make_grid, sample_node
from apdiff.gummel import NonlinearProblem
from apdiff.operators import apply_dh, apply_dh_star
from apdiff.problems import (
    case_angle,
    case_ap_limit,
    case_linear_variable,
    case_nonlinear,
    spline,
    spline_deriv,
)
from apdiff.experiments import fit_loglog_slope, unit_square_grid

from _oracles import central_difference, full_lattice_sample, lattice

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
    xs, ys = lattice(g, "cell")
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
    xs, ys = lattice(g, "node")
    p = case.p_exact(xs, ys)
    if isinstance(case.problem, NonlinearProblem):
        expected = p**6
    else:
        expected = (1.0 + np.sin(xs) ** 2 * np.sin(ys) ** 2) * p
    np.testing.assert_allclose(case.problem.source_node.values, expected, rtol=1e-12)


# sampling on broadcast axes -------------------------------------------------------


BITWISE_CASES = [
    ("linear-variable", lambda g: case_linear_variable(g, 0.1)),
    *[(f"angle-{deg}deg", lambda g, deg=deg: case_angle(g, 1e-3, np.deg2rad(deg)))
      for deg in (0, 17, 45, 90)],
    ("nonlinear-spline", lambda g: case_nonlinear(g, 0.1)),
    ("ap-limit-eps1e-3", lambda g: case_ap_limit(g, 1e-3)),
    ("ap-limit-eps0", lambda g: case_ap_limit(g, 0.0)),
]

FIELD_KINDS = {NodeField: "node", CellField: "cell", CellVectorField: "cell vector"}


def _sampled_fields(problem):
    return {f.name: getattr(problem, f.name) for f in dataclasses.fields(problem)
            if type(getattr(problem, f.name)) in FIELD_KINDS}


def _full_lattice_sampler(field_type):
    kind = FIELD_KINDS[field_type]
    return lambda fn, grid: field_type(grid, full_lattice_sample(fn, grid, kind))


@pytest.mark.parametrize("cells", [16, 100])
@pytest.mark.parametrize("name,builder", BITWISE_CASES, ids=[c[0] for c in BITWISE_CASES])
def test_case_data_bitwise_equal_to_full_lattice_sampling(monkeypatch, name, builder, cells):
    # sampling closed forms on an x column and a y row must reproduce, bit
    # for bit, the same closed forms evaluated on the full meshgrid lattice
    g = unit_square_grid(cells)
    case = builder(g)
    with monkeypatch.context() as m:
        for module in (problems,):
            m.setattr(module, "sample_node", _full_lattice_sampler(NodeField))
            m.setattr(module, "sample_cell", _full_lattice_sampler(CellField))
            m.setattr(module, "sample_cell_vec", _full_lattice_sampler(CellVectorField))
        reference = builder(g)
    fields, expected = _sampled_fields(case.problem), _sampled_fields(reference.problem)
    assert len(fields) == (6 if isinstance(case.problem, apcore.LinearProblem) else 4)
    for key, fld in fields.items():
        assert np.array_equal(fld.values, expected[key].values), key
    assert np.array_equal(case.exact_field().values, full_lattice_sample(case.p_exact, g, "node"))
    for closed_form in (case.initial_guess, case.limit_exact):
        if closed_form is not None:
            assert np.array_equal(sample_node(closed_form, g).values,
                                  full_lattice_sample(closed_form, g, "node"))


@pytest.mark.parametrize("name,builder", BITWISE_CASES, ids=[c[0] for c in BITWISE_CASES])
def test_closed_forms_evaluated_once_per_lattice(monkeypatch, name, builder):
    # building a case and reading its exact field twice evaluates G and the
    # spline at most once on each lattice: once per argument shape, that is
    # per lattice for G(x, y) and per axis of a lattice for the spline
    g = unit_square_grid(16)
    calls = collections.Counter()

    def counted(fn, key):
        def wrapper(*args):
            calls[fn.__name__, key(*args)] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(problems, "_bumpy",
                        counted(problems._bumpy, lambda x, y: np.broadcast(x, y).shape))
    monkeypatch.setattr(problems, "spline", counted(problems.spline, np.shape))
    case = builder(g)
    first, second = case.exact_field(), case.exact_field()
    assert calls and max(calls.values()) == 1, calls
    assert np.array_equal(first.values, second.values)
    with pytest.raises(ValueError, match="read-only"):
        first.values[1, 1] = 0.0
    np.testing.assert_array_equal(first.values, sample_node(case.p_exact, g).values)


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
    xs, ys = lattice(g, "node")
    np.testing.assert_allclose(case.pi_exact(xs, ys), np.sin(xs), atol=1e-14)


def test_angle_case_fluctuation_generator_vanishes_on_ring():
    g = make_grid(UNIT, 14, 9)
    ax = 2.0 * np.pi / (g.x_max - g.x_min)
    ay = 2.0 * np.pi / (g.y_max - g.y_min)
    xs, ys = lattice(g, "cell")
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
    xs, ys = lattice(g, "node")
    np.testing.assert_allclose(case0.p_exact(xs, ys), case0.limit_exact(xs, ys))
    case = case_ap_limit(g, 1e-2)
    assert case.p_exact(1.5, 1.5) == pytest.approx(13.0 / 9.0 + 1e-2)
    assert case.p_exact(1.5, 1.5) - case.limit_exact(1.5, 1.5) == pytest.approx(1e-2)


# discrete consistency oracle -----------------------------------------------------


def discrete_residual_mean(case):
    """Mean absolute residual of the one-shot discrete equation at interior nodes."""
    g = case.grid
    prob = case.problem
    b = prob.direction
    pex = sample_node(case.p_exact, g)
    flux = CellField(
        g, prob.diffusivity_cell.values * (apply_dh(pex, b).values - prob.grad_source_cell.values)
    )
    div = apply_dh_star(flux, b)
    if isinstance(case.problem, NonlinearProblem):
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
