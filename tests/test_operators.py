import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apdiff.grid import CellField, CellVectorField, NodeField, make_grid, sample_cell_vec, sample_node
from apdiff.linsolve import assemble
from apdiff.operators import (
    apply_dh,
    apply_dh_star,
    compose_second_order,
    ghost_extrapolation,
    ring_dh,
)

from _oracles import dense_dh, dense_second_order, duality_defect

UNIT = ((1.0, 2.0), (1.0, 2.0))


def uniform_direction(grid, bx, by):
    b = np.empty(grid.cell_shape + (2,))
    b[..., 0] = bx
    b[..., 1] = by
    return CellVectorField(grid, b)


def swirl_direction(grid):
    return sample_cell_vec(lambda x, y: (y / np.hypot(x, y), -x / np.hypot(x, y)), grid)


def test_dh_constant_field_vanishes():
    g = make_grid(UNIT, 6, 5)
    out = apply_dh(sample_node(lambda x, y: 3.7, g), swirl_direction(g))
    np.testing.assert_allclose(out.values, 0.0, atol=1e-14)


def test_dh_linear_in_x_with_axis_direction():
    g = make_grid(UNIT, 6, 5)
    out = apply_dh(sample_node(lambda x, y: x, g), uniform_direction(g, 1.0, 0.0))
    np.testing.assert_allclose(out.values, 1.0, rtol=1e-13)


def test_dh_hand_stencil_patch():
    # unit spacing, diagonal direction; values on one 2x2 node patch
    g = make_grid(((0.0, 7.0), (0.0, 7.0)), 6, 6)
    assert g.dx == 1.0 and g.dy == 1.0
    theta = NodeField.zeros(g)
    # cell (1+1/2, 1+1/2) has corner nodes (1..2, 1..2) -> array (2..3, 2..3)
    theta.values[2, 2] = 0.0
    theta.values[3, 2] = 1.0
    theta.values[2, 3] = 2.0
    theta.values[3, 3] = 4.0
    s = 1.0 / np.sqrt(2.0)
    out = apply_dh(theta, uniform_direction(g, s, s))
    # x pair: (4 - 2 + 1 - 0)/2 = 1.5; y pair: (4 - 1 + 2 - 0)/2 = 2.5
    assert out.values[2, 2] == pytest.approx((1.5 + 2.5) / np.sqrt(2.0), rel=1e-14)
    assert out.values[2, 2] == pytest.approx(2.8284271, abs=1e-6)


def test_dh_star_zero_and_constant():
    g = make_grid(UNIT, 6, 5)
    b = uniform_direction(g, 0.6, -0.8)
    np.testing.assert_allclose(apply_dh_star(CellField.zeros(g), b).values, 0.0)
    ones = CellField(g, np.ones(g.cell_shape))
    out = apply_dh_star(ones, b)
    np.testing.assert_allclose(out.values[1:-1, 1:-1], 0.0, atol=1e-13)


def test_dh_star_single_cell_impulse():
    g = make_grid(((0.0, 7.0), (0.0, 7.0)), 6, 6)
    chi = CellField.zeros(g)
    chi.values[1, 1] = 1.0  # cell (1/2, 1/2), corners at nodes (0..1, 0..1)
    out = apply_dh_star(chi, uniform_direction(g, 1.0, 0.0))
    inner = out.values[1:-1, 1:-1]
    assert inner[0, 0] == pytest.approx(0.5)
    assert inner[0, 1] == pytest.approx(0.5)
    assert inner[1, 0] == pytest.approx(-0.5)
    assert inner[1, 1] == pytest.approx(-0.5)
    assert np.count_nonzero(inner) == 4


def test_linearity_of_both_operators():
    g = make_grid(UNIT, 7, 9)
    b = swirl_direction(g)
    rng = np.random.default_rng(3)
    t1 = NodeField(g, rng.standard_normal(g.node_shape))
    t2 = NodeField(g, rng.standard_normal(g.node_shape))
    combo = NodeField(g, 2.5 * t1.values - 1.25 * t2.values)
    lhs = apply_dh(combo, b).values
    rhs = 2.5 * apply_dh(t1, b).values - 1.25 * apply_dh(t2, b).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)
    c1 = CellField(g, rng.standard_normal(g.cell_shape))
    c2 = CellField(g, rng.standard_normal(g.cell_shape))
    ccombo = CellField(g, 0.5 * c1.values + 3.0 * c2.values)
    lhs = apply_dh_star(ccombo, b).values
    rhs = 0.5 * apply_dh_star(c1, b).values + 3.0 * apply_dh_star(c2, b).values
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_dh_exact_on_affine_fields():
    g = make_grid(UNIT, 8, 6)
    b = swirl_direction(g)
    c0, c1, c2 = 0.7, -1.3, 2.1
    theta = sample_node(lambda x, y: c0 + c1 * x + c2 * y, g)
    expected = b.x * c1 + b.y * c2
    np.testing.assert_allclose(apply_dh(theta, b).values, expected, rtol=1e-13)


@pytest.mark.parametrize("nx,ny", [(8, 8), (33, 17)])
def test_duality_defect_random_fields(nx, ny):
    g = make_grid(UNIT, nx, ny)
    b = swirl_direction(g)
    rng = np.random.default_rng(11)
    theta = NodeField(g, rng.standard_normal(g.node_shape))
    chi = CellField.zeros(g)
    chi.values[1:-1, 1:-1] = rng.standard_normal((nx, ny))
    defect = duality_defect(theta, chi, b)
    bound = 1e-12 * np.linalg.norm(theta.values) * np.linalg.norm(chi.values)
    assert abs(defect) <= bound


def test_duality_defect_trivial_and_single_cell():
    g = make_grid(UNIT, 6, 6)
    b = swirl_direction(g)
    zero = NodeField.zeros(g)
    chi = CellField.zeros(g)
    chi.values[3, 4] = 1.0
    assert duality_defect(zero, chi, b) == 0.0
    rng = np.random.default_rng(5)
    theta = NodeField(g, rng.standard_normal(g.node_shape))
    assert abs(duality_defect(theta, chi, b)) <= 1e-13 * np.linalg.norm(theta.values)


def test_compose_zero():
    g = make_grid(UNIT, 5, 5)
    b = uniform_direction(g, 1.0, 0.0)
    ones_c = CellField(g, np.ones(g.cell_shape))
    ones_n = NodeField(g, np.ones(g.node_shape))
    out = compose_second_order(CellField.zeros(g), ones_c, ones_n, b)
    assert np.all(out.values == 0.0)


def test_compose_matches_1d_stencil_on_column_grid():
    # axis direction, unit weights: acting on y-constant data the composition
    # reduces to the classical tridiagonal second difference on every cell
    # whose stencil does not touch the zeroed ring
    g = make_grid(((0.0, 1.0), (0.0, 1.0)), 6, 6)
    assert g.dx == pytest.approx(g.dy)
    b = uniform_direction(g, 1.0, 0.0)
    ones_c = CellField(g, np.ones(g.cell_shape))
    ones_n = NodeField(g, np.ones(g.node_shape))
    rng = np.random.default_rng(7)
    col = rng.standard_normal(g.nx)
    chi = CellField.zeros(g)
    chi.values[1:-1, 1:-1] = col[:, None]
    out = compose_second_order(chi, ones_c, ones_n, b).values[1:-1, 1:-1]
    padded = np.concatenate([[0.0], col, [0.0]])
    expected = -(padded[2:] - 2.0 * padded[1:-1] + padded[:-2]) / g.dx**2
    for j in range(1, g.ny - 1):
        np.testing.assert_allclose(out[:, j], expected, rtol=1e-12)


def test_compose_matches_dense_oracle():
    g = make_grid(UNIT, 5, 5)
    b = swirl_direction(g)
    rng = np.random.default_rng(19)
    cell_w = CellField(g, 1.0 + rng.random(g.cell_shape))
    node_w = NodeField(g, 1.0 + rng.random(g.node_shape))
    dense = dense_second_order(g, b.values, cell_w.values, node_w.values)
    for _ in range(5):
        v = rng.standard_normal((g.nx, g.ny))
        chi = CellField.zeros(g)
        chi.values[1:-1, 1:-1] = v
        out = compose_second_order(chi, cell_w, node_w, b).values[1:-1, 1:-1]
        np.testing.assert_allclose(out.ravel(), dense @ v.ravel(), atol=1e-12)


def test_compose_rejects_bad_node_weight():
    g = make_grid(UNIT, 5, 5)
    b = uniform_direction(g, 1.0, 0.0)
    ones_c = CellField(g, np.ones(g.cell_shape))
    bad = NodeField.zeros(g)
    with pytest.raises(ValueError):
        compose_second_order(ones_c, ones_c, bad, b)


@pytest.mark.parametrize("direction", ["swirl", "45"])
def test_ring_dh_matches_probed_and_dense_dh(direction):
    # unit mesh squares: at 45 degrees two of the four coefficients cancel to 0
    g = make_grid(((1.0, 35.0), (1.0, 19.0)), 33, 17)
    s = 1.0 / np.sqrt(2.0)
    b = swirl_direction(g) if direction == "swirl" else uniform_direction(g, s, s)
    ring, mat = ring_dh(b)
    mask = np.ones(g.cell_shape, dtype=bool)
    mask[1:-1, 1:-1] = False
    np.testing.assert_array_equal(ring, np.flatnonzero(mask))
    got = mat.toarray()
    probed = assemble(lambda t: apply_dh(NodeField(g, t), b).values, g.node_shape)
    assert np.array_equal(got, probed[ring].toarray())
    want = dense_dh(g, b.values)[ring]
    assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want)
    if direction == "45":
        assert np.all(np.count_nonzero(got, axis=1) == 2)


def test_ghost_extrapolation_annihilates_affine_fields():
    g = make_grid(((1.0, 2.0), (1.0, 1.5)), 12, 7)
    ghosts, mat = ghost_extrapolation(g)
    mask = np.ones(g.node_shape, dtype=bool)
    mask[1:-1, 1:-1] = False
    np.testing.assert_array_equal(ghosts, np.flatnonzero(mask))
    assert mat.shape == (ghosts.size, mask.size)
    # one unit entry per row, on its own ghost; corners included
    np.testing.assert_array_equal(mat[np.arange(ghosts.size), ghosts].A1, 1.0)
    np.testing.assert_array_equal(np.diff(mat.indptr), 3)
    affine = sample_node(lambda x, y: 0.4 + 1.7 * x - 0.9 * y, g)
    np.testing.assert_allclose(mat @ affine.values.ravel(), 0.0, atol=1e-13)
    # rows do not vanish on a quadratic along the normal, corners included
    quad = sample_node(lambda x, y: (x - 1.5) ** 2 + (y - 1.25) ** 2, g)
    assert np.all(np.abs(mat @ quad.values.ravel()) > 1e-6)


# property tests over random grids and unit direction fields ----------------------


@st.composite
def random_directions(draw):
    """A grid with 3-20 cells per side, a unit direction field on it and a seed for data."""
    g = make_grid(UNIT, draw(st.integers(3, 20)), draw(st.integers(3, 20)))
    seed = draw(st.integers(0, 2**32 - 1))
    angle = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, g.cell_shape)
    b = np.stack([np.cos(angle), np.sin(angle)], axis=-1)
    return CellVectorField(g, b), seed


@settings(max_examples=20, deadline=None)
@given(random_directions())
def test_duality_defect_property(drawn):
    b, seed = drawn
    g = b.grid
    rng = np.random.default_rng(seed)
    theta = NodeField(g, rng.standard_normal(g.node_shape))
    chi = CellField.zeros(g)
    chi.values[1:-1, 1:-1] = rng.standard_normal((g.nx, g.ny))
    defect = duality_defect(theta, chi, b)
    # the bound of acceptance criterion 7
    assert abs(defect) <= 1e-12 * np.linalg.norm(theta.values) * np.linalg.norm(chi.values)


@settings(max_examples=20, deadline=None)
@given(random_directions())
def test_unit_cell_weight_operator_is_symmetric(drawn):
    # with cell weight 1 the operator is Dh N^-1 Dh^T by summation by parts
    b, seed = drawn
    g = b.grid
    ones = CellField(g, np.ones(g.cell_shape))
    node_w = NodeField(g, np.random.default_rng(seed).uniform(0.5, 2.0, g.node_shape))

    def op(v):
        chi = CellField.zeros(g)
        chi.values[1:-1, 1:-1] = v
        return compose_second_order(chi, ones, node_w, b).values[1:-1, 1:-1]

    mat = assemble(op, (g.nx, g.ny)).toarray()
    assert np.abs(mat - mat.T).max() <= 1e-14 * np.abs(mat).max()


@settings(max_examples=20, deadline=None)
@given(random_directions())
def test_ring_dh_matches_dense_oracle_property(drawn):
    b, _ = drawn
    ring, mat = ring_dh(b)
    want = dense_dh(b.grid, b.values)[ring]
    assert np.linalg.norm(mat.toarray() - want) <= 1e-15 * np.linalg.norm(want)
