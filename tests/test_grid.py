import numpy as np
import pytest

from apdiff.grid import (
    INTERIOR,
    CellField,
    NodeField,
    coarse_grid,
    inject_cell,
    make_grid,
    prolong_node,
    restrict_node,
    sample_cell,
    sample_cell_vec,
    sample_node,
)

from _oracles import full_lattice_sample, lattice

UNIT = ((1.0, 2.0), (1.0, 2.0))


def test_make_grid_m100():
    g = make_grid(UNIT, 99, 99)
    assert g.dx == pytest.approx(0.01)
    assert g.dy == pytest.approx(0.01)
    assert g.cell_xs[0] == pytest.approx(1.0)  # boundary ring cell sits on the edge
    assert g.cell_xs[-1] == pytest.approx(2.0)
    assert g.node_xs[1] == pytest.approx(1.005)  # first interior node, half a step in


def test_make_grid_m200_step():
    g = make_grid(UNIT, 199, 199)
    assert g.h == pytest.approx(0.005)


def test_make_grid_rectangular():
    g = make_grid(((0.0, 1.0), (0.0, 2.0)), 9, 19)
    assert g.dx == pytest.approx(0.1)
    assert g.dy == pytest.approx(0.1)
    assert g.h == pytest.approx(0.1)


def test_make_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        make_grid(((2.0, 1.0), (1.0, 2.0)), 10, 10)
    with pytest.raises(ValueError):
        make_grid(UNIT, 1, 10)
    with pytest.raises(ValueError):
        make_grid(UNIT, 10, 0)


@pytest.mark.parametrize("nx, ny", [(2.7, 3.9), (24.0, 24), (5, 5.5), (np.float64(5.0), 5)])
def test_make_grid_rejects_non_integer_sizes(nx, ny):
    # truncating would build a different mesh than the one asked for
    with pytest.raises(ValueError, match="integer"):
        make_grid(UNIT, nx, ny)


def test_make_grid_accepts_numpy_integers():
    g = make_grid(UNIT, np.int64(9), np.int32(4))
    assert (g.nx, g.ny) == (9, 4)
    assert type(g.nx) is int and type(g.ny) is int
    assert g.dx == pytest.approx(0.1)


@pytest.mark.parametrize("bounds", [((1.0, np.inf), (1.0, 2.0)), ((-np.inf, 2.0), (1.0, 2.0)),
                                    ((1.0, 2.0), (np.nan, 2.0)), ((1.0, 2.0), (1.0, np.inf))])
def test_make_grid_rejects_non_finite_bounds(bounds):
    with pytest.raises(ValueError, match="finite"):
        make_grid(bounds, 5, 5)


def test_coordinate_round_trip():
    g = make_grid(((0.3, 1.7), (2.0, 5.0)), 13, 7)
    mid_x = 0.5 * (g.node_xs[:-1] + g.node_xs[1:])
    mid_y = 0.5 * (g.node_ys[:-1] + g.node_ys[1:])
    np.testing.assert_allclose(mid_x, g.cell_xs, rtol=1e-15)
    np.testing.assert_allclose(mid_y, g.cell_ys, rtol=1e-15)


def test_ghost_nodes_outside_domain():
    g = make_grid(UNIT, 9, 9)
    assert g.node_xs[0] < g.x_min
    assert g.node_xs[-1] > g.x_max
    assert np.all(g.node_xs[1:-1] > g.x_min) and np.all(g.node_xs[1:-1] < g.x_max)


def test_index_partition():
    g = make_grid(UNIT, 5, 7)
    nodes = np.zeros(g.node_shape, dtype=bool)
    nodes[INTERIOR] = True
    cells = np.zeros(g.cell_shape, dtype=bool)
    cells[INTERIOR] = True
    assert (~nodes).sum() == 2 * (g.nx + 3) + 2 * (g.ny + 3) - 4
    assert (~cells).sum() == 2 * (g.nx + 2) + 2 * (g.ny + 2) - 4
    assert nodes.sum() == (g.nx + 1) * (g.ny + 1)
    assert cells.sum() == g.nx * g.ny


def test_sample_constant_zero():
    g = make_grid(UNIT, 5, 5)
    fld = sample_node(lambda x, y: 0.0, g)
    assert np.all(fld.values == 0.0)


def test_sample_identity_function():
    g = make_grid(UNIT, 99, 99)
    fld = sample_node(lambda x, y: x, g)
    # node (0, 0) sits half a step inside the domain
    assert fld.values[1, 1] == pytest.approx(1.005)


def test_sample_cell_boundary_value():
    g = make_grid(UNIT, 99, 99)
    fld = sample_cell(lambda x, y: 1.0 + np.sin(x) ** 2 * np.sin(y) ** 2, g)
    # ring cell (-1/2, -1/2) is centered exactly at the domain corner (1, 1)
    assert fld.values[0, 0] == pytest.approx(1.0 + np.sin(1.0) ** 4, rel=1e-14)
    assert fld.values[0, 0] == pytest.approx(1.5014, abs=1e-4)


def test_sample_reports_nonfinite_with_coordinate():
    g = make_grid(UNIT, 5, 5)
    with pytest.raises(ValueError, match=r"x=.*y="):
        sample_node(lambda x, y: np.where(x > 1.5, np.inf, 1.0), g)


@pytest.mark.parametrize("sampler, kind", [(sample_node, "node"), (sample_cell, "cell")])
def test_sample_nonfinite_message_names_the_first_offending_point(sampler, kind):
    g = make_grid(((0.0, 1.0), (0.0, 2.0)), 6, 9)
    fn = lambda x, y: np.where((x > 0.4) & (y > 1.1), np.nan, 1.0)
    xs, ys = lattice(g, kind)
    i, j = np.argwhere(np.isnan(fn(xs, ys)))[0]
    with pytest.raises(ValueError, match=rf"nan at \(x={xs[i, j]:.6g}, y={ys[i, j]:.6g}\)"):
        sampler(fn, g)


def test_sample_passes_an_x_column_and_a_y_row():
    g = make_grid(UNIT, 6, 4)
    seen = []
    sample_node(lambda x, y: seen.append((x.shape, y.shape)) or 0.0, g)
    sample_cell(lambda x, y: seen.append((x.shape, y.shape)) or 0.0, g)
    assert seen == [((g.nx + 3, 1), (1, g.ny + 3)), ((g.nx + 2, 1), (1, g.ny + 2))]


@pytest.mark.parametrize(
    "fn",
    [lambda x, y: 2.5, lambda x, y: np.float64(-1.0), lambda x, y: x, lambda x, y: y ** 2,
     lambda x, y: np.sin(x) * np.cos(y), lambda x, y: np.zeros_like(x)],
    ids=["float", "numpy-scalar", "column", "row", "product", "zeros-like-column"],
)
@pytest.mark.parametrize("sampler, kind", [(sample_node, "node"), (sample_cell, "cell")])
def test_sample_broadcasts_scalars_columns_and_rows(sampler, kind, fn):
    g = make_grid(((0.0, 1.0), (0.0, 2.0)), 6, 9)
    values = sampler(fn, g).values
    assert values.shape == (g.node_shape if kind == "node" else g.cell_shape)
    assert values.flags.writeable and values.flags.c_contiguous
    assert np.array_equal(values, full_lattice_sample(fn, g, kind))


def test_sample_cell_vec_broadcasts_each_component():
    g = make_grid(((0.0, 1.0), (0.0, 2.0)), 6, 9)
    fn = lambda x, y: (0.6, y / np.hypot(x, y + 1.0))
    assert np.array_equal(sample_cell_vec(fn, g).values, full_lattice_sample(fn, g, "cell vector"))


@pytest.mark.parametrize(
    "fn",
    [lambda x, y: x.ravel(), lambda x, y: (x * y).ravel(), lambda x, y: np.zeros((3, 3)),
     lambda x, y: (x + y)[:-1], lambda x, y: np.zeros((1, 1, 1))],
    ids=["1d-column", "1d-flat", "wrong-2d", "short-2d", "3d"],
)
def test_sample_rejects_results_that_do_not_fit_the_lattice(fn):
    g = make_grid(UNIT, 5, 5)  # square: a 1-d column would otherwise broadcast as a row
    for sampler in (sample_node, sample_cell):
        with pytest.raises(ValueError, match="sampler returned shape"):
            sampler(fn, g)
    with pytest.raises(ValueError, match="cell vector y sampler returned shape"):
        sample_cell_vec(lambda x, y: (1.0, fn(x, y)), g)


def test_sample_rejects_a_transposed_axis_on_a_rectangular_grid():
    g = make_grid(((0.0, 1.0), (0.0, 2.0)), 6, 9)
    with pytest.raises(ValueError, match=r"shape \(1, 9\), expected .* \(9, 12\)"):
        sample_node(lambda x, y: x.T, g)


def test_grid_axes_are_read_only():
    g = make_grid(UNIT, 5, 5)
    for axis in (g.node_xs, g.node_ys, g.cell_xs, g.cell_ys):
        with pytest.raises(ValueError, match="read-only"):
            axis[0] = 0.0
    with pytest.raises(ValueError, match="read-only"):
        g.node_xs += 1.0


def test_closed_form_writing_into_its_axes_leaves_later_samples_unchanged():
    g = make_grid(UNIT, 5, 5)

    def scribble(x, y):
        x += 10.0
        y *= 0.0
        return x + y

    first = sample_node(scribble, g).values
    assert np.array_equal(sample_node(scribble, g).values, first)
    assert np.array_equal(sample_node(lambda x, y: x + y, g).values,
                          full_lattice_sample(lambda x, y: x + y, g, "node"))
    assert np.array_equal(sample_cell(lambda x, y: x * y, g).values,
                          full_lattice_sample(lambda x, y: x * y, g, "cell"))


KEEP = np.arange(64, dtype=float).reshape(8, 8)  # the node shape of make_grid(UNIT, 5, 5)


def test_sampled_field_does_not_alias_a_full_shaped_result():
    g = make_grid(UNIT, 5, 5)
    values = sample_node(lambda x, y: KEEP, g).values
    values += 1.0
    assert np.array_equal(KEEP, np.arange(64, dtype=float).reshape(8, 8))


def test_sampled_field_of_a_read_only_result_is_writable():
    g = make_grid(UNIT, 5, 5)
    fields = [sample_node(lambda x, y: np.broadcast_to(x + y, g.node_shape), g),
              sample_cell(lambda x, y: np.broadcast_to(x * y, g.cell_shape), g)]
    for fld in fields:
        assert fld.values.flags.writeable and fld.values.flags.owndata
        fld.values[0, 0] = -1.0
    assert np.array_equal(sample_node(lambda x, y: np.broadcast_to(x + y, g.node_shape), g).values,
                          full_lattice_sample(lambda x, y: x + y, g, "node"))


def test_sample_cell_vec_shapes():
    g = make_grid(UNIT, 5, 5)
    fld = sample_cell_vec(lambda x, y: (np.ones_like(x), -np.ones_like(y)), g)
    assert fld.values.shape == (g.nx + 2, g.ny + 2, 2)
    assert np.all(fld.x == 1.0) and np.all(fld.y == -1.0)


def test_field_shape_validation():
    g = make_grid(UNIT, 5, 5)
    with pytest.raises(ValueError):
        NodeField(g, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        CellField(g, np.zeros(g.node_shape))


def test_coarse_grid_halves_even_sides_only():
    g = make_grid(UNIT, 15, 31)
    c = coarse_grid(g)
    assert (c.nx, c.ny) == (7, 15)
    assert (c.x_min, c.x_max, c.y_min, c.y_max) == (g.x_min, g.x_max, g.y_min, g.y_max)
    np.testing.assert_allclose(c.cell_xs, g.cell_xs[::2], rtol=0, atol=1e-15)
    # coarse interior nodes sit on the fine cell vertices between two fine nodes
    np.testing.assert_allclose(c.node_xs[1:-1], g.cell_xs[1::2], rtol=0, atol=1e-15)
    assert coarse_grid(make_grid(UNIT, 14, 31)) is None
    assert coarse_grid(make_grid(UNIT, 15, 30)) is None


def test_grid_transfers_are_exact_on_bilinear_fields():
    g = make_grid(((1.0, 2.0), (0.5, 2.5)), 15, 31)
    c = coarse_grid(g)
    bilinear = lambda x, y: 0.3 + 2.0 * x - 1.5 * y + 0.7 * x * y
    np.testing.assert_allclose(restrict_node(sample_node(bilinear, g), c).values,
                               sample_node(bilinear, c).values, rtol=0, atol=1e-13)
    np.testing.assert_allclose(prolong_node(sample_node(bilinear, c), g).values,
                               sample_node(bilinear, g).values, rtol=0, atol=1e-13)
    np.testing.assert_array_equal(inject_cell(sample_cell(np.hypot, g), c).values,
                                  sample_cell(np.hypot, g).values[::2, ::2])
    vec = inject_cell(sample_cell_vec(lambda x, y: (x, y), g), c)
    assert vec.values.shape == c.cell_shape + (2,)


def test_restriction_averages_four_nodes_and_prolongation_weighs_three_to_one():
    g = make_grid(UNIT, 7, 7)
    c = coarse_grid(g)
    v = np.random.default_rng(3).standard_normal(g.node_shape)
    coarse = restrict_node(NodeField(g, v), c).values
    # coarse node (1, 2) sits between fine nodes 1-2 in x and 3-4 in y
    assert coarse[1, 2] == pytest.approx(v[1:3, 3:5].mean(), rel=1e-14)
    fine = prolong_node(NodeField(c, coarse), g).values
    wx = np.array([0.75, 0.25])
    # fine node (4, 3) is nearest coarse node 2 in x and 2 in y, then 3 and 1
    expected = wx @ coarse[[2, 3]][:, [2, 1]] @ wx
    assert fine[4, 3] == pytest.approx(expected, rel=1e-14)
    assert fine.flags.c_contiguous and coarse.flags.c_contiguous
