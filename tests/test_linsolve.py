import ctypes

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from apdiff import apcore, linsolve, naive
from apdiff.experiments import unit_square_grid
from apdiff.grid import INTERIOR, CellField, NodeField, make_grid
from apdiff.linsolve import (
    AssemblyError,
    BandFactor,
    DirectFactor,
    SolverConfig,
    assemble,
    factor_order,
    nested_dissection,
    refine,
    stencil_matrix,
    symmetric_band,
)
from apdiff.operators import apply_dh, compose_second_order
from apdiff.problems import case_angle, case_linear_variable

from test_apcore import band_oracle, flux_operator
from test_operators import uniform_direction

UNIT = ((1.0, 2.0), (1.0, 2.0))


def test_assemble_identity():
    mat = assemble(lambda v: v, (4, 5))
    assert (mat != sp.eye(20)).nnz == 0


def test_assemble_1d_like_tridiagonal_rows():
    g = make_grid(((0.0, 1.0), (0.0, 1.0)), 6, 6)
    b = uniform_direction(g, 1.0, 0.0)
    ones_c = CellField(g, np.ones(g.cell_shape))
    ones_n = NodeField(g, np.ones(g.node_shape))

    def op(v):
        chi = CellField.zeros(g)
        chi.values[1:-1, 1:-1] = v
        return compose_second_order(chi, ones_c, ones_n, b).values[1:-1, 1:-1]

    mat = assemble(op, (g.nx, g.ny)).toarray()
    # acting on y-constant data, rows away from the ring reduce to the
    # tridiagonal (-1, 2, -1)/dx^2 pattern along x
    rng = np.random.default_rng(0)
    col = rng.standard_normal(g.nx)
    v = np.repeat(col[:, None], g.ny, axis=1)
    out = (mat @ v.ravel()).reshape(g.nx, g.ny)
    padded = np.concatenate([[0.0], col, [0.0]])
    expected = -(padded[2:] - 2.0 * padded[1:-1] + padded[:-2]) / g.dx**2
    np.testing.assert_allclose(out[:, 2], expected, rtol=1e-12)


def test_assemble_reproduces_random_stencil_operator():
    rng = np.random.default_rng(42)
    shape = (9, 7)
    weights = {
        (oi, oj): rng.standard_normal(shape) for oi in (-1, 0, 1) for oj in (-1, 0, 1)
    }

    def op(v):
        out = np.zeros_like(v)
        for (oi, oj), w in weights.items():
            shifted = np.zeros_like(v)
            src = shifted[max(0, -oi):shape[0] - max(0, oi), max(0, -oj):shape[1] - max(0, oj)]
            src[...] = v[max(0, oi):shape[0] - max(0, -oi), max(0, oj):shape[1] - max(0, -oj)]
            out += w * shifted
        return out

    mat = assemble(op, shape)
    for _ in range(20):
        v = rng.standard_normal(shape)
        np.testing.assert_allclose(
            mat @ v.ravel(), op(v).ravel(), atol=1e-13 * np.linalg.norm(v)
        )


def test_assemble_detects_nonlinearity():
    with pytest.raises(AssemblyError):
        assemble(lambda v: v + 0.01 * v**2, (5, 5))


def test_assemble_detects_wide_stencil():
    def op(v):
        out = v.copy()
        out[2:] += v[:-2]  # reach 2 in x
        return out

    with pytest.raises(AssemblyError):
        assemble(op, (7, 7))


def test_assemble_rectangular_matches_unit_columns(monkeypatch):
    # the naive baseline's node -> interior-equation operator, assembled by
    # colored probes, against one operator application per unknown
    g = make_grid(UNIT, 5, 4)
    ops = []
    monkeypatch.setattr(naive, "assemble", lambda op, shape: ops.append(op) or assemble(op, shape))
    for problem in (case_linear_variable(g, 1e-3).problem, case_angle(g, 1e-3, 0.6).problem):
        mat, _ = naive._interior_rows(problem)
        n = g.node_shape[0] * g.node_shape[1]
        dense = np.empty(((g.nx + 1) * (g.ny + 1), n))
        for j in range(n):
            unit = np.zeros(n)
            unit[j] = 1.0
            dense[:, j] = ops[-1](unit.reshape(g.node_shape)).ravel()
        np.testing.assert_array_equal(mat.toarray(), dense)


def test_assemble_rectangular_detects_wide_stencil():
    # output (i, j) sits at input (i + 2, j + 2) but reads input (i, j)
    with pytest.raises(AssemblyError):
        assemble(lambda v: v[:-4, :-4].copy(), (7, 6))


def _assemble_by_offsets(op_apply, shape, out_shape):
    """Reference: for each color class, place its response at all 9 offsets, masked."""
    nx, ny = shape
    mx, my = out_shape
    ox, oy = (nx - mx) // 2, (ny - my) // 2
    rows, cols, vals = [], [], []
    for cx in range(3):
        for cy in range(3):
            v = np.zeros(shape)
            v[cx::3, cy::3] = 1.0
            w = op_apply(v)
            aa, bb = np.meshgrid(np.arange(cx, nx, 3), np.arange(cy, ny, 3), indexing="ij")
            aa, bb = aa.ravel(), bb.ravel()
            for oi in (-1, 0, 1):
                for oj in (-1, 0, 1):
                    ra, rb = aa - ox + oi, bb - oy + oj
                    m = (ra >= 0) & (ra < mx) & (rb >= 0) & (rb < my)
                    rows.append(ra[m] * my + rb[m])
                    cols.append(aa[m] * ny + bb[m])
                    vals.append(w[ra[m], rb[m]])
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mx * my, nx * ny),
    ).tocsr()


def _assert_csr_identical(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("nx, ny", [(2, 3), (4, 5), (7, 7), (16, 9)])
@pytest.mark.parametrize("kind, value", [("linear", 0.1), ("angle", 0), ("angle", 45)])
def test_assemble_cell_systems_bitwise_equal_to_offset_loop(kind, value, nx, ny):
    g = make_grid(UNIT, nx, ny)
    if kind == "linear":
        problem = case_linear_variable(g, value).problem
    else:
        problem = case_angle(g, 1e-3, np.radians(value)).problem
    for op in (flux_operator(problem), apcore._cell_operator(problem)):
        _assert_csr_identical(assemble(op, (nx, ny)),
                              _assemble_by_offsets(op, (nx, ny), (nx, ny)))


@pytest.mark.parametrize("grid", [make_grid(UNIT, 5, 4), unit_square_grid(8)])
def test_assemble_naive_rows_and_dh_bitwise_equal_to_offset_loop(grid, monkeypatch):
    ops = []
    monkeypatch.setattr(naive, "assemble", lambda op, shape: ops.append(op) or assemble(op, shape))
    for eps in (1.0, 1e-6):
        mat, _ = naive._interior_rows(case_linear_variable(grid, eps).problem)
        _assert_csr_identical(mat, _assemble_by_offsets(ops[-1], grid.node_shape,
                                                        (grid.nx + 1, grid.ny + 1)))
    b = case_angle(grid, 1e-3, 0.6).problem.direction

    def dh(t):
        return apply_dh(NodeField(grid, t), b).values

    _assert_csr_identical(assemble(dh, grid.node_shape),
                          _assemble_by_offsets(dh, grid.node_shape, grid.cell_shape))


def test_assembled_pattern_symmetric_no_empty_rows():
    g = make_grid(UNIT, 6, 6)
    b = uniform_direction(g, 0.6, -0.8)
    rng = np.random.default_rng(1)
    cell_w = CellField(g, 1.0 + rng.random(g.cell_shape))
    node_w = NodeField(g, 1.0 + rng.random(g.node_shape))

    def op(v):
        chi = CellField.zeros(g)
        chi.values[1:-1, 1:-1] = v
        return compose_second_order(chi, cell_w, node_w, b).values[1:-1, 1:-1]

    mat = assemble(op, (g.nx, g.ny))
    assert np.all(np.diff(mat.indptr) > 0)  # no structurally empty rows
    pattern = (mat != 0).astype(int)
    assert (pattern != pattern.T).nnz == 0


def factor_solve(mat, perm, rhs, tol=1e-12):
    """``refine`` on ``mat`` with the ``lu_solve`` of its ``DirectFactor``: ``(x, residual)``."""
    return refine(mat, DirectFactor(mat, perm).lu_solve, rhs, tol)


def test_solve_identity():
    rhs = np.arange(5.0)
    x, residual = factor_solve(sp.eye(5, format="csr"), np.arange(5), rhs)
    np.testing.assert_array_equal(x, rhs)
    assert residual == 0.0


def test_solve_1d_poisson_vs_dense_oracle():
    n = 8
    main = 2.0 * np.ones(n)
    off = -np.ones(n - 1)
    mat = sp.diags([off, main, off], [-1, 0, 1], format="csr")
    rhs = np.ones(n)
    x, residual = factor_solve(mat, np.arange(n), rhs)
    expected = np.linalg.solve(mat.toarray(), rhs)
    assert residual <= 1e-12
    np.testing.assert_allclose(x, expected, rtol=1e-12)


def test_solve_reports_singular_failure():
    mat = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(RuntimeError):
        DirectFactor(mat, np.arange(2))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=1e-3)
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)


def test_solve_determinism():
    rng = np.random.default_rng(8)
    dense = rng.standard_normal((30, 30)) + 10.0 * np.eye(30)
    mat = sp.csr_matrix(dense)
    rhs = rng.standard_normal(30)
    x1, _ = factor_solve(mat, np.arange(30), rhs)
    x2, _ = factor_solve(mat, np.arange(30), rhs)
    np.testing.assert_array_equal(x1, x2)


def test_residual_recomputed_independently():
    # perturb the solution inside a fake report scenario: the residual the
    # solver reports must track A x - b, not an internal estimate
    n = 16
    mat = sp.diags([np.full(n - 1, -1.0), np.full(n, 2.0), np.full(n - 1, -1.0)],
                   [-1, 0, 1], format="csr")
    rhs = np.ones(n)
    x, residual = factor_solve(mat, np.arange(n), rhs)
    recomputed = np.linalg.norm(mat @ x - rhs) / np.linalg.norm(rhs)
    assert residual == pytest.approx(recomputed, abs=1e-18)


@settings(max_examples=80, deadline=None)
@given(nx=st.integers(2, 70), ny=st.integers(2, 70))
def test_nested_dissection_separates_halves(nx, ny):
    perm = nested_dissection(nx, ny)
    np.testing.assert_array_equal(np.sort(perm), np.arange(nx * ny))
    position = np.empty(nx * ny, dtype=int)
    position[perm] = np.arange(nx * ny)

    blocks = [np.arange(nx * ny).reshape(nx, ny)]
    while blocks:
        block = blocks.pop()
        split = linsolve._bisect(block)
        if split is None:
            continue
        first, second, separator = (part.ravel() for part in split)
        parts = np.concatenate([first, second, separator])
        np.testing.assert_array_equal(np.sort(parts), np.sort(block.ravel()))
        assert first.size and second.size and separator.size

        inner = np.zeros(nx * ny, dtype=int)
        inner[first] = 1
        inner[second] = 2
        inner = inner.reshape(nx, ny)
        label = np.pad(inner, 1)
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                neighbour = label[1 + di:nx + 1 + di, 1 + dj:ny + 1 + dj]
                assert not np.any((inner == 1) & (neighbour == 2))

        # both halves are eliminated before their separator
        assert position[np.concatenate([first, second])].max() < position[separator].min()
        blocks += [split[0], split[1]]


def test_nested_dissection_fills_less_than_colamd():
    g = unit_square_grid(128)
    problem = case_linear_variable(g, 0.1).problem
    b = problem.direction

    def op(v):
        chi = CellField.zeros(g)
        chi.values[INTERIOR] = v
        return compose_second_order(
            chi, problem.reaction_cell, problem.reaction_node, b
        ).values[INTERIOR]

    mat = assemble(op, (g.nx, g.ny))
    perm = nested_dissection(g.nx, g.ny)
    nd = DirectFactor(mat, perm)._lu
    colamd = spla.splu(mat.tocsc(), permc_spec="COLAMD")
    assert nd.L.nnz + nd.U.nnz < colamd.L.nnz + colamd.U.nnz


def test_direct_factor_unpermutes_solution():
    rng = np.random.default_rng(3)
    n = 40
    mat = sp.random(n, n, density=0.1, random_state=4, format="csr") + 5.0 * sp.eye(n)
    rhs = rng.standard_normal(n)
    x, residual = factor_solve(mat, rng.permutation(n), rhs)
    assert residual <= 1e-12
    np.testing.assert_allclose(x, np.linalg.solve(mat.toarray(), rhs), rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 40), density=st.floats(0.0, 0.5), seed=st.integers(0, 2**16))
def test_factor_order_equals_fancy_indexing_bitwise(n, density, seed):
    # stored zeros and unsorted input columns included
    rng = np.random.default_rng(seed)
    mat = sp.random(n, n, density=density, random_state=seed, format="csr")
    mat.data[rng.random(mat.nnz) < 0.3] = 0.0
    perm = rng.permutation(n)
    got = factor_order(mat, perm)
    want = mat[perm][:, perm].tocsc()
    assert got.format == "csc" and got.has_sorted_indices
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (5, 4), (9, 7)])
def test_stencil_matrix_equals_the_probe_of_its_stencil(shape):
    # weights off the grid are ignored, zeros on it are stored
    rng = np.random.default_rng(11)
    planes = rng.standard_normal((9, *shape))
    planes[rng.random(planes.shape) < 0.2] = 0.0
    nx, ny = shape

    def op(v):
        padded_v = np.pad(v, 1)
        out = np.zeros_like(v)
        for k in range(9):
            di, dj = divmod(k, 3)
            out += planes[k] * padded_v[di:di + nx, dj:dj + ny]
        return out

    got = stencil_matrix(planes)
    want = assemble(op, shape)
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
    assert not got.indices.flags.writeable


@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (5, 4), (9, 7), (4, 1)])
def test_symmetric_band_equals_the_band_of_its_matrix(shape):
    # read from the data of the stencil's CSR matrix
    rng = np.random.default_rng(12)
    matrix = stencil_matrix(rng.standard_normal((9, *shape)))
    weights = 0.5 + rng.random(shape[0] * shape[1])
    band = symmetric_band(matrix, weights, shape)
    assert band.flags.f_contiguous
    np.testing.assert_array_equal(band, band_oracle(matrix, weights, shape[1]))


def test_band_factor_solves_in_place(monkeypatch):
    # A = S diag(G) with S symmetric positive definite: dpbtrf overwrites the
    # band, and lu_solve applies A^-1 up to the rounding of symmetrizing S
    g = make_grid(UNIT, 7, 5)
    problem = case_angle(g, 1e-3, 0.6).problem
    matrix = apcore.assemble(problem)
    gc = problem.reaction_cell.values[INTERIOR].ravel()
    bands = []
    monkeypatch.setattr(linsolve, "symmetric_band",
                        lambda *args: bands.append(symmetric_band(*args)) or bands[-1])
    factor = BandFactor(matrix, gc, (g.nx, g.ny))
    assert np.shares_memory(factor._band, bands[0])
    rhs = np.random.default_rng(2).standard_normal(gc.size)
    x = factor.lu_solve(rhs)
    assert np.linalg.norm(matrix @ x - rhs) <= 1e-13 * np.linalg.norm(rhs)
    np.testing.assert_allclose(x, np.linalg.solve(matrix.toarray(), rhs), rtol=1e-12)


def test_band_factor_rejects_an_indefinite_band():
    g = make_grid(UNIT, 6, 6)
    problem = case_angle(g, 1e-3, 0.6).problem
    matrix = apcore.assemble(problem)
    matrix[7, 7] = -matrix[7, 7]
    with pytest.raises(RuntimeError, match="leading minor 8 is not positive definite"):
        BandFactor(matrix, problem.reaction_cell.values[INTERIOR].ravel(), (g.nx, g.ny))


@pytest.fixture
def blas_threads():
    """Reads the thread count of scipy's OpenBLAS, with the caller's set to 2 during the test."""
    lapack = ctypes.CDLL(scipy.linalg.lapack._flapack.__file__)
    getter = getattr(lapack, "scipy_openblas_get_num_threads", None)
    if getter is None or not hasattr(lapack, "openblas_set_num_threads_local"):
        pytest.skip("scipy's OpenBLAS sets no thread count per calling thread")
    setter = linsolve._blas_threads_setter()
    previous = setter(2)
    try:
        yield getter
    finally:
        setter(previous)


def test_band_lapack_runs_on_one_blas_thread(blas_threads, monkeypatch):
    g = make_grid(UNIT, 7, 5)
    problem = case_angle(g, 1e-3, 0.6).problem
    matrix = apcore.assemble(problem)
    gc = problem.reaction_cell.values[INTERIOR].ravel()
    seen = []
    for name in ("dpbtrf", "dpbtrs"):
        call = getattr(scipy.linalg.lapack, name)
        monkeypatch.setattr(scipy.linalg.lapack, name, lambda *args, call=call, name=name, **kw:
                            seen.append((name, blas_threads())) or call(*args, **kw))
    factor = BandFactor(matrix, gc, (g.nx, g.ny))
    assert blas_threads() == 2
    factor.lu_solve(np.ones(gc.size))
    assert blas_threads() == 2
    matrix[7, 7] = -matrix[7, 7]
    with pytest.raises(RuntimeError, match="not positive definite"):
        BandFactor(matrix, gc, (g.nx, g.ny))
    assert blas_threads() == 2
    with pytest.raises(ZeroDivisionError):
        linsolve._on_one_blas_thread(lambda: 1 / 0)
    assert blas_threads() == 2
    assert seen == [("dpbtrf", 1), ("dpbtrs", 1), ("dpbtrf", 1)]


def test_band_factor_without_the_thread_setter_is_bitwise_equal(monkeypatch):
    # where scipy's OpenBLAS is not found the band runs on the caller's threads;
    # the 99-wide band of 100 cells per side is split over them there
    g = unit_square_grid(100)
    problem = case_angle(g, 1e-3, 0.6).problem
    matrix = apcore.assemble(problem)
    gc = problem.reaction_cell.values[INTERIOR].ravel()
    rhs = np.random.default_rng(5).standard_normal((3, gc.size))

    def factored():
        factor = BandFactor(matrix, gc, (g.nx, g.ny))
        return factor._band.copy(), [factor.lu_solve(r) for r in rhs]

    capped = factored()

    def missing(*args):
        raise OSError("no such library")

    linsolve._blas_threads_setter.cache_clear()
    try:
        monkeypatch.setattr(linsolve.ctypes, "CDLL", missing)
        assert linsolve._blas_threads_setter()(1) == 1
        uncapped = factored()
    finally:
        monkeypatch.undo()
        linsolve._blas_threads_setter.cache_clear()
    for mine, ref in zip([capped[0], *capped[1]], [uncapped[0], *uncapped[1]]):
        assert mine.tobytes() == ref.tobytes()


def test_nested_dissection_is_kept_read_only():
    perm = nested_dissection(12, 9)
    assert nested_dissection(12, 9) is perm
    assert not perm.flags.writeable


# One BLAS pool ----------------------------------------------------------------
#
# The package's reductions and the ghost fill's QR and SVD call scipy's BLAS
# and LAPACK in place of numpy's, on the promise that each returns the same
# bits; if a wheel breaks that, these tests name the call.


@pytest.mark.parametrize("n", [1, 10000, 10001, 39601])
def test_dot_and_norm2_equal_numpy_bitwise(n):
    # from 10001 elements OpenBLAS splits a dot product over its threads
    a, b = np.random.default_rng(n).standard_normal((2, n))
    assert linsolve.dot(a, b) == np.dot(a, b)
    assert linsolve.norm2(a) == np.linalg.norm(a)
    assert linsolve.norm2(b) == np.linalg.norm(b)


def test_norm2_of_an_interior_view_equals_numpy_bitwise():
    # the interior cells and nodes of the Gummel loop at 200 squares per side
    g = unit_square_grid(200)
    rng = np.random.default_rng(3)
    cells = CellField(g, rng.standard_normal(g.cell_shape))
    nodes = NodeField(g, rng.standard_normal(g.node_shape))
    for field, size in ((cells, 39601), (nodes, 40000)):
        view = field.values[INTERIOR]
        assert not view.flags.c_contiguous and view.size == size
        assert linsolve.norm2(view) == np.linalg.norm(view)
        flat = view.ravel()
        assert linsolve.dot(flat, flat) == np.dot(flat, flat)


@pytest.mark.parametrize("ghosts", [404, 804, 1604])
def test_scipy_qr_and_svd_equal_numpy_bitwise_at_ghost_block_shapes(ghosts):
    # the ghost fill's blocks at 100, 200 and 400 cells per side
    rng = np.random.default_rng(ghosts)
    block = rng.standard_normal((2 * ghosts, apcore.GHOST_BLOCK))
    for a in (block, block[:ghosts], block[ghosts:]):
        for mine, ref in zip(scipy.linalg.qr(a, mode="economic"), np.linalg.qr(a)):
            np.testing.assert_array_equal(mine, ref)
        for mine, ref in zip(scipy.linalg.svd(a, full_matrices=False),
                             np.linalg.svd(a, full_matrices=False)):
            np.testing.assert_array_equal(mine, ref)
    square = rng.standard_normal((5, 5))
    for mine, ref in zip(scipy.linalg.svd(square), np.linalg.svd(square)):
        np.testing.assert_array_equal(mine, ref)
