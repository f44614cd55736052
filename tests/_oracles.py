"""Independent dense reference implementations used across the test suite.

Everything here is written with explicit scalar loops and plain matrix
algebra, deliberately avoiding the vectorized production code paths, so the
two can check each other.  :func:`duality_defect` is the exception: it is the
property the production stencils must have, so it applies them.
"""

import numpy as np

from apdiff.grid import INTERIOR
from apdiff.operators import apply_dh, apply_dh_star


def dense_dh(grid, b_values):
    """All-cells x all-nodes matrix of the directional-gradient stencil."""
    nx, ny = grid.nx, grid.ny
    sy_n = ny + 3
    out = np.zeros(((nx + 2) * (ny + 2), (nx + 3) * sy_n))
    for ci in range(nx + 2):
        for cj in range(ny + 2):
            r = ci * (ny + 2) + cj
            bx, by = b_values[ci, cj]
            for di in (0, 1):
                for dj in (0, 1):
                    c = (ci + di) * sy_n + (cj + dj)
                    sx = 1.0 if di == 1 else -1.0
                    sy = 1.0 if dj == 1 else -1.0
                    out[r, c] += sx * bx / (2.0 * grid.dx) + sy * by / (2.0 * grid.dy)
    return out


def dense_dh_star(grid, b_values):
    """Interior-nodes x all-cells matrix of the weighted-divergence stencil."""
    nx, ny = grid.nx, grid.ny
    sy_c = ny + 2
    out = np.zeros(((nx + 1) * (ny + 1), (nx + 2) * sy_c))
    for i in range(nx + 1):
        for j in range(ny + 1):
            r = i * (ny + 1) + j
            # surrounding cells have array indices (i + di, j + dj), di/dj in {0, 1}
            for di in (0, 1):
                for dj in (0, 1):
                    ci, cj = i + di, j + dj
                    c = ci * sy_c + cj
                    bx, by = b_values[ci, cj]
                    sx = 1.0 if di == 1 else -1.0
                    sy = 1.0 if dj == 1 else -1.0
                    out[r, c] += sx * bx / (2.0 * grid.dx) + sy * by / (2.0 * grid.dy)
    return out


def interior_cell_embedding(grid):
    """All-cells x interior-cells injection matrix (ring rows are zero)."""
    nx, ny = grid.nx, grid.ny
    out = np.zeros(((nx + 2) * (ny + 2), nx * ny))
    for i in range(nx):
        for j in range(ny):
            out[(i + 1) * (ny + 2) + (j + 1), i * ny + j] = 1.0
    return out


def interior_node_embedding(grid):
    """All-nodes x interior-nodes injection matrix (ghost rows are zero)."""
    nx, ny = grid.nx, grid.ny
    out = np.zeros(((nx + 3) * (ny + 3), (nx + 1) * (ny + 1)))
    for i in range(nx + 1):
        for j in range(ny + 1):
            out[(i + 1) * (ny + 3) + (j + 1), i * (ny + 1) + j] = 1.0
    return out


def dense_second_order(grid, b_values, cell_w, node_w):
    """Interior-cells matrix of ``-dh((1/node_w) dh*(cell_w chi))``."""
    nx, ny = grid.nx, grid.ny
    dh = dense_dh(grid, b_values)
    ds = dense_dh_star(grid, b_values)
    e_cells = interior_cell_embedding(grid)
    e_nodes = interior_node_embedding(grid)
    w_cell = np.diag(cell_w.ravel())
    w_node = np.diag(1.0 / node_w[1:-1, 1:-1].ravel())
    full = -dh @ e_nodes @ w_node @ ds @ w_cell @ e_cells
    return e_cells.T @ full  # restrict rows to interior cells


def duality_defect(theta, chi, b):
    """Summation-by-parts defect; vanishes to rounding for ``chi = 0`` on the ring.

    Returns ``sum_cells (dh theta) chi dx dy + sum_nodes theta (dh* chi) dx dy``
    with the node sum over the interior node set.
    """
    g = b.grid
    w = g.dx * g.dy
    cell_sum = float(np.sum(apply_dh(theta, b).values * chi.values)) * w
    node_sum = float(np.sum(theta.values[INTERIOR] * apply_dh_star(chi, b).values[INTERIOR])) * w
    return cell_sum + node_sum


def lattice(grid, kind):
    """Full ``indexing="ij"`` meshgrid of the ``"node"`` or the ``"cell"`` lattice."""
    if kind == "node":
        return np.meshgrid(grid.node_xs, grid.node_ys, indexing="ij")
    return np.meshgrid(grid.cell_xs, grid.cell_ys, indexing="ij")


def full_lattice_sample(fn, grid, kind):
    """``fn`` evaluated on the full lattice meshgrid, the way sampling worked before broadcast axes.

    ``kind`` is ``"node"``, ``"cell"`` or ``"cell vector"``; a vector ``fn``
    returns ``(vx, vy)`` and the result stacks them on a last axis.
    """
    xs, ys = lattice(grid, "node" if kind == "node" else "cell")
    full = lambda v: np.broadcast_to(np.asarray(v, dtype=float), xs.shape).copy()
    if kind == "cell vector":
        return np.stack([full(v) for v in fn(xs, ys)], axis=-1)
    return full(fn(xs, ys))


def central_difference(fn, x, y, step=1e-5):
    """Gradient of a scalar function by central differences."""
    gx = (fn(x + step, y) - fn(x - step, y)) / (2.0 * step)
    gy = (fn(x, y + step) - fn(x, y - step)) / (2.0 * step)
    return gx, gy
