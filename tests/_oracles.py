"""Independent dense reference implementations used across the test suite.

Everything here is written with explicit scalar loops and plain matrix
algebra, deliberately avoiding the vectorized production code paths, so the
two can check each other.  :func:`duality_defect` is the exception: it is the
property the production stencils must have, so it applies them.
"""

import mpmath
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


def _mp_lu(a):
    """LU with partial pivoting of a square object array of mpf: ``(lu, perm)``, ``a[perm] = L U``.

    Zero entries of the pivot column and row are skipped, which keeps the
    elimination of sparse systems cheap.
    """
    n = a.shape[0]
    lu = a.copy()
    perm = np.arange(n)
    for k in range(n):
        piv = k + int(np.argmax(np.abs(lu[k:, k])))
        lu[[k, piv]] = lu[[piv, k]]
        perm[[k, piv]] = perm[[piv, k]]
        rows = k + 1 + np.flatnonzero(lu[k + 1:, k])
        cols = k + 1 + np.flatnonzero(lu[k, k + 1:])
        lu[rows, k] /= lu[k, k]
        lu[np.ix_(rows, cols)] -= np.outer(lu[rows, k], lu[k, cols])
    return lu, perm


def _mp_lu_solve(lu, perm, b, trans=False):
    """Solve ``a x = b``, or ``a^T x = b``, from :func:`_mp_lu`; ``b`` is 1-D or 2-D."""
    n = lu.shape[0]
    if not trans:
        x = b[perm].copy()
        for k in range(n):
            x[k + 1:] -= np.multiply.outer(lu[k + 1:, k], x[k])
        for k in range(n - 1, -1, -1):
            x[k] = (x[k] - lu[k, k + 1:] @ x[k + 1:]) / lu[k, k]
        return x
    x = b.copy()
    for k in range(n):
        x[k] = (x[k] - lu[:k, k] @ x[:k]) / lu[k, k]
    for k in range(n - 1, -1, -1):
        x[k] -= lu[k + 1:, k] @ x[k + 1:]
    out = x.copy()
    out[perm] = x
    return out


def _mp_orthonormal(v):
    """Gram-Schmidt on the columns of an object array of mpf."""
    for j in range(v.shape[1]):
        for i in range(j):
            v[:, j] -= (v[:, i] @ v[:, j]) * v[:, i]
        v[:, j] /= mpmath.sqrt(v[:, j] @ v[:, j])
    return v


def truncated_lstsq_40_digits(a, b, rank):
    """Minimum-norm least squares of a square, exactly singular float64 system, in 40 digits.

    The truncated SVD that keeps ``rank`` singular values, for a matrix whose
    other singular values are exact zeros: its null spaces are found in
    40-digit ``mpmath`` arithmetic by one step of inverse iteration, shifted
    by 1e-30 and started from the float64 singular vectors, and checked to
    annihilate ``a`` to 1e-30.  The solution is the shifted solve of the
    consistent part of ``b``, projected off the right null space, and is
    checked to solve it to 1e-25 relative.  Returns it in float64.
    """
    n = a.shape[0]
    with mpmath.workdps(40):
        to_mp = np.vectorize(mpmath.mpf, otypes=[object])
        am, bm = to_mp(a), to_mp(b)
        u, _, vt = np.linalg.svd(a)
        lu, perm = _mp_lu(am + mpmath.mpf("1e-30") * np.eye(n, dtype=int))
        v = _mp_orthonormal(_mp_lu_solve(lu, perm, to_mp(vt[rank:].T)))
        w = _mp_orthonormal(_mp_lu_solve(lu, perm, to_mp(u[:, rank:]), trans=True))
        assert max(abs(t) for t in (am @ v).ravel()) < 1e-30
        assert max(abs(t) for t in (am.T @ w).ravel()) < 1e-30
        consistent = bm - w @ (w.T @ bm)
        y = _mp_lu_solve(lu, perm, consistent)
        x = y - v @ (v.T @ y)
        defect = mpmath.sqrt(sum(t * t for t in am @ x - consistent))
        assert defect <= 1e-25 * mpmath.sqrt(consistent @ consistent)
        return np.array([float(t) for t in x])
