"""Dual discrete operators on the staggered grid.

``apply_dh`` approximates the directional derivative along the anisotropy
direction (nodes -> cells) and ``apply_dh_star`` the weighted divergence of a
cell quantity carried by that direction (cells -> nodes).  The two stencils
are built so that a discrete summation-by-parts identity holds exactly: for
any node field theta and any cell field chi vanishing on the boundary cell
ring,

    sum_cells (dh theta) chi dx dy  +  sum_nodes theta (dh* chi) dx dy  =  0

up to rounding.  The second-order systems of the solver are compositions of
the two, which is what makes the solution decomposition work at the discrete
level.

Stencil layout at cell (i+1/2, j+1/2), whose corners are the four nodes
(i..i+1, j..j+1):

    (dh theta) = b_x * [t(i+1,j+1) - t(i,j+1) + t(i+1,j) - t(i,j)] / (2 dx)
               + b_y * [t(i+1,j+1) - t(i+1,j) + t(i,j+1) - t(i,j)] / (2 dy)

and at node (i,j), surrounded by the four cells (i+-1/2, j+-1/2):

    (dh* chi) = [ (bx chi)(i+1/2,j+1/2) - (bx chi)(i-1/2,j+1/2)
                + (bx chi)(i+1/2,j-1/2) - (bx chi)(i-1/2,j-1/2) ] / (2 dx)
              + [ (by chi)(i+1/2,j+1/2) - (by chi)(i+1/2,j-1/2)
                + (by chi)(i-1/2,j+1/2) - (by chi)(i-1/2,j-1/2) ] / (2 dy)

Evaluation order is fixed (x pair first, then y pair) so results are bitwise
reproducible.

The boundary rows are built here too, as sparse matrices over the node
lattice: :func:`ring_dh` gives the ``dh`` rows of the boundary cell ring,
where the flux condition ``dh p = b.S`` is imposed, and
:func:`ghost_extrapolation` the one-sided second-order extrapolation rows
that close the ghost nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .grid import INTERIOR, CellField, CellVectorField, Grid, NodeField

__all__ = [
    "OperatorContext",
    "apply_dh",
    "apply_dh_star",
    "compose_second_order",
    "duality_defect",
    "ring_dh",
    "ghost_extrapolation",
]


@dataclass
class OperatorContext:
    """Grid plus the cell-centered anisotropy direction, nonzero everywhere."""

    grid: Grid
    b: CellVectorField

    def __post_init__(self):
        norms = np.hypot(self.b.x, self.b.y)
        if not np.all(norms > 0.0):
            raise ValueError("anisotropy direction has zero vectors")


def apply_dh(theta: NodeField, ctx: OperatorContext) -> CellField:
    """Directional derivative of a node field, at every cell center."""
    g = ctx.grid
    t = theta.values
    dxa = (t[1:, 1:] - t[:-1, 1:] + t[1:, :-1] - t[:-1, :-1]) / (2.0 * g.dx)
    dya = (t[1:, 1:] - t[1:, :-1] + t[:-1, 1:] - t[:-1, :-1]) / (2.0 * g.dy)
    return CellField(g, ctx.b.x * dxa + ctx.b.y * dya)


def apply_dh_star(chi: CellField, ctx: OperatorContext) -> NodeField:
    """Weighted divergence of a cell field, at interior nodes.

    The result is only defined on nodes whose four surrounding cells exist,
    i.e. the interior node set; the ghost ring of the output is left at zero.
    """
    g = ctx.grid
    cx = ctx.b.x * chi.values
    cy = ctx.b.y * chi.values
    xp = (cx[1:, 1:] - cx[:-1, 1:] + cx[1:, :-1] - cx[:-1, :-1]) / (2.0 * g.dx)
    yp = (cy[1:, 1:] - cy[1:, :-1] + cy[:-1, 1:] - cy[:-1, :-1]) / (2.0 * g.dy)
    out = NodeField.zeros(g)
    out.values[INTERIOR] = xp + yp
    return out


def compose_second_order(
    chi: CellField,
    cell_w: CellField,
    node_w: NodeField,
    ctx: OperatorContext,
) -> CellField:
    """Second-order operator ``-dh( (1/node_w) dh*( cell_w * chi ) )``.

    ``chi`` is forced to zero on the boundary cell ring before the inner
    divergence is taken (the homogeneous condition of the auxiliary systems),
    and the output is restricted to interior cells, ring zeroed.
    """
    g = ctx.grid
    nw = node_w.values[INTERIOR]
    if not np.all(nw > 0.0):
        raise ValueError("node weight must be strictly positive on interior nodes")

    chi0 = chi.values.copy()
    chi0[0, :] = 0.0
    chi0[-1, :] = 0.0
    chi0[:, 0] = 0.0
    chi0[:, -1] = 0.0
    inner = apply_dh_star(CellField(g, cell_w.values * chi0), ctx)

    scaled = NodeField.zeros(g)
    scaled.values[INTERIOR] = inner.values[INTERIOR] / nw
    out = apply_dh(scaled, ctx)

    result = CellField.zeros(g)
    result.values[INTERIOR] = -out.values[INTERIOR]
    return result


def duality_defect(theta: NodeField, chi: CellField, ctx: OperatorContext) -> float:
    """Summation-by-parts defect; vanishes to rounding for ``chi = 0`` on the ring.

    Returns ``sum_cells (dh theta) chi dx dy + sum_nodes theta (dh* chi) dx dy``
    with the node sum over the interior node set.
    """
    g = ctx.grid
    w = g.dx * g.dy
    cell_sum = float(np.sum(apply_dh(theta, ctx).values * chi.values)) * w
    node_sum = float(np.sum(theta.values[INTERIOR] * apply_dh_star(chi, ctx).values[INTERIOR])) * w
    return cell_sum + node_sum


def _outer_ring(shape: tuple[int, int]) -> np.ndarray:
    """Flat row-major indices of the outermost ring of an array of ``shape``, ascending."""
    mask = np.ones(shape, dtype=bool)
    mask[INTERIOR] = False
    return np.flatnonzero(mask)


def ring_dh(ctx: OperatorContext) -> tuple[np.ndarray, sp.csr_matrix]:
    """The ``dh`` stencil of the boundary cell ring as a ring x node matrix.

    Returns ``(ring, matrix)``: ``ring`` holds the flat row-major indices of
    the ring cells in the cell array, ascending, and row ``r`` of ``matrix``
    is ``dh`` at cell ``ring[r]`` over all node values, row-major.  Entries
    equal those of a probed :func:`apply_dh` bit for bit, stored zeros
    included.
    """
    g = ctx.grid
    ring = _outer_ring(g.cell_shape)
    ci, cj = np.unravel_index(ring, g.cell_shape)
    bx, by = ctx.b.x[ci, cj], ctx.b.y[ci, cj]
    sy = g.node_shape[1]
    cols, vals = [], []
    for di in (0, 1):
        for dj in (0, 1):
            cols.append((ci + di) * sy + cj + dj)
            vals.append(bx * ((2 * di - 1) / (2.0 * g.dx)) + by * ((2 * dj - 1) / (2.0 * g.dy)))
    rows = np.tile(np.arange(ring.size), 4)
    matrix = sp.csr_matrix((np.concatenate(vals), (rows, np.concatenate(cols))),
                           shape=(ring.size, g.node_shape[0] * sy))
    return ring, matrix


def ghost_extrapolation(grid: Grid) -> tuple[np.ndarray, sp.csr_matrix]:
    """Inward one-sided second-order extrapolation rows of the ghost nodes.

    Returns ``(ghosts, matrix)``: ``ghosts`` holds the flat row-major indices
    of the ghost nodes, ascending, and row ``r`` of ``matrix`` is
    ``[1, -2, 1]`` on ghost ``ghosts[r]`` and its next two nodes inward:
    normal to its edge, and diagonal at the four corners.  Each row vanishes
    on affine node fields.
    """
    shape = grid.node_shape
    ghosts = _outer_ring(shape)
    ai, aj = np.unravel_index(ghosts, shape)
    di = (ai == 0).astype(int) - (ai == shape[0] - 1)
    dj = (aj == 0).astype(int) - (aj == shape[1] - 1)
    step = di * shape[1] + dj
    cols = np.stack([ghosts, ghosts + step, ghosts + 2 * step], axis=1).ravel()
    rows = np.repeat(np.arange(ghosts.size), 3)
    vals = np.tile([1.0, -2.0, 1.0], ghosts.size)
    matrix = sp.csr_matrix((vals, (rows, cols)), shape=(ghosts.size, shape[0] * shape[1]))
    return ghosts, matrix
