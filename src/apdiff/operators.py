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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import INTERIOR, CellField, CellVectorField, Grid, NodeField

__all__ = [
    "OperatorContext",
    "apply_dh",
    "apply_dh_star",
    "compose_second_order",
    "duality_defect",
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
