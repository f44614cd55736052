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

Every stencil takes the direction b as a :class:`grid.CellVectorField` and
reads the grid from it; the problem types check that b has no zero vector
when they are built.  Evaluation order is fixed (x pair first, then y pair)
so results are bitwise reproducible.

:func:`second_order_stencil` gives the nine stencil coefficients of
:func:`compose_second_order` per interior cell, evaluated in the operation
order of the operator itself, so that they equal a probe of it bit for bit.
The boundary rows are built here too, as sparse matrices over the node
lattice: :func:`ring_dh` gives the ``dh`` rows of the boundary cell ring,
where the flux condition ``dh p = b.S`` is imposed, and
:func:`ghost_extrapolation` the one-sided second-order extrapolation rows
that close the ghost nodes.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .grid import INTERIOR, CellField, CellVectorField, Grid, NodeField

__all__ = [
    "apply_dh",
    "apply_dh_star",
    "compose_second_order",
    "second_order_stencil",
    "ring_dh",
    "ghost_extrapolation",
]


# Offsets of a cell's four corner nodes, and of a node's four cells plus (1, 1),
# in the order 11, 01, 10, 00 of the pair sums.
_CORNERS = ((1, 1), (0, 1), (1, 0), (0, 0))


def _corners(a: np.ndarray) -> list:
    """The four views of ``a`` one row and one column shorter, in ``_CORNERS`` order."""
    m, n = a.shape[0] - 1, a.shape[1] - 1
    return [a[ci:ci + m, cj:cj + n] for ci, cj in _CORNERS]


def _pair_sum(t: list, two_d: float, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """``(((t11 - t01) + t10) - t00) / two_d``, with t01 and t10 swapped for ``axis`` 1.

    The difference pairs of both stencils, in the one evaluation order that
    every stencil here and :func:`second_order_stencil` share.
    """
    first, second = (t[1], t[2]) if axis == 0 else (t[2], t[1])
    out = np.subtract(t[0], first, out=out)
    out += second
    out -= t[3]
    out /= two_d
    return out


def apply_dh(theta: NodeField, b: CellVectorField) -> CellField:
    """Directional derivative of a node field, at every cell center."""
    g = b.grid
    t = _corners(theta.values)
    dxa = _pair_sum(t, 2.0 * g.dx, 0)
    dya = _pair_sum(t, 2.0 * g.dy, 1)
    return CellField(g, b.x * dxa + b.y * dya)


def apply_dh_star(chi: CellField, b: CellVectorField) -> NodeField:
    """Weighted divergence of a cell field, at interior nodes.

    The result is only defined on nodes whose four surrounding cells exist,
    i.e. the interior node set; the ghost ring of the output is left at zero.
    """
    g = b.grid
    xp = _pair_sum(_corners(b.x * chi.values), 2.0 * g.dx, 0)
    yp = _pair_sum(_corners(b.y * chi.values), 2.0 * g.dy, 1)
    return NodeField.on_interior(g, xp + yp)


def compose_second_order(
    chi: CellField,
    cell_w: CellField,
    node_w: NodeField,
    b: CellVectorField,
) -> CellField:
    """Second-order operator ``-dh( (1/node_w) dh*( cell_w * chi ) )``.

    ``chi`` is forced to zero on the boundary cell ring before the inner
    divergence is taken (the homogeneous condition of the auxiliary systems),
    and the output is restricted to interior cells, ring zeroed.
    """
    g = b.grid
    nw = node_w.values[INTERIOR]
    if not np.all(nw > 0.0):
        raise ValueError("node weight must be strictly positive on interior nodes")

    chi0 = CellField.on_interior(g, chi.values[INTERIOR])
    inner = apply_dh_star(CellField(g, cell_w.values * chi0.values), b)
    out = apply_dh(NodeField.on_interior(g, inner.values[INTERIOR] / nw), b)
    return CellField.on_interior(g, -out.values[INTERIOR])


def second_order_stencil(cell_w: CellField, node_w: NodeField, b: CellVectorField) -> np.ndarray:
    """Coefficients of :func:`compose_second_order` on the interior cells, ring held at zero.

    Returns an array of shape ``(9, nx, ny)``:
    ``[3 * (di + 1) + (dj + 1), i, j]`` is the weight of interior cell
    ``(i + di, j + dj)`` in the equation of interior cell ``(i, j)``, counted
    from 0; weights of cells off the interior are meaningless.  Each weight
    is evaluated as :func:`compose_second_order` evaluates it on a unit
    probe of that cell: the ``dh*`` pair sums over ``b (cell_w 1)``, with
    ``b (cell_w 0)`` for every other cell, each divided by ``2 dx`` or
    ``2 dy``; their sum divided by ``node_w``; the ``dh`` pair sums of those
    node values; and ``-(b_x dxa + b_y dya)``.  So every weight, and every
    signed zero among them, equals the probed entry bit for bit.
    """
    g = b.grid
    nx, ny = g.nx, g.ny
    two = (2.0 * g.dx, 2.0 * g.dy)
    hit = (_corners(b.x * cell_w.values), _corners(b.y * cell_w.values))
    miss = (_corners(b.x * 0.0), _corners(b.y * 0.0))
    nw = node_w.values[INTERIOR]
    buf = np.empty((nx + 1, ny + 1))

    def node_values(role):
        # dh* of a probe of cell node + _CORNERS[role] - (1, 1), over node_w, at interior nodes
        out = np.empty((nx + 1, ny + 1))
        for axis, target in enumerate((out, buf)):
            t = [h if k == role else m for k, (h, m) in enumerate(zip(hit[axis], miss[axis]))]
            _pair_sum(t, two[axis], axis, target)
        out += buf
        out /= nw
        return out

    probed = [node_values(role) for role in range(4)]
    unprobed = node_values(None)
    planes = np.empty((9, nx, ny))
    dya = np.empty((nx, ny))
    for k in range(9):
        di, dj = divmod(k, 3)
        t = []
        for ei, ej in _CORNERS:
            # the probed cell, offset (di - 1, dj - 1), seen from corner node (ei, ej)
            role = (di - ei, dj - ej)
            source = probed[_CORNERS.index(role)] if role in _CORNERS else unprobed
            t.append(source[ei:ei + nx, ej:ej + ny])
        dxa = _pair_sum(t, two[0], 0, planes[k])
        _pair_sum(t, two[1], 1, dya)
        dxa *= b.x[INTERIOR]
        dya *= b.y[INTERIOR]
        dxa += dya
        np.negative(dxa, out=dxa)
    return planes


def _outer_ring(shape: tuple[int, int]) -> np.ndarray:
    """Flat row-major indices of the outermost ring of an array of ``shape``, ascending."""
    mask = np.ones(shape, dtype=bool)
    mask[INTERIOR] = False
    return np.flatnonzero(mask)


def ring_dh(b: CellVectorField) -> tuple[np.ndarray, sp.csr_matrix]:
    """The ``dh`` stencil of the boundary cell ring as a ring x node matrix.

    Returns ``(ring, matrix)``: ``ring`` holds the flat row-major indices of
    the ring cells in the cell array, ascending, and row ``r`` of ``matrix``
    is ``dh`` at cell ``ring[r]`` over all node values, row-major: the
    weights on the four corner nodes of the cell, in ascending node order.
    Entries equal those of a probed :func:`apply_dh` bit for bit, stored
    zeros included.
    """
    g = b.grid
    ring = _outer_ring(g.cell_shape)
    ci, cj = np.unravel_index(ring, g.cell_shape)
    bx, by = b.x.flat[ring], b.y.flat[ring]
    sy = g.node_shape[1]
    corners = [(di, dj) for di in (0, 1) for dj in (0, 1)]
    nodes = np.stack([(ci + di) * sy + cj + dj for di, dj in corners], axis=1)
    weights = np.stack([bx * ((2 * di - 1) / (2.0 * g.dx)) + by * ((2 * dj - 1) / (2.0 * g.dy))
                        for di, dj in corners], axis=1)
    matrix = sp.csr_matrix((weights.ravel(), nodes.ravel(), np.arange(0, nodes.size + 1, 4)),
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
