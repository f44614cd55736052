"""Uniform 2D staggered mesh with one ghost ring, plus dense field containers.

The node, cell and cell-vector fields share one base: a float array of its
lattice's shape, checked on construction, ``zeros``, ``copy``, and
``on_interior``, which builds a field that is zero on its outer ring, the
form of every auxiliary potential and reconstructed part of the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "NodeField",
    "CellField",
    "CellVectorField",
    "make_grid",
    "sample_node",
    "sample_cell",
    "sample_cell_vec",
    "coarse_grid",
    "inject_cell",
    "restrict_node",
    "prolong_node",
]

# slice picking the interior part of a node array (indices 0..n) or of a
# cell array (indices 0..n-1), i.e. everything but the outer ring
INTERIOR = (slice(1, -1), slice(1, -1))


@dataclass(frozen=True)
class Grid:
    """Uniform Cartesian mesh over ``[x_min, x_max] x [y_min, y_max]``.

    The domain is split into ``(nx + 1) x (ny + 1)`` equal squares.  Scalar
    unknowns live on the node lattice at the square centers,
    ``x_i = x_min + (i + 1/2) dx`` for ``i in {-1, .., nx + 1}``; the
    ``i = -1`` and ``i = nx + 1`` rings are ghost nodes lying outside the
    domain.  Staggered cell centers ``x_{i+1/2} = x_min + (i + 1) dx`` for
    ``i in {-1, .., nx}`` interleave the nodes; the outermost cell ring sits
    exactly on the domain boundary, where the flux conditions are imposed.

    Node arrays have shape ``(nx + 3, ny + 3)`` and cell arrays
    ``(nx + 2, ny + 2)``; array index = logical index + 1 in each direction.
    """

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    nx: int
    ny: int

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.nx + 1)

    @property
    def dy(self) -> float:
        return (self.y_max - self.y_min) / (self.ny + 1)

    @property
    def h(self) -> float:
        return max(self.dx, self.dy)

    @property
    def node_shape(self) -> tuple[int, int]:
        return (self.nx + 3, self.ny + 3)

    @property
    def cell_shape(self) -> tuple[int, int]:
        return (self.nx + 2, self.ny + 2)

    @cached_property
    def node_xs(self) -> np.ndarray:
        return _read_only(self.x_min + (np.arange(-1, self.nx + 2) + 0.5) * self.dx)

    @cached_property
    def node_ys(self) -> np.ndarray:
        return _read_only(self.y_min + (np.arange(-1, self.ny + 2) + 0.5) * self.dy)

    @cached_property
    def cell_xs(self) -> np.ndarray:
        return _read_only(self.x_min + (np.arange(-1, self.nx + 1) + 1.0) * self.dx)

    @cached_property
    def cell_ys(self) -> np.ndarray:
        return _read_only(self.y_min + (np.arange(-1, self.ny + 1) + 1.0) * self.dy)


def _read_only(axis: np.ndarray) -> np.ndarray:
    """Freeze a cached axis: every sample on the grid reads it."""
    axis.flags.writeable = False
    return axis


def make_grid(bounds, nx: int, ny: int) -> Grid:
    """Build a uniform grid over ``bounds = ((x_min, x_max), (y_min, y_max))``.

    ``nx`` and ``ny`` count the interior nodes per direction minus one, so a
    mesh of ``k x k`` squares is obtained with ``nx = ny = k - 1``.
    """
    (x_min, x_max), (y_min, y_max) = bounds
    if not (np.all(np.isfinite(bounds)) and x_max > x_min and y_max > y_min):
        raise ValueError(f"domain bounds must be finite with positive extents, got {bounds}")
    if not all(isinstance(n, (int, np.integer)) and n >= 2 for n in (nx, ny)):
        raise ValueError(f"need integer nx, ny >= 2, got nx={nx!r}, ny={ny!r}")
    return Grid(float(x_min), float(x_max), float(y_min), float(y_max), int(nx), int(ny))


@dataclass
class _Field:
    """Values on one lattice of ``grid``, which the subclass's ``_shape`` gives.

    The outer ring of a field is the first and last row and column of its
    lattice: the ghost nodes of a node field, the boundary cells of a cell
    field.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        shape = self._shape(self.grid)
        if self.values.shape != shape:
            raise ValueError(f"{self._what} array has shape {self.values.shape}, expected {shape}")

    @classmethod
    def zeros(cls, grid: Grid):
        return cls(grid, np.zeros(cls._shape(grid)))

    @classmethod
    def on_interior(cls, grid: Grid, values):
        """Zeros on the outer ring and ``values``, reshaped to fit, inside it."""
        field = cls.zeros(grid)
        field.values[INTERIOR] = np.reshape(values, field.values[INTERIOR].shape)
        return field

    def copy(self):
        return type(self)(self.grid, self.values.copy())


class NodeField(_Field):
    """Scalar values on the full node lattice (ghost ring included)."""

    _what, _shape = "node", staticmethod(lambda grid: grid.node_shape)


class CellField(_Field):
    """Scalar values at every cell center (boundary ring included)."""

    _what, _shape = "cell", staticmethod(lambda grid: grid.cell_shape)


class CellVectorField(_Field):
    """2-vectors at every cell center; last axis is the (x, y) component."""

    _what, _shape = "cell vector", staticmethod(lambda grid: grid.cell_shape + (2,))

    @property
    def x(self) -> np.ndarray:
        return self.values[..., 0]

    @property
    def y(self) -> np.ndarray:
        return self.values[..., 1]


def _axes(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fresh broadcast axes for a closed form: an ``(n, 1)`` x column and a ``(1, m)`` y row."""
    return xs[:, None].copy(), ys[None, :].copy()


def _lattice(values, xs: np.ndarray, ys: np.ndarray, what: str) -> np.ndarray:
    """Broadcast a closed form's result to the ``(len(xs), len(ys))`` lattice and check it.

    The result may be a scalar or a 2-d array broadcastable to the lattice.  A
    1-d result is rejected: on a square grid it would silently read as a row.
    """
    shape = (xs.size, ys.size)
    out = np.array(values, dtype=float, order="C")  # a fresh copy: never alias the result
    if out.ndim not in (0, 2) or any(k not in (1, n) for k, n in zip(out.shape, shape)):
        raise ValueError(
            f"{what} sampler returned shape {out.shape}, expected a scalar or a 2-d array "
            f"broadcastable to {shape}"
        )
    if out.shape != shape:
        out = np.broadcast_to(out, shape).copy()
    if not np.all(np.isfinite(out)):
        i, j = np.argwhere(~np.isfinite(out))[0]
        raise ValueError(f"{what} sampler returned {out[i, j]} at (x={xs[i]:.6g}, y={ys[j]:.6g})")
    return out


def sample_node(fn, grid: Grid) -> NodeField:
    """Evaluate ``fn(x, y)`` at every node, ghosts included.

    ``fn`` receives an ``(n, 1)`` column of node x and a ``(1, m)`` row of node
    y, both fresh copies, and returns a scalar or a 2-d array broadcastable to
    ``grid.node_shape``; a 1-d result raises ``ValueError``.
    """
    xs, ys = grid.node_xs, grid.node_ys
    return NodeField(grid, _lattice(fn(*_axes(xs, ys)), xs, ys, "node"))


def sample_cell(fn, grid: Grid) -> CellField:
    """Evaluate ``fn(x, y)`` at every cell center, boundary ring included.

    ``fn`` is called as in :func:`sample_node`, on the cell axes.
    """
    xs, ys = grid.cell_xs, grid.cell_ys
    return CellField(grid, _lattice(fn(*_axes(xs, ys)), xs, ys, "cell"))


def sample_cell_vec(fn, grid: Grid) -> CellVectorField:
    """Evaluate a vector function ``fn(x, y) -> (vx, vy)`` at cell centers.

    ``fn`` is called as in :func:`sample_cell`, and each component is checked alike.
    """
    xs, ys = grid.cell_xs, grid.cell_ys
    vx, vy = fn(*_axes(xs, ys))
    out = np.stack(
        [_lattice(vx, xs, ys, "cell vector x"), _lattice(vy, xs, ys, "cell vector y")], axis=-1
    )
    return CellVectorField(grid, out)


# 2:1 grid transfers --------------------------------------------------------


def coarse_grid(grid: Grid) -> Grid | None:
    """The grid of half as many squares per side over the same domain.

    A coarse cell center is every other fine one, and a coarse node sits on
    the fine cell vertex between four fine nodes.  Returns ``None`` when a
    side has an odd number of squares.
    """
    if grid.nx % 2 == 0 or grid.ny % 2 == 0:
        return None
    return Grid(grid.x_min, grid.x_max, grid.y_min, grid.y_max, grid.nx // 2, grid.ny // 2)


def inject_cell(field, coarse: Grid):
    """A cell field on ``coarse``, exact: its centers are the even fine centers."""
    return type(field)(coarse, field.values[::2, ::2].copy())


def _restrict_rows(v: np.ndarray) -> np.ndarray:
    """Coarse node rows: the mean of the two fine rows around each, extrapolated past the ends."""
    padded = np.concatenate([2.0 * v[:1] - v[1:2], v, 2.0 * v[-1:] - v[-2:-1]])
    return 0.5 * (padded[0::2] + padded[1::2])


def _prolong_rows(v: np.ndarray) -> np.ndarray:
    """Fine node rows by linear interpolation, weights 3/4 and 1/4 on the nearest coarse rows."""
    fine = np.empty((2 * v.shape[0] - 2,) + v.shape[1:])
    fine[0::2] = 0.75 * v[:-1] + 0.25 * v[1:]
    fine[1::2] = 0.25 * v[:-1] + 0.75 * v[1:]
    return fine


def _on_both_axes(rows, values: np.ndarray) -> np.ndarray:
    """``rows`` applied along x, then along y, as a C-ordered array."""
    return np.ascontiguousarray(rows(rows(values).T).T)


def restrict_node(field: NodeField, coarse: Grid) -> NodeField:
    """A node field on ``coarse``: each node the mean of the four fine nodes around it.

    The coarse ghost ring lies outside the fine lattice; its values
    extrapolate the fine ones linearly.
    """
    return NodeField(coarse, _on_both_axes(_restrict_rows, field.values))


def prolong_node(field: NodeField, fine: Grid) -> NodeField:
    """A node field on ``fine`` by bilinear interpolation of ``field`` on its coarse grid.

    Every fine node, ghosts included, lies within the coarse lattice, so the
    interior nodes next to the boundary read the coarse ghost ring.
    """
    return NodeField(fine, _on_both_axes(_prolong_rows, field.values))
