"""Sparse assembly by stencil probing, and sparse direct factors.

The elliptic systems of the solver are defined through operator applications
(compositions of the dual stencils); their matrices are recovered by probing
unit vectors one 3x3 color class at a time, which needs at most nine
applications for any stencil of radius one; the naive baseline's
rectangular node-to-equation operator is probed the same way.  Each linear
solve factors the mean-potential matrix once, by a sparse direct
factorization (the systems are small enough and the accuracy analysis of the
scheme presumes near machine-precision residuals).  The factor's inverse,
:meth:`DirectFactor.lu_solve`, preconditions the conjugate-gradient solves of
all three cell systems (``apcore``), also while a Gummel run holds a factor
of an earlier iteration's matrix (``apcore.HeldFactor``).  :func:`refine`
is the naive baseline's refinement loop.

:class:`DirectFactor` eliminates unknowns in the order its caller gives.  The
cell systems of the solver are radius-1 stencils on the structured cell
grid, and are factored in the geometric nested-dissection order of
:func:`nested_dissection`; at 400 cells per side that leaves 14 M nonzeros
in L+U where COLAMD leaves 25 M.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "SolverConfig",
    "SolveReport",
    "AssemblyError",
    "assemble",
    "DirectFactor",
    "refine",
    "nested_dissection",
]

_TINY = 1e-300


class AssemblyError(RuntimeError):
    """Probe assembly found the operator inconsistent with a linear stencil."""


@dataclass
class SolverConfig:
    tol: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.tol <= 1e-4):
            raise ValueError(f"solver tol must be in (0, 1e-4], got {self.tol}")


@dataclass
class SolveReport:
    x: np.ndarray
    residual: float  # ||Ax - b|| / max(||b||, tiny), recomputed after solving
    ok: bool


def _class_neighbor(color: int, n_in: int, n_out: int) -> np.ndarray:
    """Per output index, the input index congruent to ``color`` mod 3 within radius one."""
    center = np.arange(n_out) + (n_in - n_out) // 2
    return center + (color - center + 1) % 3 - 1


def assemble(op_apply, shape: tuple[int, int]) -> sp.csr_matrix:
    """Recover the matrix of a linear stencil operator by 3x3-color probing.

    ``op_apply`` must be linear with stencil radius at most one in each
    index.  Its output grid sits centered in the input grid of ``shape``:
    output index = input index - ``(shape - output shape) // 2``.  Each
    output reads the one unknown of each probed color class within radius
    one.  Unknowns and equations are ordered row-major.  A final random
    probe checks that the assembled matrix reproduces the operator action; a
    mismatch (nonlinear or wider-stencil operator) raises :class:`AssemblyError`.
    """
    nx, ny = shape
    rows, cols, vals = [], [], []
    for cx in range(3):
        for cy in range(3):
            v = np.zeros(shape)
            v[cx::3, cy::3] = 1.0
            w = op_apply(v)
            ax, ay = (_class_neighbor(c, n, m) for c, n, m in zip((cx, cy), shape, w.shape))
            m = ((ax >= 0) & (ax < nx))[:, None] & ((ay >= 0) & (ay < ny))
            rows.append(np.flatnonzero(m))
            cols.append((ax[:, None] * ny + ay)[m])
            vals.append(w[m])
    mat = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                        shape=(w.size, nx * ny))

    rng = np.random.default_rng(12345)
    probe = rng.standard_normal(shape)
    direct = op_apply(probe).ravel()
    via_matrix = mat @ probe.ravel()
    scale = max(float(np.linalg.norm(direct)), _TINY)
    defect = float(np.linalg.norm(via_matrix - direct)) / scale
    if defect > 1e-12:
        raise AssemblyError(
            f"probe-assembled matrix disagrees with operator action "
            f"(relative defect {defect:.3e}); operator is not a radius-1 linear stencil"
        )
    return mat


# Blocks with fewer cells than this along both sides are leaves, ordered row by
# row: dissecting them further saves under 1% of the fill.
_ND_LEAF_SIDE = 5


def _bisect(block: np.ndarray):
    """Split a block of cell indices across its longer side.

    Returns ``(first, second, separator)``.  The separator is the middle line
    of cells, one cell wide, so no radius-1 neighbour pair joins ``first``
    and ``second``.  A leaf block returns ``None``.
    """
    rows, cols = block.shape
    if max(rows, cols) < _ND_LEAF_SIDE:
        return None
    if rows >= cols:
        mid = rows // 2
        return block[:mid], block[mid + 1:], block[mid]
    mid = cols // 2
    return block[:, :mid], block[:, mid + 1:], block[:, mid]


def nested_dissection(nx: int, ny: int) -> np.ndarray:
    """Elimination order for radius-1 stencils on a row-major ``nx x ny`` grid.

    Geometric nested dissection (George 1973): each block is bisected
    recursively along its longer side, and both halves are ordered before the
    separator between them, so eliminating one half never fills into the
    other.  Returns a permutation of ``range(nx * ny)``.
    """
    offsets = {}  # order within a block, relative to its first cell, by shape

    def order(block):
        first_cell = block[0, 0]
        if block.shape not in offsets:
            split = _bisect(block)
            if split is None:
                whole = block.ravel()
            else:
                first, second, separator = split
                whole = np.concatenate([order(first), order(second), separator.ravel()])
            offsets[block.shape] = whole - first_cell
        return first_cell + offsets[block.shape]

    return order(np.arange(nx * ny).reshape(nx, ny))


def refine(matrix: sp.spmatrix, lu_solve, rhs: np.ndarray, tol: float):
    """Solve ``matrix x = rhs`` by ``lu_solve`` (a possibly shifted factorization of it).

    Up to two steps of iterative refinement, until the relative residual
    ``||matrix x - rhs|| / ||rhs||``, recomputed on ``matrix`` itself, is at
    most ``tol`` or not finite.  Returns ``(x, residual)``.
    """
    x = lu_solve(rhs)
    scale = max(float(np.linalg.norm(rhs)), _TINY)
    res = float(np.linalg.norm(matrix @ x - rhs)) / scale
    for _ in range(2):
        if res <= tol or not np.isfinite(res):
            break
        x = x + lu_solve(rhs - matrix @ x)
        res = float(np.linalg.norm(matrix @ x - rhs)) / scale
    return x, res


class DirectFactor:
    """Sparse LU factorization in a given elimination order, reusable across right-hand sides.

    ``perm`` is the order in which unknowns are eliminated; the factored
    matrix is ``(matrix + shift I)[perm][:, perm]``, with no further column
    reordering.  ``matrix`` itself, unshifted, is kept for the solves.
    """

    def __init__(self, matrix: sp.spmatrix, perm: np.ndarray, shift: float = 0.0):
        self.matrix = matrix.tocsr()
        self.shift = shift
        self._perm = perm
        factored = (self.matrix + shift * sp.eye(self.matrix.shape[0], format="csr")
                    if shift else self.matrix)
        self._lu = spla.splu(factored[perm][:, perm].tocsc(), permc_spec="NATURAL")

    def lu_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Apply the (possibly shifted) factorization's inverse, without refinement."""
        x = np.empty_like(rhs)
        x[self._perm] = self._lu.solve(rhs[self._perm])
        return x
