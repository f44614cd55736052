"""Sparse assembly by stencil probing, residual-checked solves, conditioning.

The elliptic systems of the solver are defined through operator applications
(compositions of the dual stencils); their matrices are recovered by probing
unit vectors one 3x3 color class at a time, which needs at most nine
applications for any stencil of radius one; the naive baseline's
rectangular node-to-equation operator is probed the same way.  Solving is
done by a sparse direct factorization (the systems are small enough and the
accuracy analysis of the scheme presumes near machine-precision residuals).

:class:`DirectFactor` eliminates unknowns in the order its caller gives.  The
three cell systems of the solver are radius-1 stencils on the structured
cell grid, and are factored in the geometric nested-dissection order of
:func:`nested_dissection`; at 400 cells per side that leaves 14 M nonzeros
in L+U where COLAMD leaves 25 M.  The naive baseline's normal equations and
:func:`estimate_condition` stay on COLAMD: their unknowns include the ghost
ring, their stencil has radius two, and the baseline's condition gate is
sensitive to rounding at eps = 1e-6.
"""

from __future__ import annotations

import time
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
    "nested_dissection",
    "estimate_condition",
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
    wall_time: float
    ok: bool
    method: str


def assemble(op_apply, shape: tuple[int, int],
             out_shape: tuple[int, int] | None = None) -> sp.csr_matrix:
    """Recover the matrix of a linear stencil operator by 3x3-color probing.

    ``op_apply`` maps an array of ``shape`` to an array of ``out_shape``
    (default ``shape``) and must be linear with stencil radius at most one
    in each index.  The output grid sits centered in the input grid: output
    index = input index - ``(shape - out_shape) // 2``.  Unknowns and
    equations are ordered row-major.  A final random probe checks that the
    assembled matrix reproduces the operator action; a mismatch (nonlinear
    or wider-stencil operator) raises :class:`AssemblyError`.
    """
    nx, ny = shape
    mx, my = out_shape or shape
    ox, oy = (nx - mx) // 2, (ny - my) // 2
    rows, cols, vals = [], [], []
    for cx in range(3):
        for cy in range(3):
            v = np.zeros(shape)
            v[cx::3, cy::3] = 1.0
            w = op_apply(v)
            ax = np.arange(cx, nx, 3)
            ay = np.arange(cy, ny, 3)
            if ax.size == 0 or ay.size == 0:
                continue
            aa, bb = np.meshgrid(ax, ay, indexing="ij")
            aa = aa.ravel()
            bb = bb.ravel()
            for oi in (-1, 0, 1):
                for oj in (-1, 0, 1):
                    ra = aa - ox + oi
                    rb = bb - oy + oj
                    m = (ra >= 0) & (ra < mx) & (rb >= 0) & (rb < my)
                    rows.append(ra[m] * my + rb[m])
                    cols.append(aa[m] * ny + bb[m])
                    vals.append(w[ra[m], rb[m]])
    mat = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(mx * my, nx * ny),
    ).tocsr()

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


class DirectFactor:
    """Sparse LU factorization in a given elimination order, reusable across right-hand sides.

    ``perm`` is the order in which unknowns are eliminated; the factored
    matrix is ``(matrix + shift I)[perm][:, perm]``, with no further column
    reordering.  Each solve applies up to two steps of iterative refinement
    if needed and recomputes the relative residual on ``matrix`` itself,
    unshifted, independently of the solve path.
    """

    def __init__(self, matrix: sp.spmatrix, perm: np.ndarray, tol: float = 1e-12,
                 shift: float = 0.0):
        self.matrix = matrix.tocsr()
        self.tol = tol
        self.shift = shift
        self._perm = perm
        factored = (self.matrix + shift * sp.eye(self.matrix.shape[0], format="csr")
                    if shift else self.matrix)
        self._lu = spla.splu(factored[perm][:, perm].tocsc(), permc_spec="NATURAL")

    def _lu_solve(self, rhs: np.ndarray) -> np.ndarray:
        x = np.empty_like(rhs)
        x[self._perm] = self._lu.solve(rhs[self._perm])
        return x

    def solve(self, rhs: np.ndarray) -> SolveReport:
        t0 = time.perf_counter()
        x = self._lu_solve(rhs)
        scale = max(float(np.linalg.norm(rhs)), _TINY)
        res = float(np.linalg.norm(self.matrix @ x - rhs)) / scale
        for _ in range(2):
            if res <= self.tol or not np.isfinite(res):
                break
            x = x + self._lu_solve(rhs - self.matrix @ x)
            res = float(np.linalg.norm(self.matrix @ x - rhs)) / scale
        ok = bool(np.isfinite(res) and res <= self.tol)
        return SolveReport(x, res, time.perf_counter() - t0, ok, "direct")


def estimate_condition(matrix: sp.spmatrix, iters: int = 60, seed: int = 0) -> float:
    """2-norm condition estimate by power iteration on ``A`` and on ``A^-1``.

    Accurate to roughly a factor of two.  A singular factorization (or
    non-finite iterates, the signature of extreme ill-conditioning) yields
    ``inf``.
    """
    a = matrix.tocsr()
    n = a.shape[0]
    rng = np.random.default_rng(seed)

    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    for _ in range(iters):
        w = a.T @ (a @ v)
        nrm = np.linalg.norm(w)
        if nrm == 0.0:
            return np.inf
        v = w / nrm
    sigma_max = float(np.linalg.norm(a @ v))

    try:
        lu = spla.splu(a.tocsc(), permc_spec="COLAMD")
    except RuntimeError:
        return np.inf
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    for _ in range(iters):
        t = lu.solve(u, trans="T")
        t = lu.solve(t)
        nrm = np.linalg.norm(t)
        if not np.isfinite(nrm) or nrm == 0.0:
            return np.inf
        u = t / nrm
    t = lu.solve(lu.solve(u, trans="T"))
    inv_sq = float(np.linalg.norm(t))  # ~ 1 / sigma_min^2
    if not np.isfinite(inv_sq) or inv_sq <= 0.0:
        return np.inf
    return max(sigma_max * np.sqrt(inv_sq), 1.0)
