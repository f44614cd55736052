"""Sparse assembly of stencil systems, and sparse direct factors.

The cell systems of the solver are radius-1 stencils on the structured cell
grid, built from their stencil coefficients: :func:`stencil_matrix` gives
the natural-order CSR matrix that the conjugate-gradient solves apply.  Two
factors take that matrix and build their own form of it.  On a narrow grid
:class:`BandFactor` has :func:`symmetric_band` write the lower band of the
symmetric ``S = A diag(1/G)`` in LAPACK's Fortran-order band storage, read
from the CSR data, and factors it in place by LAPACK's blocked banded
Cholesky; with 2 BLAS threads that takes 4.0 ms at 63 cells per side and
13.8 ms at 99, where the upper band takes 12.7 and 16.1 ms.  On a wide one
:class:`DirectFactor` has :func:`factor_order` copy the matrix into the
nested-dissection order of :func:`nested_dissection` as CSC, which SuperLU
factors (at 400 cells per side 14 M nonzeros in L+U, where COLAMD leaves
25 M) and which is not kept.
The order and the natural-order index arrays depend on the grid only; the
order of the last grid shape and the index arrays of the last two (a
coarse-started Gummel run's two grids) are kept and shared read-only.  The
naive baseline's rectangular operator is still probed one 3x3 color class at
a time (:func:`assemble`).  :func:`check_assembly` is the random-probe check of
both ways.

Either factor's inverse, ``lu_solve``, preconditions the CG solves of the
cell systems (``apcore``), held in an ``apcore.HeldFactor``: A's for the h,
L and l stages, where it is also the factor of another matrix, the sum
system ``A + diag(eps G/H)`` of L, or an earlier Gummel iteration's system.
:func:`refine` is the naive baseline's refinement loop.

The package's vector reductions, :func:`dot` and :func:`norm2`, call
scipy's BLAS, and the ghost fill (``apcore``) takes its QR and SVD from
``scipy.linalg``, so the BLAS and LAPACK work of a solve runs in scipy's
OpenBLAS and its one thread pool.  numpy loads an OpenBLAS of its own, whose
threads, woken by a dot product of more than 10000 elements, spin on after
it and take the cores from scipy's factors.

The band's LAPACK runs on one thread of it (:func:`_on_one_blas_thread`): a
second, for the same bits, made 19 solves at 100 cells per side 20% slower.
SuperLU keeps the pool: it gave equal bits in equal time on 1 and 2 threads
(141 against 138 ms at 200 cells per side, 1066 against 1057 ms at 400).
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.linalg.blas
import scipy.linalg.lapack
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = [
    "SolverConfig",
    "SolveReport",
    "AssemblyError",
    "assemble",
    "check_assembly",
    "stencil_matrix",
    "symmetric_band",
    "factor_order",
    "DirectFactor",
    "BandFactor",
    "refine",
    "nested_dissection",
    "dot",
    "norm2",
]

_TINY = 1e-300


def dot(a: np.ndarray, b: np.ndarray) -> float:
    """``a . b`` of two float64 vectors by scipy's ``ddot``: ``np.dot``'s bits, in scipy's pool."""
    return float(scipy.linalg.blas.ddot(a, b))


def norm2(x: np.ndarray) -> float:
    """Euclidean norm of float64 ``x``, raveled: ``sqrt(x . x)``, as ``np.linalg.norm`` takes it."""
    x = np.ravel(x, order="K")
    return math.sqrt(dot(x, x))


@lru_cache(maxsize=1)
def _blas_threads_setter():
    """``openblas_set_num_threads_local`` of the OpenBLAS that scipy's LAPACK loaded, or a no-op."""
    try:
        setter = ctypes.CDLL(scipy.linalg.lapack._flapack.__file__).openblas_set_num_threads_local
    except (AttributeError, OSError):
        return lambda count: count
    setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
    return setter


def _on_one_blas_thread(lapack, *args, **kwargs):
    """``lapack(*args, **kwargs)`` on one thread of scipy's OpenBLAS, for this thread only."""
    setter = _blas_threads_setter()
    previous = setter(1)
    try:
        return lapack(*args, **kwargs)
    finally:
        setter(previous)


class AssemblyError(RuntimeError):
    """An assembled matrix disagrees with the action of its operator."""


@dataclass
class SolverConfig:
    tol: float = 1e-12

    def __post_init__(self):
        if not (isinstance(self.tol, (int, float)) and 0.0 < self.tol <= 1e-4):
            raise ValueError(f"solver tol must be in (0, 1e-4], got {self.tol!r}")


@dataclass
class SolveReport:
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
    check_assembly(mat, op_apply, shape)
    return mat


def check_assembly(matrix: sp.spmatrix, op_apply, shape: tuple[int, int]) -> None:
    """Check that ``matrix`` reproduces ``op_apply`` on one random probe of ``shape``.

    Raises :class:`AssemblyError` when the relative defect exceeds 1e-12: a
    nonlinear or wider-stencil operator, or a matrix built wrong.
    """
    probe = np.random.default_rng(12345).standard_normal(shape)
    direct = op_apply(probe).ravel()
    via_matrix = matrix @ probe.ravel()
    scale = max(norm2(direct), _TINY)
    defect = norm2(via_matrix - direct) / scale
    if defect > 1e-12:
        raise AssemblyError(
            f"assembled matrix disagrees with operator action (relative defect "
            f"{defect:.3e}): the operator is not a radius-1 linear stencil, or the "
            f"matrix was built wrong"
        )


@lru_cache(maxsize=2)
def _stencil_structure(nx: int, ny: int):
    """Read-only ``(in_range, indptr, indices)`` of :func:`stencil_matrix` on an ``nx x ny`` grid.

    ``in_range[i, j, k]``: whether weight ``k`` of equation ``(i, j)`` is on
    the grid; ``indptr`` and ``indices`` (int32) list those unknowns.  Two
    shapes are kept: a coarse-started Gummel run assembles on two grids.
    """
    rx = np.ones((nx, 3), dtype=bool)
    ry = np.ones((ny, 3), dtype=bool)
    rx[0, 0] = rx[-1, 2] = ry[0, 0] = ry[-1, 2] = False
    in_range = (rx[:, None, :, None] & ry[None, :, None, :]).reshape(nx, ny, 9)
    cells = np.arange(nx * ny, dtype=np.int32).reshape(nx, ny, 1)
    steps = np.array([di * ny + dj for di in (-1, 0, 1) for dj in (-1, 0, 1)], dtype=np.int32)
    indices = (cells + steps)[in_range]
    indptr = np.zeros(nx * ny + 1, dtype=np.int32)
    np.cumsum(in_range.sum(axis=2, dtype=np.int32).ravel(), out=indptr[1:])
    for array in (in_range, indptr, indices):
        array.setflags(write=False)
    return in_range, indptr, indices


def stencil_matrix(planes: np.ndarray) -> sp.csr_matrix:
    """CSR matrix of a radius-1 stencil on a row-major ``nx x ny`` grid.

    ``planes`` has shape ``(9, nx, ny)``: ``planes[3 * (di + 1) + (dj + 1), i, j]``
    is the weight of unknown ``(i + di, j + dj)`` in equation ``(i, j)``.
    Every weight whose unknown lies on the grid is stored, zeros included,
    in ascending column order; the others are ignored.  The index arrays are
    shared read-only with every matrix of the same grid shape.
    """
    _, nx, ny = planes.shape
    in_range, indptr, indices = _stencil_structure(nx, ny)
    return sp.csr_matrix((planes.transpose(1, 2, 0)[in_range], indices, indptr),
                         shape=(nx * ny, nx * ny))


def symmetric_band(matrix: sp.csr_matrix, weights: np.ndarray,
                   shape: tuple[int, int]) -> np.ndarray:
    """Lower band of ``(S + S^T) / 2``, ``S = A diag(1 / weights)``, in LAPACK's Fortran-order storage.

    ``A`` is ``matrix``, a radius-1 stencil on the row-major ``nx x ny`` grid
    ``shape`` laid out as :func:`stencil_matrix` lays it out, whose data it
    reads; its row-major bandwidth is ``ny + 1``.  ``weights`` has one entry
    per unknown.  Returns ``band`` of shape ``(ny + 2, nx * ny)`` with
    ``band[i - j, j]`` the entry ``(i, j)``, ``i >= j``, as
    ``scipy.linalg.lapack.dpbtrf`` takes it with ``lower=1``.
    """
    nx, ny = shape
    in_range, _, _ = _stencil_structure(nx, ny)
    planes = np.zeros((nx, ny, 9))
    planes[in_range] = matrix.data
    planes = planes.transpose(2, 0, 1)
    w = weights.reshape(nx, ny)
    band = np.zeros((ny + 2, nx * ny), order="F")
    np.divide(planes[4], w, out=band[0].reshape(nx, ny))
    for di, dj in ((0, 1), (1, -1), (1, 0), (1, 1)):
        # equation (i, j) reads unknown (i + di, j + dj), in the slices src and dst;
        # the pair is entry (dst, src) of the lower band, in the column of src
        src = (slice(0, nx - di), slice(max(0, -dj), ny - max(0, dj)))
        dst = (slice(di, nx), slice(max(0, dj), ny - max(0, -dj)))
        forward = planes[3 * (di + 1) + dj + 1][src] / w[dst]
        backward = planes[3 * (1 - di) + 1 - dj][dst] / w[src]
        np.add(forward, backward, out=forward)
        forward *= 0.5
        band[di * ny + dj].reshape(nx, ny)[src] = forward
    return band


def factor_order(matrix: sp.csr_matrix, perm: np.ndarray) -> sp.csc_matrix:
    """``matrix[perm][:, perm]`` as a CSC matrix with sorted row indices, entries bit for bit.

    A row gather, a relabel of the column indices by the inverse of
    ``perm``, and one counting-sort transpose to CSC; stored zeros stay.
    """
    inverse = np.empty(perm.size, dtype=matrix.indices.dtype)
    inverse[perm] = np.arange(perm.size, dtype=inverse.dtype)
    rows = matrix[perm]
    rows.indices = inverse[rows.indices]
    return rows.tocsc()


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


@lru_cache(maxsize=1)
def nested_dissection(nx: int, ny: int) -> np.ndarray:
    """Elimination order for radius-1 stencils on a row-major ``nx x ny`` grid.

    Geometric nested dissection (George 1973): each block is bisected
    recursively along its longer side, and both halves are ordered before the
    separator between them, so eliminating one half never fills into the
    other.  Returns a permutation of ``range(nx * ny)``, read-only: the order
    of the last grid shape is kept and shared.
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

    perm = order(np.arange(nx * ny).reshape(nx, ny))
    perm.setflags(write=False)
    return perm


def refine(matrix: sp.spmatrix, lu_solve, rhs: np.ndarray, tol: float):
    """Solve ``matrix x = rhs`` by ``lu_solve``, a factorization of it.

    Up to two steps of iterative refinement, until the relative residual
    ``||matrix x - rhs|| / ||rhs||``, recomputed on ``matrix`` itself, is at
    most ``tol`` or not finite.  Returns ``(x, residual)``.
    """
    x = lu_solve(rhs)
    scale = max(norm2(rhs), _TINY)
    res = norm2(matrix @ x - rhs) / scale
    for _ in range(2):
        if res <= tol or not np.isfinite(res):
            break
        x = x + lu_solve(rhs - matrix @ x)
        res = norm2(matrix @ x - rhs) / scale
    return x, res


class DirectFactor:
    """Sparse LU factorization in a given elimination order, reusable across right-hand sides.

    ``matrix`` (CSR) is kept for the solves.  Its copy in the elimination
    order ``perm``, ``matrix[perm][:, perm]`` as CSC (:func:`factor_order`),
    is factored with no further column reordering and not kept.  An exactly
    singular matrix raises ``RuntimeError``.
    """

    def __init__(self, matrix: sp.csr_matrix, perm: np.ndarray):
        self.matrix = matrix
        self._perm = perm
        self._lu = spla.splu(factor_order(matrix, perm), permc_spec="NATURAL")

    def lu_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Apply the factorization's inverse, without refinement."""
        x = np.empty_like(rhs)
        x[self._perm] = self._lu.solve(rhs[self._perm])
        return x


class BandFactor:
    """Banded Cholesky factor of ``S diag(weights)``, ``S`` symmetric positive definite.

    ``matrix`` (CSR), the radius-1 stencil ``S diag(weights)`` on the grid
    ``shape``, is kept for the solves.  The lower band of ``S`` is built in
    Fortran order (:func:`symmetric_band`) and factored in place as
    ``L L^T`` by LAPACK's blocked ``dpbtrf``, on one BLAS thread as its
    solves are.  :meth:`lu_solve` applies ``diag(1 / weights) S^-1``,
    self-adjoint in the inner product weighted by ``weights``.  A band that
    is not positive definite raises ``RuntimeError``.
    """

    def __init__(self, matrix: sp.csr_matrix, weights: np.ndarray, shape: tuple[int, int]):
        self.matrix = matrix
        self._weights = weights
        self._band, info = _on_one_blas_thread(scipy.linalg.lapack.dpbtrf, symmetric_band(
            matrix, weights, shape), lower=1, overwrite_ab=1)
        if info != 0:
            raise RuntimeError(f"dpbtrf: leading minor {info} is not positive definite"
                               if info > 0 else f"dpbtrf: illegal argument {-info}")

    def lu_solve(self, rhs: np.ndarray) -> np.ndarray:
        """Apply the factorization's inverse, without refinement."""
        x, _ = _on_one_blas_thread(scipy.linalg.lapack.dpbtrs, self._band, rhs, lower=1)
        x /= self._weights
        return x
