"""Direct one-shot discretization of the singular problem, for comparison.

The unknown vector holds every node value, ghosts included.  Interior rows
discretize the full equation at interior nodes; each boundary ring cell
contributes its flux condition, the ``dh`` row of :func:`operators.ring_dh`
scaled by ``H`` times the direction/normal alignment.  Those flux rows alone
cannot close the system: they under-determine the corner ghosts, they carry
no information where the direction runs tangent to the boundary, and their
tangential ghost coupling is an exponentially unstable recursion along each
edge.  The closure is therefore rectangular: every ghost node additionally
receives its one-sided second-order extrapolation row of unit weight
(:func:`operators.ghost_extrapolation`), and the whole system is solved in
least-squares mode (via its normal equations).  The flux rows, an order
1/h heavier, dominate wherever the alignment is O(1), so the extrapolation
acts only as a weak prior that takes over continuously as the alignment
vanishes; rows with exactly zero alignment are dropped.

The normal equations are factored in COLAMD order, not the solver's nested
dissection: their unknowns include the ghost ring, their stencil has radius
two, and the baseline's condition gate is sensitive to rounding at eps = 1e-6.
The factor is handed on as one solve function, ``lu_solve``.
:func:`naive_condition` leaves it in a one-entry slot with a private copy of
A; a :func:`solve_naive` whose A is bitwise equal reuses it.  Every call
empties the slot first: at most one factor is alive, none after a solve.

The COLAMD order depends only on the sparsity pattern of ``A^T A``, which
the eps of a mesh share, so it is computed once per pattern: a second
one-entry slot keeps a digest of the last pattern and SuperLU's final column
order for it, and a matching pattern is factored in that order with no
reordering (at M100 a median 0.57 -> 0.51 s a factor).  The order must be
exactly SuperLU's: in it the factor is bitwise the COLAMD one, while at M100
and eps = 1e-6 the same order with the rows permuted too moves the
condition estimate by 28%.

As eps decreases the normal equations inherit the singular limit of the
equation and the condition number blows up; demonstrating that failure
mode is this module's purpose.  The decomposition solver avoids it
entirely.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .apcore import LinearProblem
from .grid import INTERIOR, CellField, NodeField
from .linsolve import SolveReport, SolverConfig, assemble, refine
from .operators import apply_dh, apply_dh_star, ghost_extrapolation, ring_dh

__all__ = ["NaiveSystem", "assemble_naive", "solve_naive", "naive_condition"]

DEGENERATE_TOL = 1e-12


@dataclass
class NaiveSystem:
    """Rectangular (rows >= unknowns) system solved in least-squares mode."""

    matrix: sp.csr_matrix
    rhs: np.ndarray


def _interior_rows(problem: LinearProblem):
    """Probe the interior operator: nodes (all) -> equation residuals (interior)."""
    g = problem.grid
    b = problem.direction
    hcell = problem.diffusivity_cell.values
    gnode = problem.reaction_node.values[INTERIOR]
    eps = problem.eps

    def apply_full(v: np.ndarray) -> np.ndarray:
        flux = CellField(g, hcell * apply_dh(NodeField(g, v), b).values)
        div = apply_dh_star(flux, b)
        return -div.values[INTERIOR] + eps * gnode * v[INTERIOR]

    mat = assemble(apply_full, g.node_shape)

    flux_data = CellField(g, hcell * problem.grad_source_cell.values)
    rhs = (
        eps * problem.source_node.values[INTERIOR]
        - apply_dh_star(flux_data, b).values[INTERIOR]
    ).ravel()
    return mat, rhs


def assemble_naive(problem: LinearProblem) -> NaiveSystem:
    """Build the rectangular direct system over all node unknowns.

    Rows: the interior equation at every interior node, then the flux
    condition ``dh p = b.S`` of every non-degenerate ring cell scaled by
    ``H (b . nu)`` (``nu`` the outward normal, diagonal at the corners),
    then the extrapolation row of every ghost node.
    """
    g = problem.grid
    interior, rhs_interior = _interior_rows(problem)
    ring, dh_ring = ring_dh(problem.direction)
    _, extrapolation = ghost_extrapolation(g)

    ci, cj = np.unravel_index(ring, g.cell_shape)
    nux = (ci == g.nx + 1).astype(float) - (ci == 0)
    nuy = (cj == g.ny + 1).astype(float) - (cj == 0)
    corner = (nux != 0.0) & (nuy != 0.0)
    nux[corner] /= np.sqrt(2.0)
    nuy[corner] /= np.sqrt(2.0)
    align = problem.direction.x[ci, cj] * nux + problem.direction.y[ci, cj] * nuy
    # where b runs tangent to the boundary the scaled row vanishes: dropped
    keep = np.abs(align) >= DEGENERATE_TOL
    scale = problem.diffusivity_cell.values[ci, cj][keep] * align[keep]
    # diag(scale) @ dh_ring[keep], scaled in place: a sparse product would drop
    # stored zeros and leave the column indices of each row unsorted
    flux = dh_ring[keep]
    flux.data *= np.repeat(scale, np.diff(flux.indptr))

    matrix = sp.vstack([interior, flux, extrapolation], format="csr")
    rhs = np.concatenate([rhs_interior, scale * problem.grad_source_cell.values[ci, cj][keep],
                          np.zeros(extrapolation.shape[0])])
    return NaiveSystem(matrix=matrix, rhs=rhs)


_handoff: list = []  # at most one (copy of A's parts, A^T A, lu_solve)
_column_order: dict = {}  # at most one key of A^T A's pattern: its column order


def _normal_equations(system: NaiveSystem, keep: bool = False):
    """The normal equations ``A^T A`` (CSR) and ``lu_solve``, their factor's inverse.

    Empties the hand-off slot, reusing its entry if A is bitwise equal to the
    entry's copy; ``keep`` stores the result there for the next call.  A new
    ``A^T A`` is factored in the COLAMD order of its pattern; singular raises.
    The order slot keys by shape and a BLAKE2b digest of ``indptr`` and
    ``indices``; holding those arrays, 1 MB at M100, raised the peak RSS as
    much.  ``A^T A`` is bitwise symmetric (entries ``(i, j)`` and ``(j, i)``
    sum the same products in the same order) with sorted indices, so on a
    known pattern ``ata[order].T`` is ``ata[:, order]`` as CSC.
    """
    a = system.matrix
    parts = (a.shape, a.indptr, a.indices, a.data)
    held = _handoff.pop() if _handoff else None
    if held is not None and all(map(np.array_equal, held[0], parts)):
        _, ata, lu_solve = held
    else:
        held = None  # release a stale factor before building the next
        ata = (a.T @ a).tocsr()
        digest = hashlib.blake2b(ata.indptr)
        digest.update(ata.indices)
        key = (ata.shape, digest.digest())
        order = _column_order.get(key)
        if order is None:
            lu = spla.splu(ata.T, permc_spec="COLAMD")
            _column_order.clear()
            _column_order[key] = np.argsort(lu.perm_c)  # perm_c maps a column to its position
            lu_solve = lu.solve
        else:
            lu = spla.splu(ata[order].T, permc_spec="NATURAL")

            def lu_solve(rhs: np.ndarray) -> np.ndarray:
                x = np.empty_like(rhs)
                x[order] = lu.solve(rhs)
                return x
    if keep:
        _handoff.append((tuple(map(np.array, parts)), ata, lu_solve))
    return ata, lu_solve


def solve_naive(problem: LinearProblem, config: SolverConfig | None = None):
    """Least-squares solve of the direct system; ``(NodeField, SolveReport)``.

    Factors the normal equations (:func:`_normal_equations`), or takes the
    factor :func:`naive_condition` left for the same matrix, and refines with
    :func:`linsolve.refine` at ``config.tol``; ok means a relative
    normal-equation defect of at most ``max(config.tol, 1e-10)`` (the data
    misfit itself is dominated by the truncation of the flux rows and does
    not vanish).  A singular factorization yields nan.  Expected to work at
    moderate eps and to degrade as eps -> 0.
    """
    config = config or SolverConfig()
    system = assemble_naive(problem)
    atb = system.matrix.T @ system.rhs
    try:
        ata, lu_solve = _normal_equations(system)
        x, res = refine(ata, lu_solve, atb, config.tol)
        report = SolveReport(res, bool(np.isfinite(res) and res <= max(config.tol, 1e-10)))
    except RuntimeError:
        x, report = np.full(system.matrix.shape[1], np.nan), SolveReport(np.inf, False)
    return NodeField(problem.grid, x.reshape(problem.grid.node_shape)), report


def naive_condition(system: NaiveSystem, seed: int = 0) -> float:
    """2-norm condition estimate of the rectangular system.

    Estimated as the square root of the normal-equation condition number;
    overflow or a singular factorization reports ``inf``.  The factor is left
    for a following :func:`solve_naive` of the same matrix.
    """
    try:
        ata, lu_solve = _normal_equations(system, keep=True)
    except RuntimeError:
        return np.inf
    kappa = estimate_condition(ata, lu_solve, seed=seed)
    return float(np.sqrt(kappa)) if np.isfinite(kappa) else np.inf


def estimate_condition(matrix: sp.csr_matrix, lu_solve, seed: int = 0) -> float:
    """2-norm condition number of the symmetric positive definite ``matrix``, by Lanczos.

    Two implicitly restarted Lanczos runs (ARPACK ``eigsh``, relative tolerance
    1e-4, six Lanczos vectors) find the largest eigenvalue of ``matrix`` and
    the largest of its inverse, which ``lu_solve`` applies; ``seed`` draws
    both start vectors.  Returns their product, at least 1.  About seven
    calls of ``lu_solve``; an ARPACK failure (zero iterates, no convergence)
    or a non-finite solve, which is caught before ARPACK sees it, yields ``inf``.
    """
    v0, u0 = np.random.default_rng(seed).standard_normal((2, matrix.shape[0]))

    def solve(rhs):
        x = lu_solve(rhs)
        if not np.all(np.isfinite(x)):
            raise FloatingPointError("non-finite solve by the factor")
        return x

    inverse = spla.LinearOperator(matrix.shape, matvec=solve, dtype=float)
    try:
        lam = spla.eigsh(matrix, k=1, which="LA", ncv=6, tol=1e-4, v0=v0,
                         return_eigenvectors=False)
        mu = spla.eigsh(inverse, k=1, which="LM", ncv=6, tol=1e-4, v0=u0,
                        return_eigenvectors=False)
    except (spla.ArpackError, FloatingPointError):
        return np.inf
    return max(float(lam[0] * abs(mu[0])), 1.0)
