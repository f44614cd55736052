"""Anisotropy-robust linear solver via mean / fluctuation decomposition.

A linear problem

    -div( H (b ox b) (grad p - S) ) + eps G p = eps f        in the domain,
    ( H (b ox b) (grad p - S) ) . nu = 0                     on the boundary,

is solved for every eps >= 0, including eps = 0 where the direct formulation
degenerates.  The solution is split as p = pi + q: pi has no gradient along
the direction b (the mean part) and q is a weighted divergence along b (the
fluctuation).  Both parts are reconstructed from cell-centered auxiliary
potentials obtained from three standard elliptic solves:

    h:  -dh( (1/G) dh*(G h) )            = dh(f/G)           on interior cells,
    L:  -dh( (1/G) dh*(H L) ) + eps L    = -eps (dh(f/G) - b.S),
    l:  -dh( (1/G) dh*(G l) )            = L - b.S,

all with homogeneous values on the boundary cell ring, followed by

    pi = (f + dh*(G h)) / G ,   q = dh*(G l) / G             on interior nodes.

Only the L system carries eps, and it degenerates gracefully (L = 0 at
eps = 0), so cost and accuracy are uniform in the anisotropy strength.  The h
and l systems share one matrix A, the only one assembled (:func:`assemble`,
from its stencil coefficients, as natural-order CSR); with ``x = H L / G``
the L system reads ``(A + diag(eps G/H)) x = rhs``, the sum system.  All
three systems are self-adjoint in the G-weighted inner product, and one
conjugate-gradient routine (:func:`_cg`) solves each of them.
:func:`_factor` factors a CSR matrix as a banded Cholesky factor of the
symmetric ``S = A diag(1/G)`` on grids up to ``BAND_MAX_WIDTH`` wide, and by
SuperLU in nested-dissection order on wider ones; each factor builds its own
form of the matrix.  The h and l systems are the sum system at eps = 0, and
on A's factor they take one step each.

A caller that needs p alone, as the Gummel loop does, solves one cell system
instead of three (:func:`solve_p`).  Since h and l share A, ``s = h + l``
solves ``A s = dh(f/G) + L - b.S``; the L system divided by ``-eps`` shows
``x = -eps s``, that is ``L = -eps (G/H) s``, so

    (A + diag(eps G/H)) s = dh(f/G) - b.S,   p = (f + dh*(G s)) / G,

the sum system with another right-hand side.

One routine solves every cell system, h, L, l and p's
(:func:`_sum_system`).  It runs CG preconditioned by the factor that a
:class:`HeldFactor` holds: A's for h, L and l, an earlier Gummel
iteration's system for p.  When nothing is held, or CG misses the
tolerance, A gains ``eps G/H`` in place on its stored diagonal and that
system is factored, CG runs once more on it, and the holder keeps the new
factor until the next miss; a miss on A's own factor at eps = 0, in h or
l, fails the stage at once.
Ghost node values of p never feed back into the solution; they are filled in
a final truncated least-squares pass from the flux boundary condition
(:func:`fill_ghost`), sparse throughout: the few small singular values of the
ghost system are deflated, and the shifted LU that finds them solves for the
rest.  Its cutoffs are relative to the bound sqrt(2) on the largest singular
value of the row-equilibrated system, which that value reaches to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import INTERIOR, CellField, CellVectorField, Grid, NodeField
from .linsolve import (BandFactor, DirectFactor, SolverConfig, check_assembly, dot,
                       nested_dissection, norm2, stencil_matrix)
from .operators import (apply_dh, apply_dh_star, compose_second_order, ghost_extrapolation,
                        ring_dh, second_order_stencil)

__all__ = [
    "LinearProblem",
    "SolutionDecomposition",
    "GhostFillReport",
    "HeldFactor",
    "StageError",
    "DataError",
    "reconstruct_pi",
    "solve_L",
    "reconstruct_q",
    "fill_ghost",
    "solve_linear_ap",
    "solve_p",
]


class StageError(RuntimeError):
    """A stage of the solve pipeline failed; the message names the stage."""


class DataError(ValueError):
    """The data of a problem fail a check of :func:`check_data`; the message names the field."""


def _check_direction(direction: CellVectorField) -> None:
    """Reject an anisotropy direction with a zero vector or a NaN component at any cell."""
    # |bx| + |by| is zero at a zero vector and NaN where a component is NaN;
    # the minimum carries a NaN through, and NaN > 0 is false
    if not (np.abs(direction.x) + np.abs(direction.y)).min() > 0.0:
        raise DataError("anisotropy direction has zero vectors or NaN components")


def check_data(problem, names, positive) -> None:
    """Reject a negative or non-finite eps, non-finite fields and non-positive coefficients.

    ``names`` lists the field attributes of ``problem`` to check for
    finiteness, ``positive`` those of them that must be strictly positive.
    The ``direction`` of ``problem`` must also have no zero vector.  Each
    rejection raises :class:`DataError`.
    """
    if not (np.isfinite(problem.eps) and problem.eps >= 0.0):
        raise DataError(f"eps must be finite and >= 0, got {problem.eps}")
    for name in names:
        values = getattr(problem, name).values
        if not np.all(np.isfinite(values)):
            raise DataError(f"{name} has non-finite values")
        if name in positive and not np.all(values > 0.0):
            raise DataError(f"{name} must be strictly positive")
    _check_direction(problem.direction)


@dataclass
class LinearProblem:
    """Data of one linear anisotropic diffusion problem on a grid.

    ``reaction_*`` is the strictly positive reaction coefficient (the G of
    the zeroth-order term) sampled at nodes and at cell centers,
    ``diffusivity_cell`` the strictly positive transport coefficient H,
    ``direction`` the nonzero anisotropy direction b, ``source_node`` the
    scalar source f, and ``grad_source_cell`` the along-direction component
    b.S of the prescribed gradient offset.
    """

    grid: Grid
    eps: float
    reaction_node: NodeField
    reaction_cell: CellField
    diffusivity_cell: CellField
    direction: CellVectorField
    source_node: NodeField
    grad_source_cell: CellField

    def __post_init__(self):
        check_data(self, ("reaction_node", "reaction_cell", "diffusivity_cell", "direction",
                          "source_node", "grad_source_cell"),
                   positive=("reaction_node", "reaction_cell", "diffusivity_cell"))


@dataclass
class GhostFillReport:
    constraint_defect: float  # max |flux constraint residual| over ring cells
    rank: int
    n_unknowns: int
    rank_deficient: bool
    deflated: int  # small singular values solved for one by one, kept or truncated


@dataclass
class SolutionDecomposition:
    """Everything produced by one linear solve."""

    h: CellField
    L: CellField
    l: CellField
    pi: NodeField  # mean part (constant along b up to the solver residual)
    q: NodeField  # fluctuation part
    p: NodeField  # pi + q on interior nodes, ghost ring filled
    residuals: dict  # per-stage relative residuals
    mean_gradient_l2: float  # ||dh pi||_l2(cells) / ||p||_l2(nodes)
    ghost: GhostFillReport  # report of the fill of p's ghost ring
    # CG steps of the solve over all three stages (2 at eps = 0 on a new
    # factor, where L = 0); None when the L system was factored
    cg_iterations: int | None


def _rhs_mean(problem: LinearProblem) -> CellField:
    """dh(f/G), defined on all cells."""
    ratio = NodeField(problem.grid, problem.source_node.values / problem.reaction_node.values)
    return apply_dh(ratio, problem.direction)


def _cell_operator(problem: LinearProblem):
    """Mean-potential operator ``-dh((1/G) dh*(G chi))`` on interior cells, ring held at zero.

    Takes the interior values flat or as an ``nx x ny`` array; returns an array.
    """
    grid = problem.grid

    def op(v: np.ndarray) -> np.ndarray:
        return compose_second_order(CellField.on_interior(grid, v), problem.reaction_cell,
                                    problem.reaction_node, problem.direction).values[INTERIOR]

    return op


# Cell systems whose row-major bandwidth ``ny + 1`` is at most this are factored
# by banded Cholesky (BandFactor), wider ones by SuperLU in nested-dissection
# order (DirectFactor).  Over the factor and the three stages with 2 BLAS
# threads the lower band takes 27 ms against 40 ms at 99 cells per side and
# 9.4 against 17 ms at 63; the upper band took 64 against 78 ms at 127 and
# 101 against 111 ms at 149, and lost at 199 (README).  No workload runs
# between 101 and 149 cells per side, and the band takes 64 MB at 199, so
# the cut stays here.
BAND_MAX_WIDTH = 101


def assemble(problem: LinearProblem) -> sp.csr_matrix:
    """The mean-potential matrix A of :func:`_cell_operator`, built from its stencil coefficients.

    Returns A in natural order as CSR, which CG applies and each factor
    builds its own form from (:func:`_factor`).  Every entry equals a probe
    of the operator bit for bit (:func:`operators.second_order_stencil`),
    and a random probe checks the matrix (:func:`linsolve.check_assembly`).
    """
    grid = problem.grid
    planes = second_order_stencil(problem.reaction_cell, problem.reaction_node, problem.direction)
    matrix = stencil_matrix(planes)
    del planes  # nine weights per cell, not kept through the check
    check_assembly(matrix, _cell_operator(problem), (grid.nx, grid.ny))
    return matrix


def _factor(problem: LinearProblem, matrix: sp.csr_matrix,
            stage: str) -> BandFactor | DirectFactor:
    """Factor a cell system of ``problem``, A or ``A + diag(eps G/H)`` as CSR, by its grid width.

    A grid whose row-major bandwidth ``ny + 1`` is at most ``BAND_MAX_WIDTH``
    is factored as a band (:class:`linsolve.BandFactor`), a wider one by
    SuperLU in nested-dissection order (:class:`linsolve.DirectFactor`).  A
    singular matrix, or on a band one that is not positive definite,
    raises :class:`StageError` naming ``stage``.  A is nonsingular for a
    positive G with the ring held at zero, unless b is exactly parallel to
    ``(dx, dy)`` at some cells and to ``(dx, -dy)`` at others, and
    ``A + diag(eps G/H)`` is nonsingular for every eps > 0.  The band
    factors ``S = A diag(1/G)``, for which
    ``psi^T S psi = sum_nodes |dh*(psi)|^2 / G_node`` with ``psi`` zero on
    the ring, so ``S`` is positive definite wherever A is nonsingular, and
    so is ``S + diag(eps/H)``.
    """
    grid = problem.grid
    try:
        if grid.ny + 1 <= BAND_MAX_WIDTH:
            return BandFactor(matrix, problem.reaction_cell.values[INTERIOR].ravel(),
                              (grid.nx, grid.ny))
        return DirectFactor(matrix, nested_dissection(grid.nx, grid.ny))
    except RuntimeError as exc:
        raise StageError(f"{stage} factorization failed: {exc}") from exc


def reconstruct_pi(problem: LinearProblem, h: CellField) -> NodeField:
    """Mean part on interior nodes: ``pi = (f + dh*(G h)) / G``."""
    div = apply_dh_star(CellField(problem.grid, problem.reaction_cell.values * h.values),
                        problem.direction)
    return NodeField.on_interior(problem.grid, (problem.source_node.values[INTERIOR]
                                 + div.values[INTERIOR]) / problem.reaction_node.values[INTERIOR])


# Step cap of the conjugate-gradient solves; a sum system that misses the
# tolerance within it on a held factor is factored instead (_sum_system).
FLUX_CG_MAX_STEPS = 30
# From this step on CG gives up once its observed contraction would miss the cap.
_CG_JUDGE_FROM = 4


def _cg(apply, gc: np.ndarray, factor: BandFactor | DirectFactor, rhs: np.ndarray,
        tol: float) -> tuple[np.ndarray, float, int]:
    """Preconditioned conjugate gradients on a cell system ``A_s x = rhs``.

    ``apply`` applies ``A_s``, which is self-adjoint in the inner product
    weighted by ``gc`` (the cell G), as A and ``A + diag(eps G/H)`` are; CG
    runs in that inner product.  ``factor.lu_solve`` preconditions, where the
    factor may be of ``A_s`` itself, of A, or of an earlier system.  CG starts
    from zero and runs until its recursive residual falls below ``1e-3 tol``
    relative, or below ``tol`` after step 1.  The residual after step 1 is
    the true one, ``rhs - apply(x)``, so a solve that stops there has tested
    the residual it reports; the recursive one passed ``tol`` where the true
    one read 1.004e-12 at 440 cells per side.  It gives up at
    ``FLUX_CG_MAX_STEPS`` steps, or from step ``_CG_JUDGE_FROM`` on as soon
    as the mean contraction per step so far, kept up to the cap, would leave
    the residual above ``tol``.  Returns ``(x, residual, steps)``, the
    relative residual recomputed by ``apply``.
    """
    rhs_norm = norm2(rhs)
    x = np.zeros_like(rhs)
    if rhs_norm == 0.0:
        return x, 0.0, 0
    target = 1e-3 * tol * rhs_norm
    r = rhs.copy()
    steps = 0
    while steps < FLUX_CG_MAX_STEPS:
        r_norm = norm2(r)
        if (r_norm < target or (steps == 1 and r_norm <= tol * rhs_norm)
                or (steps >= _CG_JUDGE_FROM
                    and (r_norm / rhs_norm) ** (FLUX_CG_MAX_STEPS / steps) > tol)):
            break
        z = factor.lu_solve(r)
        rho = dot(r, gc * z)
        if steps:
            p *= rho / rho_prev
            p += z
        else:
            p = z.copy()
        q = apply(p)
        alpha = rho / dot(p, gc * q)
        x += alpha * p
        if steps:
            r -= alpha * q
        else:
            r = rhs - apply(x)
        rho_prev = rho
        steps += 1
    if steps != 1:
        r = rhs - apply(x)
    return x, norm2(r) / rhs_norm, steps


@dataclass
class HeldFactor:
    """A factor of a cell system, held across the solves that it may precondition.

    :func:`solve_p` holds the factor of its own system from one Gummel
    iteration to the next; :func:`solve_linear_ap` holds A's for h and l,
    and :func:`solve_L` for L, for one call.  ``factor`` is ``None`` while
    nothing is held.  :func:`_sum_system` drops it before it factors anew,
    so two factors of one holder are never alive at once.
    """

    factor: BandFactor | DirectFactor | None = None

    def drop(self) -> None:
        self.factor = None


def _sum_system(problem: LinearProblem, held: HeldFactor, rhs: np.ndarray, eps: float,
                matrix: sp.csr_matrix | None, tol: float, stage: str):
    """The sum system ``(A + diag(eps G/H)) x = rhs`` on the interior cells.

    ``matrix`` is A as CSR, or ``None``, in which case A is applied through
    its stencils and assembled only to be factored.  While ``held`` holds a
    factor of this grid's size, :func:`_cg` runs on the system preconditioned
    by it.  When it holds none, or that run misses ``tol``, the held factor
    is dropped, a copy of A, or A assembled, gains the diagonal in place,
    keeping its structure, and CG runs again on the system's own factor
    (:func:`_factor`), which ``held`` then holds.  A miss on that factor
    raises :class:`StageError` naming ``stage``, and so does a miss on a held
    factor that already is the system's own (``eps == 0`` and the factor's
    matrix is ``matrix``): a new factor of the same matrix would miss the
    same way.

    Returns ``(x, residual, steps, factored)``: the CG steps of both runs,
    and whether the system was factored.
    """
    gc = problem.reaction_cell.values[INTERIOR].ravel()
    diag = eps * gc / problem.diffusivity_cell.values[INTERIOR].ravel()
    mean = _cell_operator(problem) if matrix is None else matrix.dot
    steps = 0
    if held.factor is not None and held.factor.matrix.shape[0] == gc.size:
        x, residual, steps = _cg(lambda v: mean(v).ravel() + diag * v, gc, held.factor, rhs, tol)
        if residual <= tol:
            return x, residual, steps, False
        if eps == 0.0 and held.factor.matrix is matrix:
            raise _missed(stage, residual, tol)
    held.drop()
    system = assemble(problem) if matrix is None else matrix.copy()
    system.setdiag(system.diagonal() + diag)
    held.factor = _factor(problem, system, stage)
    x, residual, new_steps = _cg(system.dot, gc, held.factor, rhs, tol)
    if not residual <= tol:
        raise _missed(stage, residual, tol)
    return x, residual, steps + new_steps, True


def _missed(stage: str, residual: float, tol: float) -> StageError:
    return StageError(f"{stage} solve failed: residual {residual:.3e} above tolerance {tol:.1e}")


def solve_L(problem: LinearProblem, mean_factor: BandFactor | DirectFactor,
            config: SolverConfig | None = None, rhs_mean: CellField | None = None):
    """Flux-scale potential; the only eps-dependent system.

    With ``x = H L / G`` on the cells, the system reads
    ``(A + diag(eps G/H)) x = rhs``, where A, the mean-potential matrix, is
    ``mean_factor.matrix``.  :func:`_sum_system` solves it by CG
    preconditioned by ``mean_factor``, and for large eps, where CG misses
    ``tol``, on a factor of its own, built from a copy of A and dropped on
    return.  The reported residual is recomputed on the system itself.
    ``rhs_mean`` is ``dh(f/G)`` when the caller has it already.

    Returns ``(L, residual, cg_iterations)``: the field, the relative
    residual of the solve, and the CG steps taken, or ``None`` when the
    system was factored.  A right-hand side that vanishes, as it does
    identically at eps = 0, skips the solve: ``L = 0`` exactly, with
    residual 0 and no CG step.
    """
    config = config or SolverConfig()
    grid = problem.grid
    if rhs_mean is None:
        rhs_mean = _rhs_mean(problem)
    rhs = -problem.eps * (
        rhs_mean.values[INTERIOR] - problem.grad_source_cell.values[INTERIOR]
    ).ravel()
    if not np.any(rhs):
        return CellField.zeros(grid), 0.0, 0

    x, residual, steps, factored = _sum_system(
        problem, HeldFactor(mean_factor), rhs, problem.eps, mean_factor.matrix, config.tol,
        "flux-potential")
    L = CellField.on_interior(grid, problem.reaction_cell.values[INTERIOR]
                              * x.reshape(grid.nx, grid.ny)
                              / problem.diffusivity_cell.values[INTERIOR])
    return L, residual, None if factored else steps


def reconstruct_q(problem: LinearProblem, l: CellField) -> NodeField:
    """Fluctuation part on interior nodes: ``q = dh*(G l) / G``."""
    div = apply_dh_star(CellField(problem.grid, problem.reaction_cell.values * l.values),
                        problem.direction)
    return NodeField.on_interior(problem.grid,
                                 div.values[INTERIOR] / problem.reaction_node.values[INTERIOR])


# Ghost filling ---------------------------------------------------------------


# Relative singular-value cutoff of the ghost-fill least-squares solve.
GHOST_RCOND = 1e-6
# The largest singular value of the row-equilibrated ghost system, taken at its
# bound: each column of the system holds two entries and each row has norm at
# most 1, so Cauchy-Schwarz gives |a^T x|^2 <= 2 |x|^2.  The bound is reached to
# rounding on every case of the studies.  Every cutoff below is relative to it.
_GHOST_SIGMA_MAX = math.sqrt(2.0)
# Singular values below this fraction of the largest are deflated one by one;
# the rest of the row-equilibrated ghost spectrum is solved for by the shifted LU.
_GHOST_CLUSTER = 1e-3
# Block inverse iteration that finds the deflated values: start width (it
# doubles until the block holds them, up to the dense SVD), the steps that test
# for convergence, the last its cap, its shift off zero and converged residual.
GHOST_BLOCK = 8
_GHOST_CHECKS = (3, 6, 12)
_GHOST_SHIFT = 1e-9
_GHOST_RESIDUAL = 1e-15


def _augmented(a: sp.csr_matrix, shift: float) -> sp.csc_matrix:
    """``[[-shift I, a], [a^T, -shift I]]`` as CSC."""
    k = a.shape[0]
    c = a.tocoo()
    diagonal = np.arange(2 * k)
    return sp.csc_matrix((np.concatenate([c.data, c.data, np.full(2 * k, -shift)]),
                          (np.concatenate([c.row, c.col + k, diagonal]),
                           np.concatenate([c.col + k, c.row, diagonal]))), shape=(2 * k, 2 * k))


def _ritz_triplets(a: sp.csr_matrix, y: np.ndarray, cut: float):
    """Triplets of ``a`` below ``cut`` from ``y``'s span, and whether the two one-sided counts agree."""
    k = a.shape[0]
    qu, _ = scipy.linalg.qr(y[:k], mode="economic")
    qv, _ = scipy.linalg.qr(y[k:], mode="economic")
    _, sv, wv = scipy.linalg.svd(a @ qv, full_matrices=False)
    _, su, wu = scipy.linalg.svd(a.T @ qu, full_matrices=False)
    n_small = int(np.count_nonzero(sv < cut))
    us = qu @ wu[su.size - n_small:].T
    vs = qv @ wv[sv.size - n_small:].T
    x, s, yt = scipy.linalg.svd(us.T @ (a @ vs))
    return us @ x, s, vs @ yt.T, n_small == np.count_nonzero(su < cut)


def _small_singular_triplets(a: sp.csr_matrix):
    """Singular triplets ``(u, s, v)`` of ``a`` below ``_GHOST_CLUSTER`` times the largest.

    Block inverse iteration on ``[[0, a], [a^T, 0]]``, shifted just off zero
    so that exactly singular ``a`` factors, brings the small values'
    singular vectors into a block of ``GHOST_BLOCK`` columns.  One-sided Ritz
    values, from the SVDs of ``a Q_v`` and ``a^T Q_u``, bound the singular
    values from above and count the small ones on each side; the triplets
    are the SVD of ``U_s^T a V_s`` (:func:`_ritz_triplets`).  The block holds
    them when both counts agree and stay below half its width.  Iteration
    ends at the first step of ``_GHOST_CHECKS`` where, besides, each
    triplet's residual ``|[a v - s u; a^T u - s v]|`` is within
    ``_GHOST_RESIDUAL`` of the largest value, or at the last on the counts
    alone.  A value that nears the cut only later is solved in the bulk,
    within ``(_GHOST_SHIFT/_GHOST_CLUSTER)^2`` of its deflated solve.
    Otherwise the width doubles; at full width the block is the identity,
    the dense SVD.  Returns ``(u, s, v, lu)``, with ``lu`` the one factor of
    the shifted system, made before the first block.
    """
    k = a.shape[0]
    cut = _GHOST_CLUSTER * _GHOST_SIGMA_MAX
    lu = spla.splu(_augmented(a, _GHOST_SHIFT * _GHOST_SIGMA_MAX))
    block = GHOST_BLOCK
    while block < 2 * k:
        y = np.random.default_rng(0).standard_normal((2 * k, block))
        for step in range(1, _GHOST_CHECKS[-1] + 1):
            y, _ = scipy.linalg.qr(lu.solve(y), mode="economic")
            if step in _GHOST_CHECKS:
                u, s, v, agree = _ritz_triplets(a, y, cut)
                residual = scipy.linalg.norm(np.vstack([a @ v - u * s, a.T @ u - v * s]), axis=0)
                converged = np.all(residual <= _GHOST_RESIDUAL * _GHOST_SIGMA_MAX)
                if agree and 2 * s.size < block and (converged or step == _GHOST_CHECKS[-1]):
                    return u, s, v, lu
        block *= 2
    u, s, v, _ = _ritz_triplets(a, np.eye(2 * k), cut)
    return u, s, v, lu


def _truncated_solve(a: sp.csr_matrix, rhs: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Minimum-norm least squares over the singular values above ``GHOST_RCOND`` times the largest.

    The few small singular triplets are deflated: ``rhs`` loses its part on
    ``U_s``, one solve on the inverse iteration's factor of the shifted
    ``[[-sigma I, a], [a^T, -sigma I]]`` covers the rest of the spectrum, its
    lower half loses its part on ``V_s``, and the small values above the
    cutoff are added back one by one.  The shift scales each bulk ``1/s`` by
    ``1/(1 - (sigma/s)^2)``, within ``(_GHOST_SHIFT/_GHOST_CLUSTER)^2 =
    1e-12`` of 1.  A deflated value on ``sigma`` amplifies the rounding left
    by the projection: a shift put exactly on 5.19e-11 (M64, 80 degrees)
    moved the ghosts by 2.7e-11 relative, and 1e-8 relative off it by 1e-17.
    Returns ``(x, rank, deflated)``.
    """
    k = a.shape[0]
    u, s, v, lu = _small_singular_triplets(a)
    deflated = s.size
    bulk = rhs - u @ (u.T @ rhs)
    x = lu.solve(np.concatenate([bulk, np.zeros(k)]))[k:]
    x -= v @ (v.T @ x)
    kept = s > GHOST_RCOND * _GHOST_SIGMA_MAX
    x += v[:, kept] @ ((u[:, kept].T @ rhs) / s[kept])
    return x, k - deflated + int(np.count_nonzero(kept)), deflated


def fill_ghost(p: NodeField, direction: CellVectorField, grad_source: CellField):
    """Fill ghost node values from the flux boundary constraints.

    On every boundary ring cell of ``p.grid`` the constraint ``(dh p) = b.S``
    is imposed, with ``b`` the anisotropy ``direction``, which must have no
    zero vector, and ``b.S`` the ``grad_source``: the ghost columns of the
    ring rows of ``dh`` (:func:`operators.ring_dh`) form one global
    least-squares system over all ghost unknowns, and four unit rows pin the
    corner ghosts, which the ring constraints leave structurally
    undetermined, to their diagonal extrapolation.  A zero or NaN direction
    vector, a non-finite interior value of ``p`` or a non-finite
    ``grad_source`` raises :class:`DataError`.

    Where the direction runs tangent to the boundary the flux constraint
    carries no information and the system is rank deficient; the averaged
    stencil also couples the ghosts tangentially, which makes a few singular
    values small near the axes.  Both are handled the same way: the solve is
    centered on the one-sided second-order extrapolation of the interior
    (:func:`operators.ghost_extrapolation`), and a minimum-norm correction
    over the row-equilibrated system, with singular values at or below
    ``GHOST_RCOND`` times the largest treated as zero, moves the ghosts off
    that prior.  The largest singular value is taken at its bound, sqrt(2)
    (``_GHOST_SIGMA_MAX``), which it reaches to rounding.  The system stays
    sparse: the few singular values below ``1e-3`` times the largest are
    found by block inverse iteration and deflated, and one more solve on
    that iteration's sparse LU, the one matrix a fill factors, covers the
    rest (``_truncated_solve``).  Truncated directions therefore cost at
    most the extrapolation error, which has the same boundary-consistent
    order as the constraints themselves; deficiency is reported, not fatal.

    Interior values are never touched.  Returns ``(filled, report)``.
    """
    _check_direction(direction)
    if not np.all(np.isfinite(p.values[INTERIOR])):
        raise DataError("p has non-finite interior values")
    if not np.all(np.isfinite(grad_source.values)):
        raise DataError("grad_source has non-finite values")
    grid = p.grid
    ring, dh_ring = ring_dh(direction)
    ghosts, extrapolation = ghost_extrapolation(grid)
    interior = p.values.flatten()
    interior[ghosts] = 0.0
    # a row of E @ p is p_ghost - (2 p_1 - p_2); with the ghosts zeroed, minus
    # it is the extrapolated ghost value
    prior = -(extrapolation @ interior)
    bs = grad_source.values.ravel()[ring]

    sx, sy = grid.node_shape
    corners = np.searchsorted(ghosts, [0, sy - 1, (sx - 1) * sy, sx * sy - 1])
    corner_rows = sp.csr_matrix((np.ones(4), (np.arange(4), corners)), shape=(4, ghosts.size))
    a = sp.vstack([dh_ring[:, ghosts], corner_rows], format="csr")
    rhs = np.concatenate([bs - dh_ring @ interior, prior[corners]]) - a @ prior

    row_norms = spla.norm(a, axis=1)
    scale = np.where(row_norms > 0.0, row_norms, 1.0)
    a.data /= np.repeat(scale, np.diff(a.indptr))
    correction, rank, deflated = _truncated_solve(a, rhs / scale)
    filled = p.copy()
    filled.values.flat[ghosts] = prior + correction
    defect = apply_dh(filled, direction).values.ravel()[ring] - bs
    report = GhostFillReport(
        constraint_defect=float(np.max(np.abs(defect))),
        rank=rank,
        n_unknowns=ghosts.size,
        rank_deficient=bool(rank < ghosts.size),
        deflated=deflated,
    )
    return filled, report


def solve_linear_ap(problem: LinearProblem,
                    config: SolverConfig | None = None) -> SolutionDecomposition:
    """Full pipeline: L, then h -> pi and l -> q, then p = pi + q and ghost fill.

    Well-posed and second-order accurate uniformly in eps, down to and
    including eps = 0.  The mean and fluctuation systems share one matrix,
    which is factored first and held in a :class:`HeldFactor`; that factor
    preconditions the CG solves of all three stages, L by :func:`solve_L`,
    h and l by :func:`_sum_system` with eps = 0, so one factorization
    serves the whole solve.  Only when CG misses the tolerance on L is the
    L system factored as well, while the shared factor is held.  A miss of
    h or l, on A's own factor, raises :class:`StageError` naming the stage.
    Every solve fills the ghost ring of p (:func:`fill_ghost`) and reports
    the fill in ``ghost``.
    """
    config = config or SolverConfig()
    grid = problem.grid
    held = HeldFactor(_factor(problem, assemble(problem), "mean-potential"))
    # dh(f/G), the right-hand side of h and part of L's, is computed once A is
    # factored: held through the factorization it raised the peak memory of a
    # solve at 399 cells per side by 7 MiB
    rhs_mean = _rhs_mean(problem)
    L, res_L, cg_iterations = solve_L(problem, held.factor, config, rhs_mean)
    fields, residuals = {}, {"L": res_L}
    for name, stage, rhs in (
            ("h", "mean-potential", rhs_mean.values[INTERIOR]),
            ("l", "fluctuation-potential",
             L.values[INTERIOR] - problem.grad_source_cell.values[INTERIOR])):
        x, residuals[name], n, _ = _sum_system(problem, held, rhs.ravel(), 0.0,
                                               held.factor.matrix, config.tol, stage)
        fields[name] = CellField.on_interior(grid, x)
        cg_iterations = None if cg_iterations is None else cg_iterations + n
    h, l = fields["h"], fields["l"]
    pi = reconstruct_pi(problem, h)
    q = reconstruct_q(problem, l)
    p, ghost_report = fill_ghost(NodeField(grid, pi.values + q.values), problem.direction,
                                 problem.grad_source_cell)

    p_norm = norm2(p.values[INTERIOR])
    dh_pi = apply_dh(pi, problem.direction).values[INTERIOR]
    mean_grad_l2 = norm2(dh_pi) / max(p_norm, 1e-300)

    return SolutionDecomposition(
        h=h,
        L=L,
        l=l,
        pi=pi,
        q=q,
        p=p,
        residuals=residuals,
        mean_gradient_l2=mean_grad_l2,
        ghost=ghost_report,
        cg_iterations=cg_iterations,
    )


def solve_p(problem: LinearProblem, held: HeldFactor, config: SolverConfig | None = None):
    """Interior p of ``problem`` from one cell system, without its split into pi and q.

    ``s = h + l`` solves ``(A + diag(eps G/H)) s = dh(f/G) - b.S``, and
    ``p = pi + q = (f + dh*(G s)) / G`` (:func:`reconstruct_pi` of s), so
    one stage does the work of the three of :func:`solve_linear_ap`.  That
    system is L's with another right-hand side, and :func:`_sum_system`
    solves it the same way, with A applied through its stencils.  ``held``
    carries the system's factor from one solve to the next: on a held factor
    nothing is assembled or factored unless CG misses ``tol``.  A fresh
    :class:`HeldFactor` for every solve factors every time.

    Returns ``(p, residual, steps, factored)``: p with its ghost ring at
    zero, the relative residual of the last stage, the CG steps of the held
    and the new stage, and whether the system was factored.
    """
    config = config or SolverConfig()
    grid = problem.grid
    rhs = (_rhs_mean(problem).values[INTERIOR]
           - problem.grad_source_cell.values[INTERIOR]).ravel()
    x, residual, steps, factored = _sum_system(problem, held, rhs, problem.eps, None, config.tol,
                                               "sum-potential")
    return reconstruct_pi(problem, CellField.on_interior(grid, x)), residual, steps, factored
