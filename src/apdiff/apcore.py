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
eps = 0), so cost and accuracy are uniform in the anisotropy strength.
Ghost node values of p never feed back into the solution; they are filled in
a final least-squares pass from the flux boundary condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .grid import INTERIOR, CellField, CellVectorField, Grid, NodeField
from .linsolve import DirectFactor, SolveReport, SolverConfig, assemble, nested_dissection
from .operators import (OperatorContext, apply_dh, apply_dh_star, compose_second_order,
                        ghost_extrapolation, ring_dh)

__all__ = [
    "LinearProblem",
    "SolutionDecomposition",
    "GhostFillReport",
    "StageError",
    "reconstruct_pi",
    "solve_L",
    "reconstruct_q",
    "fill_ghost",
    "solve_linear_ap",
]


class StageError(RuntimeError):
    """A stage of the solve pipeline failed; the message names the stage."""


def check_data(problem, names, positive) -> None:
    """Reject a negative or non-finite eps, non-finite fields and non-positive coefficients.

    ``names`` lists the field attributes of ``problem`` to check for
    finiteness, ``positive`` those of them that must be strictly positive.
    """
    if not (np.isfinite(problem.eps) and problem.eps >= 0.0):
        raise ValueError(f"eps must be finite and >= 0, got {problem.eps}")
    for name in names:
        values = getattr(problem, name).values
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} has non-finite values")
        if name in positive and not np.all(values > 0.0):
            raise ValueError(f"{name} must be strictly positive")


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

    @classmethod
    def from_functions(cls, grid: Grid, eps, reaction, diffusivity, direction, source, grad_source):
        """Sample analytically known coefficient functions on the lattices."""
        from .grid import sample_cell, sample_cell_vec, sample_node

        return cls(
            grid=grid,
            eps=float(eps),
            reaction_node=sample_node(reaction, grid),
            reaction_cell=sample_cell(reaction, grid),
            diffusivity_cell=sample_cell(diffusivity, grid),
            direction=sample_cell_vec(direction, grid),
            source_node=sample_node(source, grid),
            grad_source_cell=sample_cell(grad_source, grid),
        )

    def context(self) -> OperatorContext:
        return OperatorContext(self.grid, self.direction)


@dataclass
class GhostFillReport:
    constraint_defect: float  # max |flux constraint residual| over ring cells
    rank: int
    n_unknowns: int
    n_constraints: int
    rank_deficient: bool


@dataclass
class SolutionDecomposition:
    """Everything produced by one linear solve."""

    h: CellField
    L: CellField
    l: CellField
    pi: NodeField  # mean part (constant along b up to the solver residual)
    q: NodeField  # fluctuation part
    p: NodeField  # pi + q on interior nodes, ghost ring filled
    residuals: dict = field(default_factory=dict)  # per-stage relative residuals
    mean_gradient_l2: float = 0.0  # ||dh pi||_l2(cells) / ||p||_l2(nodes)
    ghost: GhostFillReport | None = None


def _rhs_mean(problem: LinearProblem, ctx: OperatorContext) -> CellField:
    """dh(f/G), defined on all cells."""
    ratio = NodeField(problem.grid, problem.source_node.values / problem.reaction_node.values)
    return apply_dh(ratio, ctx)


def _cell_operator(problem: LinearProblem, ctx: OperatorContext, cell_weight: CellField,
                   shift: float = 0.0):
    """``-dh((1/G) dh*(cell_weight chi)) + shift chi`` on interior cells, ring held at zero."""
    grid = problem.grid

    def op(v: np.ndarray) -> np.ndarray:
        chi = CellField.zeros(grid)
        chi.values[INTERIOR] = v
        out = compose_second_order(chi, cell_weight, problem.reaction_node, ctx)
        return out.values[INTERIOR] + shift * v

    return op


def _factor(op_apply, grid: Grid, tol: float, stage: str) -> DirectFactor:
    """Assemble a cell system and factor it in nested-dissection order."""
    matrix = assemble(op_apply, (grid.nx, grid.ny))
    order = nested_dissection(grid.nx, grid.ny)
    try:
        return DirectFactor(matrix, order, tol=tol)
    except RuntimeError:
        # Exactly singular factorization: a gauge mode that cancels out of
        # every reconstruction; a tiny diagonal shift selects one gauge.
        # Refinement and residuals stay on the unshifted matrix.
        shift = 1e-12 * float(abs(matrix).max())
        try:
            return DirectFactor(matrix, order, tol=tol, shift=shift)
        except RuntimeError as exc:
            raise StageError(f"{stage} factorization failed, also after a gauge shift: "
                             f"{exc}") from exc


def _solve(factor: DirectFactor, rhs_interior: np.ndarray, grid: Grid, tol: float,
           stage: str) -> tuple[CellField, SolveReport]:
    """Solve one right-hand side on the interior cells; the ring stays zero."""
    report = factor.solve(rhs_interior.ravel())
    if not report.ok:
        raise StageError(f"{stage} solve failed: residual {report.residual:.3e} "
                         f"above tolerance {tol:.1e}")
    out = CellField.zeros(grid)
    out.values[INTERIOR] = report.x.reshape(grid.nx, grid.ny)
    return out, report


def reconstruct_pi(problem: LinearProblem, h: CellField) -> NodeField:
    """Mean part on interior nodes: ``pi = (f + dh*(G h)) / G``."""
    ctx = problem.context()
    div = apply_dh_star(CellField(problem.grid, problem.reaction_cell.values * h.values), ctx)
    pi = NodeField.zeros(problem.grid)
    pi.values[INTERIOR] = (
        problem.source_node.values[INTERIOR] + div.values[INTERIOR]
    ) / problem.reaction_node.values[INTERIOR]
    return pi


def solve_L(problem: LinearProblem, config: SolverConfig | None = None):
    """Flux-scale potential; the only eps-dependent system.

    At eps = 0 the right-hand side vanishes identically and the solve is
    skipped (L = 0 exactly).
    """
    config = config or SolverConfig()
    grid = problem.grid
    if problem.eps == 0.0:
        return CellField.zeros(grid), SolveReport(
            np.zeros(grid.n_interior_cells), 0.0, 0.0, True, "skipped (eps = 0)"
        )
    ctx = problem.context()
    rhs = -problem.eps * (
        _rhs_mean(problem, ctx).values[INTERIOR] - problem.grad_source_cell.values[INTERIOR]
    )
    op = _cell_operator(problem, ctx, problem.diffusivity_cell, problem.eps)
    factor = _factor(op, grid, config.tol, "flux-potential")
    return _solve(factor, rhs, grid, config.tol, "flux-potential")


def reconstruct_q(problem: LinearProblem, l: CellField) -> NodeField:
    """Fluctuation part on interior nodes: ``q = dh*(G l) / G``."""
    ctx = problem.context()
    div = apply_dh_star(CellField(problem.grid, problem.reaction_cell.values * l.values), ctx)
    q = NodeField.zeros(problem.grid)
    q.values[INTERIOR] = div.values[INTERIOR] / problem.reaction_node.values[INTERIOR]
    return q


# Ghost filling ---------------------------------------------------------------


# Relative singular-value cutoff of the ghost-fill least-squares solve.
GHOST_RCOND = 1e-6


def fill_ghost(p: NodeField, grid: Grid, direction: CellVectorField, grad_source: CellField):
    """Fill ghost node values from the flux boundary constraints.

    On every boundary ring cell the constraint ``(dh p) = b.S`` is imposed,
    with ``b`` the anisotropy ``direction`` and ``b.S`` the ``grad_source``:
    the ghost columns of the ring rows of ``dh`` (:func:`operators.ring_dh`)
    form one global least-squares system over all ghost unknowns, and four
    unit rows pin the corner ghosts, which the ring constraints leave
    structurally undetermined, to their diagonal extrapolation.

    Where the direction runs tangent to the boundary the flux constraint
    carries no information and the system is rank deficient; the averaged
    stencil also couples the ghosts tangentially, which makes parts of the
    spectrum decay fast along each edge.  Both are handled the same way: the
    solve is centered on the one-sided second-order extrapolation of the
    interior (:func:`operators.ghost_extrapolation`), and a minimum-norm
    correction over the row-equilibrated system, with singular values at or
    below ``GHOST_RCOND`` times the largest treated as zero (LAPACK
    ``gelsd``), moves the ghosts off that prior.  Truncated directions
    therefore cost at most the extrapolation error, which has the same
    boundary-consistent order as the constraints themselves; deficiency is
    reported, not fatal.

    Interior values are never touched.  Returns ``(filled, report)``.
    """
    ctx = OperatorContext(grid, direction)
    ring, dh_ring = ring_dh(ctx)
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
    a = sp.vstack([dh_ring[:, ghosts], corner_rows]).toarray()
    rhs = np.concatenate([bs - dh_ring @ interior, prior[corners]])

    row_norms = np.linalg.norm(a, axis=1)
    scale = np.where(row_norms > 0.0, row_norms, 1.0)
    correction, _, rank, _ = scipy.linalg.lstsq(a / scale[:, None], (rhs - a @ prior) / scale,
                                                cond=GHOST_RCOND, lapack_driver="gelsd")
    filled = p.copy()
    filled.values.flat[ghosts] = prior + correction
    defect = apply_dh(filled, ctx).values.ravel()[ring] - bs
    report = GhostFillReport(
        constraint_defect=float(np.max(np.abs(defect))),
        rank=int(rank),
        n_unknowns=ghosts.size,
        n_constraints=ring.size,
        rank_deficient=bool(rank < ghosts.size),
    )
    return filled, report


def solve_linear_ap(problem: LinearProblem, config: SolverConfig | None = None,
                    fill: bool = True) -> SolutionDecomposition:
    """Full pipeline: L, then h -> pi and l -> q, then p = pi + q and ghost fill.

    Well-posed and second-order accurate uniformly in eps, down to and
    including eps = 0.  The mean and fluctuation systems share one matrix and
    one factorization.  L does not depend on h and is solved first, so its
    factorization is freed before the shared one is built.
    """
    config = config or SolverConfig()
    grid = problem.grid
    ctx = problem.context()

    L, rep_L = solve_L(problem, config)

    op_mean = _cell_operator(problem, ctx, problem.reaction_cell)
    factor = _factor(op_mean, grid, config.tol, "mean-potential")
    h, rep_h = _solve(factor, _rhs_mean(problem, ctx).values[INTERIOR], grid, config.tol,
                      "mean-potential")
    pi = reconstruct_pi(problem, h)

    rhs_l = L.values[INTERIOR] - problem.grad_source_cell.values[INTERIOR]
    l, rep_l = _solve(factor, rhs_l, grid, config.tol, "fluctuation-potential")
    q = reconstruct_q(problem, l)

    p = NodeField.zeros(grid)
    p.values[INTERIOR] = pi.values[INTERIOR] + q.values[INTERIOR]

    ghost_report = None
    if fill:
        p, ghost_report = fill_ghost(p, grid, problem.direction, problem.grad_source_cell)

    p_norm = float(np.linalg.norm(p.values[INTERIOR]))
    dh_pi = apply_dh(pi, ctx).values[INTERIOR]
    mean_grad_l2 = float(np.linalg.norm(dh_pi)) / max(p_norm, 1e-300)

    return SolutionDecomposition(
        h=h,
        L=L,
        l=l,
        pi=pi,
        q=q,
        p=p,
        residuals={"h": rep_h.residual, "L": rep_L.residual, "l": rep_l.residual},
        mean_gradient_l2=mean_grad_l2,
        ghost=ghost_report,
    )
