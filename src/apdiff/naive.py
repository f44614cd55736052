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
vanishes; rows with exactly zero alignment are dropped and flagged.

As eps decreases the normal equations inherit the singular limit of the
equation and the condition number blows up; demonstrating that failure
mode is this module's purpose.  The decomposition solver avoids it
entirely.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .apcore import LinearProblem
from .grid import INTERIOR, CellField, NodeField
from .linsolve import SolveReport, SolverConfig, assemble, estimate_condition
from .operators import apply_dh, apply_dh_star, ghost_extrapolation, ring_dh

__all__ = ["NaiveSystem", "assemble_naive", "solve_naive"]

DEGENERATE_TOL = 1e-12


@dataclass
class NaiveSystem:
    """Rectangular (rows >= unknowns) system solved in least-squares mode."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    grid: object
    degenerate_cells: list = field(default_factory=list)  # ring cells with b.nu ~ 0

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape


def _interior_rows(problem: LinearProblem):
    """Probe the interior operator: nodes (all) -> equation residuals (interior)."""
    g = problem.grid
    nx, ny = g.nx, g.ny
    ctx = problem.context()
    hcell = problem.diffusivity_cell.values
    gnode = problem.reaction_node.values[INTERIOR]
    eps = problem.eps

    def apply_full(v: np.ndarray) -> np.ndarray:
        flux = CellField(g, hcell * apply_dh(NodeField(g, v), ctx).values)
        div = apply_dh_star(flux, ctx)
        return -div.values[INTERIOR] + eps * gnode * v[INTERIOR]

    mat = assemble(apply_full, g.node_shape, (nx + 1, ny + 1))

    flux_data = CellField(g, hcell * problem.grad_source_cell.values)
    rhs = (
        eps * problem.source_node.values[INTERIOR]
        - apply_dh_star(flux_data, ctx).values[INTERIOR]
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
    ring, dh_ring = ring_dh(problem.context())
    _, extrapolation = ghost_extrapolation(g)

    ci, cj = np.unravel_index(ring, g.cell_shape)
    nux = (ci == g.nx + 1).astype(float) - (ci == 0)
    nuy = (cj == g.ny + 1).astype(float) - (cj == 0)
    corner = (nux != 0.0) & (nuy != 0.0)
    nux[corner] /= np.sqrt(2.0)
    nuy[corner] /= np.sqrt(2.0)
    align = problem.direction.x[ci, cj] * nux + problem.direction.y[ci, cj] * nuy
    # where b runs tangent to the boundary the scaled row vanishes: dropped and flagged
    keep = np.abs(align) >= DEGENERATE_TOL
    scale = problem.diffusivity_cell.values[ci, cj][keep] * align[keep]
    # diag(scale) @ dh_ring[keep], scaled in place: a sparse product would drop
    # stored zeros and leave the column indices of each row unsorted
    flux = dh_ring[keep]
    flux.data *= np.repeat(scale, np.diff(flux.indptr))

    matrix = sp.vstack([interior, flux, extrapolation], format="csr")
    rhs = np.concatenate([rhs_interior, scale * problem.grad_source_cell.values[ci, cj][keep],
                          np.zeros(extrapolation.shape[0])])
    degenerate = list(zip((ci[~keep] - 1).tolist(), (cj[~keep] - 1).tolist()))
    return NaiveSystem(matrix=matrix, rhs=rhs, grid=g, degenerate_cells=degenerate)


def solve_naive(problem: LinearProblem, config: SolverConfig | None = None):
    """Least-squares solve of the direct system; ``(NodeField, SolveReport)``.

    Solves the normal equations with a sparse direct factorization.  The
    reported residual is the relative normal-equation defect (the data
    misfit itself is dominated by the truncation of the flux rows and does
    not vanish).  Expected to work at moderate eps and to degrade as
    eps -> 0; robustness at small eps is not a goal here.
    """
    config = config or SolverConfig()
    system = assemble_naive(problem)
    t0 = time.perf_counter()
    a = system.matrix
    ata = (a.T @ a).tocsc()
    atb = a.T @ system.rhs
    scale = max(float(np.linalg.norm(atb)), 1e-300)
    try:
        lu = spla.splu(ata, permc_spec="COLAMD")
        x = lu.solve(atb)
        for _ in range(2):
            res = float(np.linalg.norm(ata @ x - atb)) / scale
            if res <= config.tol or not np.isfinite(res):
                break
            x = x + lu.solve(atb - ata @ x)
        res = float(np.linalg.norm(ata @ x - atb)) / scale
        ok = bool(np.isfinite(res) and res <= max(config.tol, 1e-10))
        report = SolveReport(x, res, time.perf_counter() - t0, ok, "normal-equations")
    except RuntimeError as exc:
        x = np.full(a.shape[1], np.nan)
        report = SolveReport(x, np.inf, time.perf_counter() - t0, False,
                             f"normal-equations ({exc})")
    fld = NodeField(problem.grid, report.x.reshape(problem.grid.node_shape))
    return fld, report


def naive_condition(system: NaiveSystem, seed: int = 0) -> float:
    """2-norm condition estimate of the rectangular system.

    Estimated as the square root of the normal-equation condition number;
    overflow or a singular factorization reports ``inf``.
    """
    ata = (system.matrix.T @ system.matrix).tocsr()
    kappa = estimate_condition(ata, seed=seed)
    return float(np.sqrt(kappa)) if np.isfinite(kappa) else np.inf
