"""Direct one-shot discretization of the singular problem, for comparison.

The unknown vector holds every node value, ghosts included.  Interior rows
discretize the full equation at interior nodes; each boundary ring cell
contributes the flux condition scaled by the direction/normal alignment.
Those flux rows alone cannot close the system: they under-determine the
corner ghosts, they carry no information where the direction runs tangent
to the boundary, and their tangential ghost coupling is an exponentially
unstable recursion along each edge.  The closure is therefore rectangular:
every ghost node additionally receives a one-sided second-order
extrapolation row of unit weight, and the whole system is solved in
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
from .operators import apply_dh, apply_dh_star

__all__ = ["NaiveSystem", "assemble_naive", "solve_naive", "conditioning_sweep"]

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


def _ring_normal(ci: int, cj: int, nx: int, ny: int) -> tuple[float, float]:
    ix = -1.0 if ci == 0 else (1.0 if ci == nx + 1 else 0.0)
    iy = -1.0 if cj == 0 else (1.0 if cj == ny + 1 else 0.0)
    if ix and iy:
        r = np.sqrt(2.0)
        return ix / r, iy / r
    return ix, iy


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
    """Build the rectangular direct system over all node unknowns."""
    g = problem.grid
    nx, ny = g.nx, g.ny
    sy = g.node_shape[1]
    n = g.node_shape[0] * sy
    bvals = problem.direction.values
    hvals = problem.diffusivity_cell.values
    bs = problem.grad_source_cell.values
    dx2, dy2 = 2.0 * g.dx, 2.0 * g.dy

    interior, rhs_interior = _interior_rows(problem)

    rows, cols, vals, rhs_extra = [], [], [], []
    degenerate = []
    row = 0

    # flux condition rows at ring cells
    for ci in range(nx + 2):
        for cj in range(ny + 2):
            if not (ci in (0, nx + 1) or cj in (0, ny + 1)):
                continue
            nux, nuy = _ring_normal(ci, cj, nx, ny)
            bx, by = bvals[ci, cj]
            align = bx * nux + by * nuy
            if abs(align) < DEGENERATE_TOL:
                # identically zero row: the condition is vacuous here
                degenerate.append((ci - 1, cj - 1))
                continue
            scale = hvals[ci, cj] * align
            for di in (0, 1):
                for dj in (0, 1):
                    coef = (1.0 if di else -1.0) * bx / dx2 + (1.0 if dj else -1.0) * by / dy2
                    rows.append(row)
                    cols.append((ci + di) * sy + (cj + dj))
                    vals.append(scale * coef)
            rhs_extra.append(scale * bs[ci, cj])
            row += 1

    # unit-weight extrapolation prior for every ghost node
    for ai in range(nx + 3):
        for aj in range(ny + 3):
            if 1 <= ai <= nx + 1 and 1 <= aj <= ny + 1:
                continue
            di = 1 if ai == 0 else (-1 if ai == nx + 2 else 0)
            dj = 1 if aj == 0 else (-1 if aj == ny + 2 else 0)
            idx = [ai * sy + aj, (ai + di) * sy + (aj + dj), (ai + 2 * di) * sy + (aj + 2 * dj)]
            rows.extend([row] * 3)
            cols.extend(idx)
            vals.extend([1.0, -2.0, 1.0])
            rhs_extra.append(0.0)
            row += 1

    extra = sp.coo_matrix((vals, (rows, cols)), shape=(row, n)).tocsr()
    matrix = sp.vstack([interior, extra], format="csr")
    rhs = np.concatenate([rhs_interior, np.asarray(rhs_extra)])
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


def conditioning_sweep(case, eps_list, grid, config: SolverConfig | None = None) -> list:
    """Condition estimates of the direct system over a descending eps list.

    ``case`` is a registry name or a ``(grid, eps) -> ManufacturedCase``
    constructor of a linear case.  Returns one dict per eps with keys
    ``eps``, ``cond_estimate``, ``solve_residual``, ``status``.
    """
    from .problems import CASES

    builder = CASES[case] if isinstance(case, str) else case
    out = []
    for eps in eps_list:
        t0 = time.perf_counter()
        problem = builder(grid, eps).problem
        system = assemble_naive(problem)
        cond = naive_condition(system)
        _, report = solve_naive(problem, config)
        status = "ok" if report.ok and np.isfinite(cond) else "ill-conditioned"
        if not np.isfinite(cond):
            status = ">= overflow-threshold"
        out.append(
            {
                "eps": eps,
                "cond_estimate": cond,
                "solve_residual": report.residual,
                "status": status,
                "runtime_ms": 1e3 * (time.perf_counter() - t0),
            }
        )
    return out
