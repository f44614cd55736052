"""Newton-type linearization loop for the nonlinear reaction term.

The nonlinear problem

    -div( H (b ox b) (grad p - S) / eps ) + g(p) = f

is solved by iterating: linearize g around the current iterate, solve the
resulting linear anisotropic problem for the correction with the
decomposition pipeline, and add the correction on interior nodes.  Interior
values never read ghost values, so the ghost ring is filled from the flux
boundary condition once, when the loop hands back its iterate.  For a linear
reaction law the first correction is exact, so the loop converges in one
iteration up to solver residuals.

Only the correction p of each linearized problem is kept, so each iteration
solves one cell system for it, ``(A + diag(eps G/H)) s = dh(f/G) - b.S`` with
``s = h + l``, where the decomposition solves three (:func:`apcore.solve_p`).
The loop holds the factor of that system across iterations
(:class:`apcore.HeldFactor`), a lagged preconditioner (Knoll & Keyes,
J. Comput. Phys. 193, 2004; Kelley, SIAM 1995, ch. 5).  An iteration on a
held factor assembles and factors nothing and its stage runs preconditioned
CG; a stage that misses the tolerance drops the factor and factors anew.  At
most one factor is alive at a time, none after the loop returns, and
``IterationRecord.factored`` records which iterations factored.

Large grids first run the loop on their 2:1 coarse grid, which drops its
factor before the fine loop factors (:func:`gummel_solve`).
"""

from __future__ import annotations

import dataclasses
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

# solve_linear_ap is not called here: perfbench/tracing.py patches the name gummel.solve_linear_ap
from .apcore import (DataError, HeldFactor, LinearProblem, StageError, check_data,  # noqa: F401
                     fill_ghost, solve_linear_ap, solve_p)
from .grid import (INTERIOR, CellField, CellVectorField, Grid, NodeField, coarse_grid,
                   inject_cell, prolong_node, restrict_node)
from .linsolve import SolverConfig, norm2
from .operators import apply_dh

__all__ = [
    "NonlinearProblem",
    "StopRule",
    "GummelState",
    "linearize",
    "gummel_solve",
    "error_plateau_check",
    "PlateauReport",
]

SLOPE_FLOOR = 1e-12  # guards reaction laws whose derivative can vanish


@dataclass
class NonlinearProblem:
    """Nonlinear reaction-diffusion data; ``reaction_law`` must be increasing."""

    grid: Grid
    eps: float
    diffusivity_cell: CellField
    direction: CellVectorField
    source_node: NodeField
    grad_source_cell: CellField
    reaction_law: object  # g : p -> g(p), vectorized
    reaction_slope: object  # g' : p -> g'(p), vectorized

    def __post_init__(self):
        check_data(self, ("diffusivity_cell", "direction", "source_node", "grad_source_cell"),
                   positive=("diffusivity_cell",))


@dataclass
class StopRule:
    tol_rel: float = 1e-12  # on ||correction||_2 / ||iterate||_2 over interior nodes
    n_max: int = 30

    def __post_init__(self):
        # a bool is an int that would stand for 1; a text, None, a list or a complex has no order
        tol = self.tol_rel
        real = isinstance(tol, (int, float, np.integer, np.floating)) and not isinstance(tol, bool)
        if not (real and np.isfinite(tol) and tol > 0):
            raise ValueError(f"tol_rel must be finite and positive, got {tol!r}")
        if isinstance(self.n_max, bool) or not (isinstance(self.n_max, (int, np.integer))
                                                and self.n_max >= 1):
            raise ValueError(f"n_max must be an integer >= 1, got {self.n_max!r}")


@dataclass
class IterationRecord:
    n: int
    correction_rel: float
    error_rel_l2: float  # nan when no exact solution was supplied
    residual: float  # relative residual of the iteration's one cell system
    slope_floored: int  # number of samples where g' fell below the safeguard
    cg_iterations: int  # of the held and the new stage
    factored: bool  # whether the iteration assembled and factored its system
    # wall time of the iteration, linearization and update included; two
    # records of the same iteration compare equal whatever their timings
    seconds: float = field(compare=False)


@dataclass
class GummelState:
    status: str = "running"  # converged | diverged | max_iterations
    history: list = field(default_factory=list)
    detail: str = ""  # mechanism of a divergence abort, when applicable
    coarse: GummelState | None = None  # the run on the 2:1 coarse grid that gave the start

    @property
    def n_iterations(self) -> int:
        return len(self.history)

    @property
    def corrections(self) -> list:
        return [r.correction_rel for r in self.history]


def _cell_average(values: np.ndarray) -> np.ndarray:
    """Four-point average of node values onto every cell center."""
    return 0.25 * (values[1:, 1:] + values[1:, :-1] + values[:-1, 1:] + values[:-1, :-1])


def linearize(problem: NonlinearProblem, p: NodeField) -> LinearProblem:
    """Linear problem for the correction around the iterate ``p``.

    Reaction coefficient = g'(p) at nodes and at four-point node averages at
    cells, source = f - g(p), gradient offset = b.S - dh(p).  Slopes at or
    below the safeguard floor are clamped with a warning; converged iterates
    in the monotone region are unaffected.
    """
    g = problem.grid
    with np.errstate(over="ignore", invalid="ignore"):
        slope_node = np.asarray(problem.reaction_slope(p.values), dtype=float)
        slope_cell = np.asarray(problem.reaction_slope(_cell_average(p.values)), dtype=float)
        reacted = np.asarray(problem.reaction_law(p.values), dtype=float)

    floored = int(np.sum(slope_node < SLOPE_FLOOR) + np.sum(slope_cell < SLOPE_FLOOR))
    if floored:
        warnings.warn(
            f"reaction slope fell below {SLOPE_FLOOR:g} at {floored} samples; clamped",
            RuntimeWarning,
            stacklevel=2,
        )
        slope_node = np.maximum(slope_node, SLOPE_FLOOR)
        slope_cell = np.maximum(slope_cell, SLOPE_FLOOR)

    grad_iter = apply_dh(p, problem.direction)
    lp = LinearProblem(
        grid=g,
        eps=problem.eps,
        reaction_node=NodeField(g, slope_node),
        reaction_cell=CellField(g, slope_cell),
        diffusivity_cell=problem.diffusivity_cell,
        direction=problem.direction,
        source_node=NodeField(g, problem.source_node.values - reacted),
        grad_source_cell=CellField(g, problem.grad_source_cell.values - grad_iter.values),
    )
    lp._slope_floored = floored  # diagnostic, consumed by the driver
    return lp


# Squares per side of the smallest coarse grid a run starts from.  The coarse
# start pays from about 160 squares per side of the fine grid: on
# nonlinear-spline (2 vCPUs, 1 and 2 BLAS threads) a run took 0.79-1.00 of
# the time from the guess at 160 and 0.62-0.83 at 200, but 0.85-1.35 at 128,
# 1.09-1.19 at 100 and 1.12-1.55 at 64.
COARSE_MIN_SQUARES = 80


def _coarse_problem(problem: NonlinearProblem) -> NonlinearProblem | None:
    """``problem`` on its 2:1 coarse grid, or ``None`` when the grid does not halve that far.

    Cell fields are injected and node fields restricted (:mod:`grid`).
    """
    coarse = coarse_grid(problem.grid)
    if coarse is None or min(coarse.nx, coarse.ny) + 1 < COARSE_MIN_SQUARES:
        return None
    return dataclasses.replace(
        problem,
        grid=coarse,
        diffusivity_cell=inject_cell(problem.diffusivity_cell, coarse),
        direction=inject_cell(problem.direction, coarse),
        source_node=restrict_node(problem.source_node, coarse),
        grad_source_cell=inject_cell(problem.grad_source_cell, coarse),
    )


def gummel_solve(
    problem: NonlinearProblem,
    p0: NodeField,
    stop: StopRule | None = None,
    config: SolverConfig | None = None,
    exact: NodeField | None = None,
):
    """Iterate to the nonlinear solution from the initial guess ``p0``.

    Only the interior of ``p0`` reaches the result.  Linearizing around it
    also reads its ghost ring, through the reaction law, the checks of
    :class:`apcore.LinearProblem` and the slope clamp, so the ghosts must lie
    where the law is valid (a guess sampled on the full lattice does); their
    values change no iterate.

    When both sides of the grid have an even number of squares, at least
    ``2 * COARSE_MIN_SQUARES``, the loop first runs on the 2:1 coarse grid
    (:func:`grid.coarse_grid`) from ``p0`` restricted, with the same
    ``stop`` and ``config``, and the fine loop starts from the bilinear
    prolongation of the coarse result: mesh sequencing (Knoll & Keyes 2004,
    section 3).  The AP scheme is accurate uniformly in eps on every mesh, so
    that start lies within the coarse discretization error of the solution,
    whatever eps is.  At 200 squares per side the fine loop then factors once
    and iterates three times, where a run from ``p0`` factors twice and
    iterates five times.
    A coarse run that does not converge leaves the fine loop starting from
    ``p0``.  ``state.coarse`` is the coarse run's state, ``None`` without
    one; ``history``, and ``n_iterations``, its length, count fine
    iterations only.

    Returns ``(p, state)``; a diverging correction (growth above 10x over
    three iterations, or non-finite iterates) aborts with the history kept,
    and so does a linearization that fails validation or a stage that fails
    (:class:`apcore.DataError` or :class:`apcore.StageError`); other errors,
    a plain ``ValueError`` included, propagate.
    Iterations update interior nodes only; an iterate the loop updated gets
    its ghost ring filled once, on return.
    """
    stop = stop or StopRule()
    config = config or SolverConfig()
    coarse_state = None
    coarse = _coarse_problem(problem)
    if coarse is not None:
        p_coarse, coarse_state = _iterate(coarse, restrict_node(p0, coarse.grid), stop, config)
        if coarse_state.status == "converged":
            p0 = prolong_node(p_coarse, problem.grid)
    p, state = _iterate(problem, p0, stop, config, exact)
    state.coarse = coarse_state
    return p, state


def _iterate(problem: NonlinearProblem, p0: NodeField, stop: StopRule, config: SolverConfig,
             exact: NodeField | None = None):
    """The loop of :func:`gummel_solve` on ``problem``'s own grid, from ``p0``."""
    state = GummelState()
    p = p0  # each update replaces p and writes to no array: p is p0 until the first
    held = HeldFactor()
    exact_norm = 0.0 if exact is None else norm2(exact.values[INTERIOR])

    def finish(status: str, detail: str = ""):
        state.status = status
        state.detail = detail
        held.drop()
        if p is p0:
            return p0.copy(), state
        filled, _ = fill_ghost(p, problem.direction, problem.grad_source_cell)
        return filled, state

    for n in range(stop.n_max):
        start = time.perf_counter()
        try:
            lp = linearize(problem, p)
            correction, residual, steps, factored = solve_p(lp, held, config)
        except (StageError, DataError) as exc:
            # An iterate whose linearized system is no longer solvable has
            # left the workable basin; report it as divergence, not a crash.
            return finish("diverged", f"linearized solve broke down at iteration {n}: {exc}")

        delta = correction.values[INTERIOR]
        p_new = p.copy()
        p_new.values[INTERIOR] = p.values[INTERIOR] + delta
        norm_new = norm2(p_new.values[INTERIOR])
        corr = norm2(delta) / max(norm_new, 1e-300)

        finite = np.isfinite(corr) and np.all(np.isfinite(p_new.values[INTERIOR]))
        if finite:
            p = p_new
        err = np.nan
        if exact_norm:
            err = norm2(p.values[INTERIOR] - exact.values[INTERIOR]) / exact_norm
        state.history.append(
            IterationRecord(
                n=n,
                correction_rel=corr,
                error_rel_l2=err,
                residual=residual,
                slope_floored=getattr(lp, "_slope_floored", 0),
                cg_iterations=steps,
                factored=factored,
                seconds=time.perf_counter() - start,
            )
        )
        if not finite:
            return finish("diverged", f"non-finite iterate at iteration {n}")
        corrs = state.corrections
        if len(corrs) >= 4 and corrs[-1] > 10.0 * corrs[-4]:
            return finish("diverged", f"correction grew more than 10x over three iterations at {n}")
        if corr <= stop.tol_rel:
            return finish("converged")

    return finish("max_iterations")


@dataclass
class PlateauReport:
    max_rel_change: float  # largest relative error change once within change_tol of the final one
    ok: bool


def error_plateau_check(history: list, change_tol: float = 0.01) -> PlateauReport:
    """Verify the error stops improving once the correction bottoms out.

    The plateau value is the discretization error; iterating further must
    not change it by more than ``change_tol`` relative.
    """
    errs = [r.error_rel_l2 for r in history if np.isfinite(r.error_rel_l2)]
    if not errs:
        return PlateauReport(np.nan, False)
    final = errs[-1]
    start = len(errs) - 1
    for i, e in enumerate(errs):
        if abs(e - final) <= change_tol * final:
            start = i
            break
    tail = errs[start:]
    max_change = max(abs(e - final) / final for e in tail) if final > 0 else 0.0
    return PlateauReport(max_change, max_change <= change_tol)
