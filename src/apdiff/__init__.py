"""Anisotropy-robust solver for singularly perturbed nonlinear diffusion."""

from .apcore import LinearProblem, SolutionDecomposition, fill_ghost, solve_linear_ap
from .grid import (
    CellField,
    CellVectorField,
    Grid,
    NodeField,
    make_grid,
    sample_cell,
    sample_cell_vec,
    sample_node,
)
from .gummel import NonlinearProblem, StopRule, gummel_solve, linearize
from .linsolve import SolverConfig
from .operators import apply_dh, apply_dh_star, compose_second_order
from .problems import case_angle, case_ap_limit, case_linear_variable, case_nonlinear, spline

__version__ = "0.1.0"
