"""Manufactured problems with exact solutions for verification runs.

Every case back-computes its data (scalar source and along-direction
gradient offset) from an analytically chosen exact solution, so errors can
be measured exactly.  All derivatives are closed-form; the tests validate
them against central finite differences at random points.

A builder samples each closed form once per lattice, through
``grid.sample_node``, ``sample_cell`` and ``sample_cell_vec``, and builds
the problem's fields from those samples: the source from the exact solution
sampled on the node lattice (``G p`` or ``p^6``), and the gradient offset
``b.S`` from the direction field.  Two fields that read one closed form on
one lattice share its sample, the second as a copy.  The exact solution's
node sample stays on the case, read-only, as :meth:`ManufacturedCase.exact_field`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .apcore import LinearProblem
from .grid import (CellField, CellVectorField, Grid, NodeField, sample_cell, sample_cell_vec,
                   sample_node)
from .gummel import NonlinearProblem

__all__ = [
    "ManufacturedCase",
    "spline",
    "spline_deriv",
    "case_linear_variable",
    "case_angle",
    "case_nonlinear",
    "case_ap_limit",
]


def spline(z):
    """Centered cubic B-spline, supported on ``|z| <= 2``.

    Value 2/3 at 0, 1/6 at ``|z| = 1``, zero value and slope at ``|z| = 2``,
    twice continuously differentiable.
    """
    z = np.asarray(z, dtype=float)
    az = np.abs(z)
    outer = (2.0 - az) ** 3 / 6.0
    inner = 2.0 / 3.0 - az**2 + az**3 / 2.0
    return np.where(az < 1.0, inner, np.where(az <= 2.0, outer, 0.0))


def spline_deriv(z):
    """Derivative of :func:`spline`."""
    z = np.asarray(z, dtype=float)
    az = np.abs(z)
    sgn = np.sign(z)
    outer = -0.5 * sgn * (2.0 - az) ** 2
    inner = -2.0 * z + 1.5 * z * az
    return np.where(az < 1.0, inner, np.where(az <= 2.0, outer, 0.0))


@dataclass
class ManufacturedCase:
    """A problem with everything needed to measure exact errors.

    ``p_node`` is the exact solution sampled on the node lattice, ghosts
    included, when the case was built; its values are read-only.  The closed
    forms (``p_exact`` and the rest) sample the same functions anywhere else.
    """

    name: str
    grid: Grid
    eps: float
    problem: object  # LinearProblem or NonlinearProblem
    p_exact: object  # callable (x, y) -> exact solution
    p_node: NodeField  # p_exact on the node lattice, read-only
    pi_exact: object = None
    q_exact: object = None
    limit_exact: object = None  # exact solution of the eps -> 0 limit
    initial_guess: object = None  # callable, for the nonlinear iteration
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.p_node.values.flags.writeable = False

    def exact_field(self) -> NodeField:
        """The exact solution on the node lattice: the read-only sample taken at build time."""
        return self.p_node


# Shared coefficient definitions ----------------------------------------------


def _swirl_direction(x, y):
    """Unit direction tangent to circles around the origin."""
    r = np.hypot(x, y)
    return y / r, -x / r


def _bumpy(x, y):
    return 1.0 + np.sin(x) ** 2 * np.sin(y) ** 2


def _along(direction: CellVectorField, gradient: CellVectorField) -> CellField:
    """``b . gradient`` at every cell."""
    return CellField(direction.grid, direction.x * gradient.x + direction.y * gradient.y)


def _bumpy_problem(grid: Grid, eps, p_node: NodeField, g_node: NodeField, g_cell: CellField,
                   direction: CellVectorField, grad_source: CellField) -> LinearProblem:
    """The linear problem with reaction and diffusivity G = ``_bumpy`` and source ``G p``.

    ``g_node`` and ``g_cell`` are the samples of G; the diffusivity is a copy of ``g_cell``.
    """
    return LinearProblem(
        grid=grid,
        eps=float(eps),
        reaction_node=g_node,
        reaction_cell=g_cell,
        diffusivity_cell=g_cell.copy(),
        direction=direction,
        source_node=NodeField(grid, g_node.values * p_node.values),
        grad_source_cell=grad_source,
    )


def case_linear_variable(grid: Grid, eps: float) -> ManufacturedCase:
    """Variable-coefficient linear case with a rotation-symmetric solution.

    The solution is constant along the (circular) anisotropy direction, so
    its along-direction gradient source vanishes identically and the exact
    solution is independent of eps.
    """

    def p_exact(x, y):
        return 1.0 / (1.0 + x**2 + y**2)

    def gradient(x, y):
        w = (1.0 + x**2 + y**2) ** 2
        return -2.0 * x / w, -2.0 * y / w

    p_node = sample_node(p_exact, grid)
    direction = sample_cell_vec(_swirl_direction, grid)
    problem = _bumpy_problem(grid, eps, p_node, sample_node(_bumpy, grid),
                             sample_cell(_bumpy, grid), direction,
                             _along(direction, sample_cell_vec(gradient, grid)))
    return ManufacturedCase(
        name="linear-variable",
        grid=grid,
        eps=eps,
        problem=problem,
        p_exact=p_exact,
        p_node=p_node,
        params={},
    )


def case_angle(grid: Grid, eps: float, alpha: float) -> ManufacturedCase:
    """Uniform anisotropy direction at angle ``alpha`` to the x axis.

    The exact solution splits explicitly into a mean part (a sine of the
    along-edge rotated coordinate, constant along the direction) and a
    fluctuation generated by a sine product vanishing on the whole boundary
    cell ring.
    """
    s, c = np.sin(alpha), np.cos(alpha)
    ax = 2.0 * np.pi / (grid.x_max - grid.x_min)
    ay = 2.0 * np.pi / (grid.y_max - grid.y_min)
    x0, y0 = grid.x_min, grid.y_min

    def direction(x, y):
        return s * np.ones_like(x), -c * np.ones_like(x)

    def pi_exact(x, y):
        return np.sin(x * c + y * s)

    # G = _bumpy and the fluctuation generator l, and their first and second
    # derivatives along b = (s, -c)
    def g_along(x, y):
        gx = np.sin(2.0 * x) * np.sin(y) ** 2
        gy = np.sin(x) ** 2 * np.sin(2.0 * y)
        return s * gx - c * gy

    def g_along2(x, y):
        gxx = 2.0 * np.cos(2.0 * x) * np.sin(y) ** 2
        gyy = 2.0 * np.sin(x) ** 2 * np.cos(2.0 * y)
        gxy = np.sin(2.0 * x) * np.sin(2.0 * y)
        return s * s * gxx - 2.0 * s * c * gxy + c * c * gyy

    def generator(x, y):
        return np.sin(ax * (x - x0)) * np.sin(ay * (y - y0))

    def l_along(x, y):
        u = ax * (x - x0)
        v = ay * (y - y0)
        lx = ax * np.cos(u) * np.sin(v)
        ly = ay * np.sin(u) * np.cos(v)
        return s * lx - c * ly

    def l_along2(x, y):
        u = ax * (x - x0)
        v = ay * (y - y0)
        l = np.sin(u) * np.sin(v)
        lxx = -ax * ax * l
        lyy = -ay * ay * l
        lxy = ax * ay * np.cos(u) * np.cos(v)
        return s * s * lxx - 2.0 * s * c * lxy + c * c * lyy

    def fluctuation(g, dg, l, dl):
        """q = b.grad(G l) / G from the values of its parts."""
        return (dg / g) * l + dl

    def q_exact(x, y):
        return fluctuation(_bumpy(x, y), g_along(x, y), generator(x, y), l_along(x, y))

    def p_exact(x, y):
        return pi_exact(x, y) + q_exact(x, y)

    def node(fn):
        return sample_node(fn, grid).values

    def cell(fn):
        return sample_cell(fn, grid).values

    g_node, g_cell = sample_node(_bumpy, grid), sample_cell(_bumpy, grid)
    q = fluctuation(g_node.values, node(g_along), node(generator), node(l_along))
    p_node = NodeField(grid, node(pi_exact) + q)
    # b.grad p; the mean part drops out (constant along b)
    g, dg, d2g = g_cell.values, cell(g_along), cell(g_along2)
    d_ratio = (d2g * g - dg * dg) / g**2
    grad_source = d_ratio * cell(generator) + (dg / g) * cell(l_along) + cell(l_along2)

    problem = _bumpy_problem(grid, eps, p_node, g_node, g_cell, sample_cell_vec(direction, grid),
                             CellField(grid, grad_source))
    return ManufacturedCase(
        name="angle",
        grid=grid,
        eps=eps,
        problem=problem,
        p_exact=p_exact,
        p_node=p_node,
        pi_exact=pi_exact,
        q_exact=q_exact,
        params={"alpha": alpha},
    )


def _cosiny(x, y):
    return 1.0 + np.cos(x) ** 2 * np.cos(y) ** 2


def _spline_bump(grid: Grid, eta: float, mu: float):
    """Bump ``1 + B((x - xm) / lx) B((y - ym) / ly)`` around the center, a tenth of the domain wide.

    Returns ``(bump, gradient, cap, (xm, ym, lx, ly))``: ``gradient`` gives ``(px, py)``, and
    ``cap`` is the initial guess's offset ``eta max(0, 1 - mu |(x - xm, y - ym)|^2)``.
    """
    xm = 0.5 * (grid.x_min + grid.x_max)
    ym = 0.5 * (grid.y_min + grid.y_max)
    lx = (grid.x_max - grid.x_min) / 10.0
    ly = (grid.y_max - grid.y_min) / 10.0

    def bump(x, y):
        return 1.0 + spline((x - xm) / lx) * spline((y - ym) / ly)

    def gradient(x, y):
        px = spline_deriv((x - xm) / lx) * spline((y - ym) / ly) / lx
        py = spline((x - xm) / lx) * spline_deriv((y - ym) / ly) / ly
        return px, py

    def cap(x, y):
        return eta * np.maximum(0.0, 1.0 - mu * (x - xm) ** 2 - mu * (y - ym) ** 2)

    return bump, gradient, cap, (xm, ym, lx, ly)


def _spline_family_problem(grid: Grid, eps: float, p_node: NodeField, gradient) -> NonlinearProblem:
    """The problem of law ``p^6`` whose exact solution ``p_node`` has the closed-form ``gradient``."""
    direction = sample_cell_vec(_swirl_direction, grid)
    return NonlinearProblem(
        grid=grid,
        eps=float(eps),
        diffusivity_cell=sample_cell(_cosiny, grid),
        direction=direction,
        source_node=NodeField(grid, p_node.values ** 6),
        grad_source_cell=_along(direction, sample_cell_vec(gradient, grid)),
        reaction_law=lambda p: p**6,
        reaction_slope=lambda p: 6.0 * p**5,
    )


def case_nonlinear(grid: Grid, eps: float, eta: float = 0.1, mu: float = 60.0) -> ManufacturedCase:
    """Strongly nonlinear reaction law with a compact spline-bump solution.

    The iteration starts from the exact solution plus a paraboloid-cap
    perturbation of magnitude ``eta`` and support controlled by ``mu``.
    """
    p_exact, gradient, cap, _ = _spline_bump(grid, eta, mu)
    p_node = sample_node(p_exact, grid)
    return ManufacturedCase(
        name="nonlinear-spline",
        grid=grid,
        eps=eps,
        problem=_spline_family_problem(grid, eps, p_node, gradient),
        p_exact=p_exact,
        p_node=p_node,
        initial_guess=lambda x, y: p_exact(x, y) + cap(x, y),
        params={"eta": eta, "mu": mu},
    )


def case_ap_limit(grid: Grid, eps: float, eta: float = 0.1, mu: float = 60.0) -> ManufacturedCase:
    """Family whose exact solution converges linearly in eps to a smooth limit.

    The solution is the spline bump of the nonlinear case plus eps times a
    truncated cosine product; the exact limit is available separately so the
    vanishing-eps behavior of the scheme can be measured directly.
    """
    limit_exact, limit_gradient, cap, (xm, ym, lx, ly) = _spline_bump(grid, eta, mu)
    ax = 2.0 * np.pi / lx
    ay = 2.0 * np.pi / ly

    def _ripple(x, y):
        return np.cos(ax * (x - xm)) * np.cos(ay * (y - ym))

    def ripple_pos(x, y):
        return np.maximum(0.0, _ripple(x, y))

    def p_exact(x, y):
        return limit_exact(x, y) + eps * ripple_pos(x, y)

    def gradient(x, y):
        px, py = limit_gradient(x, y)
        active = _ripple(x, y) > 0.0
        rx = np.where(active, -ax * np.sin(ax * (x - xm)) * np.cos(ay * (y - ym)), 0.0)
        ry = np.where(active, -ay * np.cos(ax * (x - xm)) * np.sin(ay * (y - ym)), 0.0)
        return px + eps * rx, py + eps * ry

    p_node = sample_node(p_exact, grid)
    return ManufacturedCase(
        name="ap-limit",
        grid=grid,
        eps=eps,
        problem=_spline_family_problem(grid, eps, p_node, gradient),
        p_exact=p_exact,
        p_node=p_node,
        limit_exact=limit_exact,
        initial_guess=lambda x, y: p_exact(x, y) + cap(x, y),
        params={"eta": eta, "mu": mu},
    )
