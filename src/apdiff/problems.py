"""Manufactured problems with exact solutions for verification runs.

Every case back-computes its data (scalar source and along-direction
gradient offset) from an analytically chosen exact solution, so errors can
be measured exactly.  All derivatives are closed-form; the tests validate
them against central finite differences at random points.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .apcore import LinearProblem
from .grid import Grid, NodeField, sample_cell, sample_cell_vec, sample_node
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
    """A problem with everything needed to measure exact errors."""

    name: str
    grid: Grid
    eps: float
    problem: object  # LinearProblem or NonlinearProblem
    p_exact: object  # callable (x, y) -> exact solution
    pi_exact: object = None
    q_exact: object = None
    limit_exact: object = None  # exact solution of the eps -> 0 limit
    initial_guess: object = None  # callable, for the nonlinear iteration
    params: dict = field(default_factory=dict)

    def exact_field(self) -> NodeField:
        return sample_node(self.p_exact, self.grid)


# Shared coefficient definitions ----------------------------------------------


def _swirl_direction(x, y):
    """Unit direction tangent to circles around the origin."""
    r = np.hypot(x, y)
    return y / r, -x / r


def _bumpy(x, y):
    return 1.0 + np.sin(x) ** 2 * np.sin(y) ** 2


def case_linear_variable(grid: Grid, eps: float) -> ManufacturedCase:
    """Variable-coefficient linear case with a rotation-symmetric solution.

    The solution is constant along the (circular) anisotropy direction, so
    its along-direction gradient source vanishes identically and the exact
    solution is independent of eps.
    """

    def p_exact(x, y):
        return 1.0 / (1.0 + x**2 + y**2)

    def grad_source(x, y):
        bx, by = _swirl_direction(x, y)
        w = (1.0 + x**2 + y**2) ** 2
        return bx * (-2.0 * x / w) + by * (-2.0 * y / w)

    problem = LinearProblem.from_functions(
        grid,
        eps,
        reaction=_bumpy,
        diffusivity=_bumpy,
        direction=_swirl_direction,
        source=lambda x, y: _bumpy(x, y) * p_exact(x, y),
        grad_source=grad_source,
    )
    return ManufacturedCase(
        name="linear-variable",
        grid=grid,
        eps=eps,
        problem=problem,
        p_exact=p_exact,
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

    # G and its directional derivatives along b = (s, -c)
    def _g_parts(x, y):
        g = _bumpy(x, y)
        gx = np.sin(2.0 * x) * np.sin(y) ** 2
        gy = np.sin(x) ** 2 * np.sin(2.0 * y)
        gxx = 2.0 * np.cos(2.0 * x) * np.sin(y) ** 2
        gyy = 2.0 * np.sin(x) ** 2 * np.cos(2.0 * y)
        gxy = np.sin(2.0 * x) * np.sin(2.0 * y)
        dg = s * gx - c * gy
        d2g = s * s * gxx - 2.0 * s * c * gxy + c * c * gyy
        return g, dg, d2g

    def _l_parts(x, y):
        u = ax * (x - x0)
        v = ay * (y - y0)
        l = np.sin(u) * np.sin(v)
        lx = ax * np.cos(u) * np.sin(v)
        ly = ay * np.sin(u) * np.cos(v)
        lxx = -ax * ax * l
        lyy = -ay * ay * l
        lxy = ax * ay * np.cos(u) * np.cos(v)
        dl = s * lx - c * ly
        d2l = s * s * lxx - 2.0 * s * c * lxy + c * c * lyy
        return l, dl, d2l

    def q_exact(x, y):
        g, dg, _ = _g_parts(x, y)
        l, dl, _ = _l_parts(x, y)
        return (dg / g) * l + dl

    def p_exact(x, y):
        return pi_exact(x, y) + q_exact(x, y)

    def grad_source(x, y):
        # b.grad p; the mean part drops out (constant along b)
        g, dg, d2g = _g_parts(x, y)
        l, dl, d2l = _l_parts(x, y)
        d_ratio = (d2g * g - dg * dg) / g**2
        return d_ratio * l + (dg / g) * dl + d2l

    problem = LinearProblem.from_functions(
        grid,
        eps,
        reaction=_bumpy,
        diffusivity=_bumpy,
        direction=direction,
        source=lambda x, y: _bumpy(x, y) * p_exact(x, y),
        grad_source=grad_source,
    )
    return ManufacturedCase(
        name="angle",
        grid=grid,
        eps=eps,
        problem=problem,
        p_exact=p_exact,
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


def case_nonlinear(grid: Grid, eps: float, eta: float = 0.1, mu: float = 60.0) -> ManufacturedCase:
    """Strongly nonlinear reaction law with a compact spline-bump solution.

    The iteration starts from the exact solution plus a paraboloid-cap
    perturbation of magnitude ``eta`` and support controlled by ``mu``.
    """
    p_exact, gradient, cap, _ = _spline_bump(grid, eta, mu)

    def grad_source(x, y):
        bx, by = _swirl_direction(x, y)
        px, py = gradient(x, y)
        return bx * px + by * py

    problem = _spline_family_problem(grid, eps, grad_source, p_exact)
    return ManufacturedCase(
        name="nonlinear-spline",
        grid=grid,
        eps=eps,
        problem=problem,
        p_exact=p_exact,
        initial_guess=lambda x, y: p_exact(x, y) + cap(x, y),
        params={"eta": eta, "mu": mu},
    )


def _spline_family_problem(grid: Grid, eps: float, grad_source, p_exact) -> NonlinearProblem:
    return NonlinearProblem(
        grid=grid,
        eps=float(eps),
        diffusivity_cell=sample_cell(_cosiny, grid),
        direction=sample_cell_vec(lambda x, y: _swirl_direction(x, y), grid),
        source_node=sample_node(lambda x, y: p_exact(x, y) ** 6, grid),
        grad_source_cell=sample_cell(grad_source, grid),
        reaction_law=lambda p: p**6,
        reaction_slope=lambda p: 6.0 * p**5,
    )


def case_ap_limit(grid: Grid, eps: float, eta: float = 0.1, mu: float = 60.0) -> ManufacturedCase:
    """Family whose exact solution converges linearly in eps to a smooth limit.

    The solution is the spline bump of the nonlinear case plus eps times a
    truncated cosine product; the exact limit is available separately so the
    vanishing-eps behavior of the scheme can be measured directly.
    """
    limit_exact, gradient, cap, (xm, ym, lx, ly) = _spline_bump(grid, eta, mu)
    ax = 2.0 * np.pi / lx
    ay = 2.0 * np.pi / ly

    def _ripple(x, y):
        return np.cos(ax * (x - xm)) * np.cos(ay * (y - ym))

    def ripple_pos(x, y):
        return np.maximum(0.0, _ripple(x, y))

    def p_exact(x, y):
        return limit_exact(x, y) + eps * ripple_pos(x, y)

    def grad_source(x, y):
        bx, by = _swirl_direction(x, y)
        px, py = gradient(x, y)
        active = _ripple(x, y) > 0.0
        rx = np.where(active, -ax * np.sin(ax * (x - xm)) * np.cos(ay * (y - ym)), 0.0)
        ry = np.where(active, -ay * np.cos(ax * (x - xm)) * np.sin(ay * (y - ym)), 0.0)
        return bx * (px + eps * rx) + by * (py + eps * ry)

    problem = _spline_family_problem(grid, eps, grad_source, p_exact)
    return ManufacturedCase(
        name="ap-limit",
        grid=grid,
        eps=eps,
        problem=problem,
        p_exact=p_exact,
        limit_exact=limit_exact,
        initial_guess=lambda x, y: p_exact(x, y) + cap(x, y),
        params={"eta": eta, "mu": mu},
    )
