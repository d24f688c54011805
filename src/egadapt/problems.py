"""Benchmark problem definitions.

``example1`` and ``example2`` are manufactured solutions on the L-shaped
domain built around the corner-singular harmonic function

    s(x, y) = r^(2/3) * sin(2 phi / 3),

where phi is the angle measured clockwise from the positive x-axis, so
that s vanishes on both re-entrant boundary rays (phi = 0 and
phi = 3 pi / 2).  The clockwise convention flips the sign of the usual
d(phi)/dx: with theta = atan2(y, x) one has phi = -theta (mod 2 pi),
hence d(phi)/dx = +y/r^2 and d(phi)/dy = -x/r^2.

``smoke_linear`` is the trivially representable steady solution x + y on
the unit square, used by exactness tests.

The examples multiply s by a time factor, and their data is evaluated
again and again at the same cell quadrature points.  At a space's cell
points (``EGSpace.tables.x``, ``.y``) s and its gradient are computed once
and kept in the points' memo, so they live as long as the space.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mesh import DomainShape, all_dirichlet
from .space import CellPoints

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ExactSolution:
    p: Callable      # p(x, y, t)
    grad: Callable   # grad(x, y, t) -> (px, py)
    dt: Callable     # time derivative


@dataclass(frozen=True)
class ProblemSpec:
    """Everything a run needs: domain, data functions, exact solution."""

    name: str
    shape: DomainShape
    f: Callable                       # source f(x, y, t)
    g_D: Callable                     # Dirichlet data
    g_N: Callable                     # Neumann data (outward co-normal flux)
    p0: Callable                      # initial condition p0(x, y)
    partition: dict
    T_final: float
    K: Callable | None = None         # diffusion tensor K(x, y); None = identity
    K_grad: Callable | None = None    # optional d_a K_ij (x, y)
    exact: ExactSolution | None = None


def at_points(fn, x, y, t):
    """``fn(x, y, t)`` as floats, broadcast to the shape of the points."""
    return np.broadcast_to(np.asarray(fn(x, y, t), float), np.shape(x))


def _angle(x, y):
    # angle in [0, 3 pi / 2] on the L-shape, clockwise from the positive
    # x-axis; 0 at the origin, where callers multiply by r^(2/3)
    return np.mod(-np.arctan2(y, x), TWO_PI)


def _singular(x, y):
    """(s, sx, sy) from :func:`_singular_values`; computed once per space
    at its cell points, where the arrays are read-only."""
    if isinstance(x, CellPoints):
        return x.cached(y, _singular_values)
    return _singular_values(x, y)


def _singular_values(x, y):
    """s = r^(2/3) sin(2 phi / 3) with its Cartesian gradient.

    The gradient entries blow up like r^(-1/3); callers never evaluate them
    at the corner (quadrature points are interior, checks stay at r > 0).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    r = np.hypot(x, y)
    phi = _angle(x, y)
    sin23 = np.sin(2.0 * phi / 3.0)
    cos23 = np.cos(2.0 * phi / 3.0)
    r23 = r ** (2.0 / 3.0)
    s = r23 * sin23
    with np.errstate(divide="ignore", invalid="ignore"):
        rm13 = np.where(r > 0.0, r ** (-1.0 / 3.0), 0.0)
        inv_r = np.where(r > 0.0, 1.0 / r, 0.0)
    cx, cy = x * inv_r, y * inv_r
    sx = (2.0 / 3.0) * rm13 * (sin23 * cx + cos23 * cy)
    sy = (2.0 / 3.0) * rm13 * (sin23 * cy - cos23 * cx)
    return s, sx, sy


def _tfac(t):
    return np.sin(0.5 * math.pi * t)


def _tfac_dt(t):
    return 0.5 * math.pi * np.cos(0.5 * math.pi * t)


def example1():
    """Corner-singular harmonic solution p = sin(pi t / 2) s(x, y).

    The spatial part is harmonic, so the source reduces to the time
    derivative.  Dirichlet data is the exact trace on the whole boundary.
    """
    def p(x, y, t):
        s, _, _ = _singular(x, y)
        return _tfac(t) * s

    def grad(x, y, t):
        _, sx, sy = _singular(x, y)
        return _tfac(t) * sx, _tfac(t) * sy

    def dp_dt(x, y, t):
        s, _, _ = _singular(x, y)
        return _tfac_dt(t) * s

    return ProblemSpec(
        name="example1",
        shape=DomainShape.L_SHAPE,
        f=dp_dt,
        g_D=p,
        g_N=lambda x, y, t: np.zeros_like(np.asarray(x, dtype=float)),
        p0=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
        partition=all_dirichlet(DomainShape.L_SHAPE),
        T_final=0.5,
        exact=ExactSolution(p, grad, dp_dt),
    )


def example2():
    """Singular solution with nonzero diffusion term.

    p = (x^2 - 1)(y^2 - 1) sin(pi t / 2) s(x, y); the window factor kills
    the trace on the outer boundary and s on the re-entrant rays, so the
    Dirichlet data is identically zero.  Since s is harmonic the Laplacian
    expands by the product rule as 2 grad(w) . grad(s) + s Lap(w) with
    w the window polynomial.
    """
    def parts(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        w = (x ** 2 - 1.0) * (y ** 2 - 1.0)
        wx = 2.0 * x * (y ** 2 - 1.0)
        wy = 2.0 * y * (x ** 2 - 1.0)
        lap_w = 2.0 * (y ** 2 - 1.0) + 2.0 * (x ** 2 - 1.0)
        return w, wx, wy, lap_w

    def p(x, y, t):
        s, _, _ = _singular(x, y)
        w, _, _, _ = parts(x, y)
        return _tfac(t) * w * s

    def grad(x, y, t):
        s, sx, sy = _singular(x, y)
        w, wx, wy, _ = parts(x, y)
        return _tfac(t) * (wx * s + w * sx), _tfac(t) * (wy * s + w * sy)

    def dp_dt(x, y, t):
        s, _, _ = _singular(x, y)
        w, _, _, _ = parts(x, y)
        return _tfac_dt(t) * w * s

    def f(x, y, t):
        s, sx, sy = _singular(x, y)
        w, wx, wy, lap_w = parts(x, y)
        lap_p = _tfac(t) * (2.0 * (wx * sx + wy * sy) + s * lap_w)
        return _tfac_dt(t) * w * s - lap_p

    return ProblemSpec(
        name="example2",
        shape=DomainShape.L_SHAPE,
        f=f,
        g_D=p,
        g_N=lambda x, y, t: np.zeros_like(np.asarray(x, dtype=float)),
        p0=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
        partition=all_dirichlet(DomainShape.L_SHAPE),
        T_final=0.5,
        exact=ExactSolution(p, grad, dp_dt),
    )


def smoke_linear():
    """Steady p = x + y on the unit square, exactly representable by Q1."""
    def p(x, y, t=0.0):
        return np.asarray(x, dtype=float) + np.asarray(y, dtype=float)

    def grad(x, y, t=0.0):
        shape = np.broadcast(np.asarray(x), np.asarray(y)).shape
        return np.ones(shape), np.ones(shape)

    zero = lambda x, y, t=0.0: np.zeros_like(np.asarray(x, dtype=float))
    return ProblemSpec(
        name="smoke_linear",
        shape=DomainShape.UNIT_SQUARE,
        f=lambda x, y, t: zero(x, y),
        g_D=lambda x, y, t: p(x, y),
        g_N=lambda x, y, t: zero(x, y),
        p0=p,
        partition=all_dirichlet(DomainShape.UNIT_SQUARE),
        T_final=0.1,
        exact=ExactSolution(lambda x, y, t: p(x, y), grad, zero),
    )


_REGISTRY = {
    "example1": example1,
    "example2": example2,
    "smoke_linear": smoke_linear,
}


def by_name(name):
    if name not in _REGISTRY:
        raise KeyError(f"unknown problem '{name}'; choose from {sorted(_REGISTRY)}")
    return _REGISTRY[name]()
