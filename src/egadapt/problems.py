"""Benchmark problem definitions.

Each problem is a manufactured solution p = T(t) u(x, y), built by
:func:`_manufactured` from a module-level ``terms(x, y) -> (u, ux, uy[,
lap_u])``, where a harmonic u carries no Laplacian: grad p = T grad u,
dp/dt = T' u, f = T' u - T Lap(u), g_D = p, g_N = 0 and p0 = 0, or p0 = u
when steady (T = 1; else T = sin(pi t / 2)).

``example1`` (u = s) and ``example2`` (u = w s, w = (x^2 - 1)(y^2 - 1))
sit on the L-shaped domain, around the corner-singular harmonic function

    s(x, y) = r^(2/3) * sin(2 phi / 3),

where phi is the angle measured clockwise from the positive x-axis, so
that s vanishes on both re-entrant boundary rays (phi = 0 and
phi = 3 pi / 2).  The clockwise convention flips the sign of the usual
d(phi)/dx: with theta = atan2(y, x) one has phi = -theta (mod 2 pi),
hence d(phi)/dx = +y/r^2 and d(phi)/dy = -x/r^2.  ``smoke_linear`` is
the steady u = x + y on the unit square, used by exactness tests.

At a space's cell and edge points (:func:`~egadapt.space.memo_points`),
where the data is evaluated again and again, the terms are computed once
and kept read-only in the points' memo, keyed by the terms function: they
live as long as the space and are shared by every instance of a problem.
Elsewhere each call computes them.
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


def _corner_terms(x, y):
    """s = r^(2/3) sin(2 phi / 3) and its Cartesian gradient; s is harmonic.

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


def _window_terms(x, y):
    """w s with the window w = (x^2 - 1)(y^2 - 1), by the product rule;
    s is harmonic, so Lap(w s) = 2 grad(w) . grad(s) + s Lap(w)."""
    s, sx, sy = _corner_terms(x, y)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = (x ** 2 - 1.0) * (y ** 2 - 1.0)
    wx = 2.0 * x * (y ** 2 - 1.0)
    wy = 2.0 * y * (x ** 2 - 1.0)
    lap_w = 2.0 * (y ** 2 - 1.0) + 2.0 * (x ** 2 - 1.0)
    return (w * s, wx * s + w * sx, wy * s + w * sy,
            2.0 * (wx * sx + wy * sy) + s * lap_w)


def _linear_terms(x, y):
    """u = x + y, harmonic."""
    u = np.asarray(x, dtype=float) + np.asarray(y, dtype=float)
    return u, np.ones_like(u), np.ones_like(u)


def _tfac(t):
    return np.sin(0.5 * math.pi * t)


def _tfac_dt(t):
    return 0.5 * math.pi * np.cos(0.5 * math.pi * t)


def _manufactured(name, shape, terms, T_final, steady=False):
    """The problem p = T(t) u on ``shape``, with u and its derivatives from
    ``terms``; T = sin(pi t / 2), or T = 1 if ``steady``."""
    T, T_dt = (_tfac, _tfac_dt) if not steady else \
        ((lambda t: 1.0), (lambda t: 0.0))

    def at(x, y):
        if isinstance(x, CellPoints):
            return x.cached(y, terms)
        return terms(x, y)

    def p(x, y, t):
        return T(t) * at(x, y)[0]

    def grad(x, y, t):
        _, ux, uy, *_ = at(x, y)
        return T(t) * ux, T(t) * uy

    def dp_dt(x, y, t):
        return T_dt(t) * at(x, y)[0]

    def f(x, y, t):
        u, _, _, *lap_u = at(x, y)
        return T_dt(t) * u - T(t) * lap_u[0] if lap_u else T_dt(t) * u

    def zero(x, y, t=None):
        return np.zeros_like(np.asarray(x, dtype=float))

    return ProblemSpec(
        name=name, shape=shape, f=f, g_D=p, g_N=zero,
        p0=(lambda x, y: at(x, y)[0]) if steady else zero,
        partition=all_dirichlet(shape), T_final=T_final,
        exact=ExactSolution(p, grad, dp_dt))


def example1():
    """Corner-singular harmonic solution p = sin(pi t / 2) s(x, y).

    The spatial part is harmonic, so the source reduces to the time
    derivative.  Dirichlet data is the exact trace on the whole boundary.
    """
    return _manufactured("example1", DomainShape.L_SHAPE, _corner_terms, 0.5)


def example2():
    """Singular solution with nonzero diffusion term, p = (x^2 - 1)(y^2 - 1)
    sin(pi t / 2) s(x, y); the window factor kills the trace on the outer
    boundary and s on the re-entrant rays, so g_D is identically zero."""
    return _manufactured("example2", DomainShape.L_SHAPE, _window_terms, 0.5)


def smoke_linear():
    """Steady p = x + y on the unit square, exactly representable by Q1."""
    return _manufactured("smoke_linear", DomainShape.UNIT_SQUARE,
                         _linear_terms, 0.1, steady=True)


_REGISTRY = {
    "example1": example1,
    "example2": example2,
    "smoke_linear": smoke_linear,
}


def by_name(name):
    if name not in _REGISTRY:
        raise KeyError(f"unknown problem '{name}'; choose from {sorted(_REGISTRY)}")
    return _REGISTRY[name]()
