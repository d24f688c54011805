"""Gauss-Legendre quadrature on the reference cell [0,1]^2 and edge [0,1]."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss


@dataclass(frozen=True)
class QuadratureRule:
    """Immutable point/weight set on a reference domain."""

    points: np.ndarray   # (n,) on [0,1] or (n,2) on [0,1]^2
    weights: np.ndarray  # (n,), summing to the reference measure 1
    exactness: int       # polynomial degree (per direction) integrated exactly

    def __post_init__(self):
        self.points.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def n(self):
        return len(self.weights)


@lru_cache(maxsize=10)
def gauss_1d(n):
    """n-point Gauss-Legendre rule on [0,1], exact for degree <= 2n-1.

    Cached: callers share one rule per n, which is safe because its arrays
    are read-only.
    """
    if not 1 <= n <= 10:
        raise ValueError(f"point count must be in [1, 10], got {n}")
    x, w = leggauss(n)
    return QuadratureRule((x + 1.0) / 2.0, w / 2.0, 2 * n - 1)


# 4 points per direction for both degrees, more than k + 2: the target
# solutions are not polynomial (r^(2/3) corner behavior), so extra points
# cut the consistency error at negligible cost
_POINTS = 4


@lru_cache(maxsize=2)
def cell_rule(k):
    """Tensor-product rule on [0,1]^2 for degree-k elements (k in {1,2})."""
    if k not in (1, 2):
        raise ValueError(f"polynomial degree must be 1 or 2, got {k}")
    g = gauss_1d(_POINTS)
    x, y = np.meshgrid(g.points, g.points, indexing="ij")
    pts = np.column_stack([x.ravel(), y.ravel()])
    w = np.outer(g.weights, g.weights).ravel()
    return QuadratureRule(pts, w, g.exactness)


def edge_rule(k):
    """Rule on the reference edge [0,1] for degree-k elements."""
    if k not in (1, 2):
        raise ValueError(f"polynomial degree must be 1 or 2, got {k}")
    return gauss_1d(_POINTS)

