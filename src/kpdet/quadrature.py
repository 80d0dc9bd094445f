"""Gauss-Legendre rules and the composite (panelled) rules built from them.

``panel_rule`` is the one constructor of mapped rules: it lays a
Gauss-Legendre rule on each panel between given edges, affinely on a finite
panel and by the algebraic map u = a + s*(1+x)/(1-x) onto a half-line
[a, inf), mirrored onto (-inf, b].  ``gauss_legendre`` is the reference rule
on [-1, 1].  Callers that integrate along a complex contour map a real
parameter rule onto the contour themselves.  Rules are immutable and safe
to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "QuadRule",
    "QuadratureSizeError",
    "gauss_legendre",
    "panel_rule",
]


class QuadratureSizeError(ValueError):
    """Gauss-Legendre size outside the supported range [1, 512]."""


@dataclass(frozen=True)
class QuadRule:
    """Nodes and weights of a quadrature rule."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        if self.nodes.shape != self.weights.shape:
            raise ValueError("nodes and weights must have equal length")

    @property
    def n(self) -> int:
        return self.nodes.size

    def integrate(self, values: np.ndarray):
        return np.tensordot(np.asarray(values), self.weights, axes=([-1], [0]))


def _legendre(x, n: int):
    """(P_n(x), P_n'(x)) by the three-term recurrence."""
    p0 = np.ones_like(x)
    p1 = x.copy()
    for j in range(2, n + 1):
        p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
    return p1, n * (x * p1 - p0) / (x * x - 1.0)


@lru_cache(maxsize=None)
def _gl_nodes_weights(n: int):
    """Legendre nodes by Newton iteration on the three-term recurrence."""
    k = np.arange(n)
    x = np.cos(np.pi * (4 * k + 3) / (4 * n + 2))
    for _ in range(100):
        p, dp = _legendre(x, n)
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) < 1e-15:
            break
    _, dp = _legendre(x, n)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    return x[order], w[order]


def gauss_legendre(n: int) -> QuadRule:
    """Gauss-Legendre rule on [-1, 1]; 1 <= n <= 512."""
    if not (1 <= n <= 512):
        raise QuadratureSizeError(f"n={n} outside [1, 512]")
    x, w = _gl_nodes_weights(int(n))
    return QuadRule(x.copy(), w.copy())


def panel_rule(edges, n, tail_scale: float | None = None) -> QuadRule:
    """n-point Gauss-Legendre rule on each panel between increasing edges;
    n is one count for every panel or a sequence of one count per panel.

    Panels narrower than 1e-10 are dropped.  An infinite first or last edge
    maps its panel onto the half-line by the algebraic map with scale
    ``tail_scale`` > 0, which is needed only then; nodes stay increasing.
    No node straddles an edge, so indicators that jump at an edge are
    integrated exactly.
    """
    edges = [float(e) for e in edges]
    if len(edges) < 2 or any(b < a for a, b in zip(edges[:-1], edges[1:])):
        raise ValueError("need at least two increasing edges")
    if (np.isinf(edges[0]) or np.isinf(edges[-1])) and (tail_scale is None or not tail_scale > 0):
        raise ValueError("an infinite panel needs tail_scale > 0")
    # edges within 1e-10 of each other leave no panel and an empty rule
    nodes, weights = [np.zeros(0)], [np.zeros(0)]
    for a, b, k in zip(edges[:-1], edges[1:], np.broadcast_to(n, (len(edges) - 1,))):
        base = gauss_legendre(int(k))
        x, w = base.nodes, base.weights
        if np.isinf(a) and np.isinf(b):
            raise ValueError("a panel needs a finite edge")
        if np.isinf(a) or np.isinf(b):
            u = tail_scale * (1.0 + x) / (1.0 - x)
            v = w * 2.0 * tail_scale / (1.0 - x) ** 2
            u, v = (a + u, v) if np.isinf(b) else ((b - u)[::-1], v[::-1])
        elif b - a >= 1e-10:
            half = 0.5 * (b - a)
            u, v = a + half * (x + 1.0), w * half
        else:
            continue
        nodes.append(u)
        weights.append(v)
    return QuadRule(np.concatenate(nodes), np.concatenate(weights))
