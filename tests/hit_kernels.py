"""The Brownian hitting kernels of a wedge profile: the t -> 0 oracle of the
scattering blocks, shared by the kernel and scattering tests."""

import numpy as np

from kpdet.kernels import KernelSpec, heat_kernel
from kpdet.quadrature import QuadRule, panel_rule
from kpdet.scattering import OrderingError, profile_at


def no_hit_kernel(spec: KernelSpec, i: int, j: int, u, v):
    """P^{No hit}_{x_i, x_j}(u, v) for the wedge profile of spec (its t is not
    read), x_i < x_j: the heat kernel killed on going to or below b at a
    wedge (a, b) inside (x_i, x_j).

    One chain over the interior wedges, renewed at the first hit: the killed
    kernel from u to a level w <= b at a wedge, and at the end to v, is the
    heat kernel minus, for each earlier wedge, the killed kernel to its
    levels below b carried on by the heat kernel.  Every integral runs over
    (-inf, b], where the hit mass lies near b, so the result is accurate to
    rounding in absolute terms for any u and v.
    A wedge at x_i or x_j is the indicator 1{u > b} or 1{v > b}
    (``profile_at``); wedges outside [x_i, x_j] do not contribute.
    """
    xi, xj = spec.xs[i], spec.xs[j]
    if xi >= xj:
        raise OrderingError("no_hit_kernel requires x_i < x_j")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    width = max(1.0, 3.0 * np.sqrt(2.0 * (xj - xi)))
    stops = [(a, panel_rule((-np.inf, b), 64, width))
             for (a, b) in spec.wedges if xi < a < xj] + [(xj, QuadRule(v, np.ones(v.size)))]
    killed = []  # the killed kernel from u to each stop, times the stop's weights
    for (x, rule) in stops:
        k = heat_kernel(x - xi, u[:, None], rule.nodes[None, :])
        for (y, prev), kp in zip(stops, killed):
            k -= kp @ heat_kernel(x - y, prev.nodes[:, None], rule.nodes[None, :])
        killed.append(k * rule.weights)
    ends = (u > profile_at(spec, xi))[:, None] & (v > profile_at(spec, xj))[None, :]
    return ends * killed[-1]


def hit_kernel(spec: KernelSpec, i: int, j: int, u, v):
    """P^{Hit}_{x_i, x_j} = heat - P^{No hit}, x_i < x_j."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    no_hit = no_hit_kernel(spec, i, j, u, v)
    out = heat_kernel(spec.xs[j] - spec.xs[i], u[:, None], v[None, :]) - no_hit
    return out[0, 0] if (u.size == 1 and v.size == 1) else out
