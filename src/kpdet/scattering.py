"""Constrained bridge densities, small-time limits and the path-integral formula.

For a finite collection of narrow wedges the constrained transition density
is a chain of heat kernels through pointwise cutoffs, a finite-dimensional
Gaussian integral (the initial profile is -inf off the wedge points, so
staying above it is a pointwise constraint).  This module provides it
together with the checks that the finite-t scattering blocks converge as
t -> 0, and the whole-line path-integral form of the fixed point
determinant.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .fredholm import assemble, boundary_resolvent
from .kernels import KernelSpec, heat_kernel, scattering_part_logmat
from .quadrature import panel_rule

__all__ = [
    "OrderingError",
    "profile_at",
    "constrained_bridge_density",
    "rk_limit_check",
    "t0_kernel_decay_check",
    "path_integral_determinant",
]


class OrderingError(ValueError):
    """Raised when x_i >= x_j where a left-to-right transition is required."""


def profile_at(spec: KernelSpec, x: float) -> float:
    """Initial profile of spec's wedges: b_k at wedge points, -inf elsewhere."""
    for (a, b) in spec.wedges:
        if abs(x - a) < 1e-12:
            return float(b)
    return -np.inf


# ----------------------------------------------------------------------------
# constrained bridge density (matrix KP initial data)
# ----------------------------------------------------------------------------

def _interior_constraints(spec: KernelSpec, i: int, j: int):
    """Sorted interior points with their (lower, upper) constraints."""
    xi, xj = spec.xs[i], spec.xs[j]
    pts = {}
    for (a, b) in spec.wedges:
        if xi < a < xj:
            lo, hi = pts.get(a, (-np.inf, np.inf))
            pts[a] = (max(lo, b), hi)
    for k, xn in enumerate(spec.xs):
        if xi < xn < xj:
            lo, hi = pts.get(xn, (-np.inf, np.inf))
            pts[xn] = (lo, min(hi, spec.rs[k]))
    return sorted(pts.items())


def constrained_bridge_density(spec: KernelSpec, i: int, j: int):
    """Density of B(x_j) at r_j for B from (x_i, r_i), staying above every
    wedge level and below every intermediate observation level, for the
    wedges, xs and rs of spec (its t is not read).

    Exact finite-dimensional Gaussian integral: the profile is -inf off the
    wedge points, so the constraints are pointwise.
    """
    xi, xj = spec.xs[i], spec.xs[j]
    if xi >= xj:
        raise OrderingError("need x_i < x_j")
    ri, rj = spec.rs[i], spec.rs[j]
    if profile_at(spec, xi) > ri or profile_at(spec, xj) > rj:
        return 0.0
    pts = _interior_constraints(spec, i, j)
    if any(lo > hi for (_, (lo, hi)) in pts):
        return 0.0
    width = 3.0 * np.sqrt(2.0 * (xj - xi))
    vec, prev_nodes, prev_x = np.ones(1), np.array([ri]), xi
    for (x, (lo, hi)) in pts:
        rule = panel_rule((lo, hi), 64, width)
        hk = heat_kernel(x - prev_x, prev_nodes[:, None], rule.nodes[None, :])
        vec = vec @ (hk * rule.weights[None, :])
        prev_nodes, prev_x = rule.nodes, x
    return float(vec @ heat_kernel(xj - prev_x, prev_nodes, rj))


# ----------------------------------------------------------------------------
# t -> 0 checks
# ----------------------------------------------------------------------------

def rk_limit_check(spec: KernelSpec, t_seq, n_quad: int = 64):
    """Compare boundary resolvent entries of the nw_fixed_point spec, at
    each t of t_seq in place of its own, against the small-time limit.

    For each t: off-diagonal (i<j) entries of Q approach minus the
    constrained bridge density, all other entries approach 0.  Returns a
    list of dicts with per-entry errors.
    """
    n = len(spec.xs)
    target = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            target[i, j] = -constrained_bridge_density(spec, i, j)
    rows = []
    for t in t_seq:
        q = boundary_resolvent(assemble(replace(spec, t=float(t)), n_quad))
        err = np.abs(q - target)
        rows.append({
            "t": float(t),
            "q": q,
            "target": target.copy(),
            "max_err": float(np.max(err)),
            "max_lower_err": float(np.max(np.abs(np.tril(q, -1)))),
        })
    return rows


def t0_kernel_decay_check(a: float, b: float, x_i: float, x_j: float):
    """Fit log|K_t(0.5, 0.5)| against 1/t^2 at t = 0.2, 0.1, 0.05 for a
    wedge outside [x_i, x_j].

    Returns (c, r2): the fitted decay rate in exp(-c/t^2) and the fit
    quality.  Uses the log-space chain evaluator, since the values underflow
    ordinary doubles already at t ~ 0.1.
    """
    ts = (0.2, 0.1, 0.05)
    logs = []
    for t in ts:
        spec = KernelSpec("nw_fixed_point", t, (x_i, x_j), (0.0, 0.0), ((a, b),))
        lm = scattering_part_logmat(spec, 0, 1, np.array([0.5]), np.array([0.5]))
        logs.append(lm.logabs[0, 0])
    xs = 1.0 / np.asarray(ts, dtype=float) ** 2
    ys = np.asarray(logs)
    coef = np.polyfit(xs, ys, 1)
    fit = np.polyval(coef, xs)
    ss_res = np.sum((ys - fit) ** 2)
    ss_tot = np.sum((ys - np.mean(ys)) ** 2)
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(-coef[0]), float(r2)


# ----------------------------------------------------------------------------
# path-integral determinant (whole-line form)
# ----------------------------------------------------------------------------

def path_integral_determinant(t: float, xs, rs):
    """Fixed point distribution for a narrow wedge at the origin via the
    path-integral determinant on L^2(R):

        F = det(I - K_{t,x1} + Pbar_{r1} e^{(x2-x1)d^2} ... Pbar_{rm}
                e^{(x1-xm)d^2} K_{t,x1})

    The backward heat factor is absorbed into the Airy convolution kernel
    analytically; cutoff indicators are exact on the panel-split rule.  The
    kernels grow like exp(|u| max|x| / t) toward the left edge of the
    domain, so the panel resolution is kept high and the left edge no deeper
    than the constraint-cancellation tail requires.
    """
    xs = tuple(float(x) for x in xs)
    rs = tuple(float(r) for r in rs)
    m = len(xs)
    if m > 3:
        raise ValueError("at most 3 observation points")
    dxs = np.diff(xs)
    if m > 1 and np.any(dxs <= 0):
        raise OrderingError("xs must be strictly increasing")
    span = (xs[-1] - xs[0]) if m > 1 else 0.0
    left = min(min(rs), 0.0) - max(5.0, 8.0 * np.sqrt(2.0 * span) if m > 1 else 0.0)
    rule = panel_rule([left, *sorted(set(rs)), np.inf], 72, 4.0)
    nodes, weights = rule.nodes, rule.weights

    # Backward heat absorbed: C = S[-t,-x_m] Pbar_0 S[t,x_1] (for m = 1 the
    # one-point K_{t,x1}).  The free kernel K_{t,x1} is rebuilt from the
    # SAME discrete heat factors so that the two terms cancel exactly at
    # deep-left rows, where each is separately an unresolved oscillatory
    # integral; for m = 1 the chain is empty and free - chain = 1{u > r} K.
    ends = xs[:1] + xs[1:][-1:]
    spec_c = KernelSpec("nw_fixed_point", t, ends, (0.0,) * len(ends),
                        ((0.0, 0.0),), inner_n=64)
    # N x N results are updated in place where a new array would live
    # alongside the old: this function sets the peak memory of its runs
    free = scattering_part_logmat(spec_c, len(ends) - 1, 0, nodes, nodes).to_linear()
    chain = (nodes <= rs[-1]).astype(float)[:, None] * free
    for k in range(m - 2, -1, -1):
        a_k = heat_kernel(xs[k + 1] - xs[k], nodes[:, None], nodes[None, :])
        a_k *= weights[None, :]
        free = a_k @ free
        chain = a_k @ chain
        if k > 0:
            chain *= (nodes <= rs[k]).astype(float)[:, None]
    chain *= (nodes <= rs[0]).astype(float)[:, None]
    op = np.subtract(free, chain, out=free)
    sw = np.sqrt(weights)
    sign, logdet = np.linalg.slogdet(np.eye(nodes.size) - sw[:, None] * op * sw[None, :])
    return float(sign * np.exp(logdet))
