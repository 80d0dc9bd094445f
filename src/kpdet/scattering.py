"""Brownian hitting kernels, small-time limits and the path-integral formula.

For a finite collection of narrow wedges the heat kernel killed on hitting
the hypograph (P^{No hit}) is one chain of heat kernels through the wedges,
renewed at the first hit, P^{Hit} is heat minus it, and the constrained
transition density is a chain of heat kernels through pointwise cutoffs, a
finite-dimensional Gaussian integral (the initial profile is -inf off the
wedge points, so staying above it is a pointwise constraint).  This module provides those objects together with the
checks that the finite-t scattering blocks converge to them as t -> 0, and
the whole-line path-integral form of the fixed point determinant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fredholm import assemble, boundary_resolvent
from .kernels import KernelSpec, _check_layout, heat_kernel, scattering_part_logmat
from .quadrature import QuadRule, panel_rule

__all__ = [
    "WedgeConfig",
    "OrderingError",
    "hit_kernel",
    "no_hit_kernel",
    "constrained_bridge_density",
    "rk_limit_check",
    "t0_kernel_decay_check",
    "initial_data_determinant",
    "path_integral_determinant",
]


class OrderingError(ValueError):
    """Raised when x_i >= x_j where a left-to-right transition is required."""


@dataclass(frozen=True)
class WedgeConfig:
    """Narrow wedge collection with observation positions and levels."""

    wedges: tuple
    xs: tuple
    rs: tuple

    def __post_init__(self):
        _check_layout(self.xs, self.rs, self.wedges)

    def profile_at(self, x: float) -> float:
        """Initial profile value: b_k at wedge points, -inf elsewhere."""
        for (a, b) in self.wedges:
            if abs(x - a) < 1e-12:
                return float(b)
        return -np.inf


def no_hit_kernel(cfg: WedgeConfig, i: int, j: int, u, v):
    """P^{No hit}_{x_i, x_j}(u, v) for the wedge profile, x_i < x_j: the heat
    kernel killed on going to or below b at a wedge (a, b) inside (x_i, x_j).

    One chain over the interior wedges, renewed at the first hit: the killed
    kernel from u to a level w <= b at a wedge, and at the end to v, is the
    heat kernel minus, for each earlier wedge, the killed kernel to its
    levels below b carried on by the heat kernel.  Every integral runs over
    (-inf, b], where the hit mass lies near b, so the result is accurate to
    rounding in absolute terms for any u and v.
    A wedge at x_i or x_j is the indicator 1{u > b} or 1{v > b}
    (``profile_at``); wedges outside [x_i, x_j] do not contribute.
    """
    xi, xj = cfg.xs[i], cfg.xs[j]
    if xi >= xj:
        raise OrderingError("no_hit_kernel requires x_i < x_j")
    u = np.atleast_1d(np.asarray(u, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    width = max(1.0, 3.0 * np.sqrt(2.0 * (xj - xi)))
    stops = [(a, panel_rule((-np.inf, b), 64, width))
             for (a, b) in cfg.wedges if xi < a < xj] + [(xj, QuadRule(v, np.ones(v.size)))]
    killed = []  # the killed kernel from u to each stop, times the stop's weights
    for (x, rule) in stops:
        k = heat_kernel(x - xi, u[:, None], rule.nodes[None, :])
        for (y, prev), kp in zip(stops, killed):
            k -= kp @ heat_kernel(x - y, prev.nodes[:, None], rule.nodes[None, :])
        killed.append(k * rule.weights)
    ends = (u > cfg.profile_at(xi))[:, None] & (v > cfg.profile_at(xj))[None, :]
    return ends * killed[-1]


def hit_kernel(cfg: WedgeConfig, i: int, j: int, u, v):
    """P^{Hit}_{x_i, x_j} = heat - P^{No hit}, x_i < x_j."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    v = np.atleast_1d(np.asarray(v, dtype=float))
    no_hit = no_hit_kernel(cfg, i, j, u, v)
    out = heat_kernel(cfg.xs[j] - cfg.xs[i], u[:, None], v[None, :]) - no_hit
    return out[0, 0] if (u.size == 1 and v.size == 1) else out


# ----------------------------------------------------------------------------
# constrained bridge density (matrix KP initial data)
# ----------------------------------------------------------------------------

def _interior_constraints(cfg: WedgeConfig, i: int, j: int):
    """Sorted interior points with their (lower, upper) constraints."""
    xi, xj = cfg.xs[i], cfg.xs[j]
    pts = {}
    for (a, b) in cfg.wedges:
        if xi < a < xj:
            lo, hi = pts.get(a, (-np.inf, np.inf))
            pts[a] = (max(lo, b), hi)
    for k, xn in enumerate(cfg.xs):
        if xi < xn < xj:
            lo, hi = pts.get(xn, (-np.inf, np.inf))
            pts[xn] = (lo, min(hi, cfg.rs[k]))
    return sorted(pts.items())


def constrained_bridge_density(cfg: WedgeConfig, i: int, j: int):
    """Density of B(x_j) at r_j for B from (x_i, r_i), staying above every
    wedge level and below every intermediate observation level.

    Exact finite-dimensional Gaussian integral: the profile is -inf off the
    wedge points, so the constraints are pointwise.
    """
    xi, xj = cfg.xs[i], cfg.xs[j]
    if xi >= xj:
        raise OrderingError("need x_i < x_j")
    ri, rj = cfg.rs[i], cfg.rs[j]
    if cfg.profile_at(xi) > ri or cfg.profile_at(xj) > rj:
        return 0.0
    pts = _interior_constraints(cfg, i, j)
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

def rk_limit_check(cfg: WedgeConfig, t_seq, n_quad: int = 64):
    """Compare boundary resolvent entries against the small-time limit.

    For each t: off-diagonal (i<j) entries of Q approach minus the
    constrained bridge density, all other entries approach 0.  Returns a
    list of dicts with per-entry errors.
    """
    n = len(cfg.xs)
    target = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            target[i, j] = -constrained_bridge_density(cfg, i, j)
    rows = []
    for t in t_seq:
        spec = KernelSpec("nw_fixed_point", float(t), cfg.xs, cfg.rs,
                          tuple(cfg.wedges))
        q = boundary_resolvent(assemble(spec, n_quad))
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


def initial_data_determinant(cfg: WedgeConfig, n_quad: int = 64):
    """det(I - P_r K0 P_r) for the t -> 0 block kernel.

    K0 has multiplication blocks 1{u <= profile(x_i)} on the diagonal,
    -P^{No hit} above it and 0 below; the determinant reproduces
    prod_i 1{r_i >= profile(x_i)}.  As K0 is block upper triangular, that is
    the product of its diagonal blocks; the no_hit_kernel blocks never enter.
    """
    n = len(cfg.xs)
    rule = panel_rule((0.0, np.inf), n_quad, 4.0)
    nq = rule.n
    sw = np.sqrt(rule.weights)
    m = np.zeros((n * nq, n * nq))
    for i in range(n):
        level = cfg.profile_at(cfg.xs[i])
        diag = (rule.nodes + cfg.rs[i] <= level).astype(float)
        m[i * nq:(i + 1) * nq, i * nq:(i + 1) * nq] = np.diag(diag)
        for j in range(i + 1, n):
            blk = -no_hit_kernel(cfg, i, j, rule.nodes + cfg.rs[i],
                                 rule.nodes + cfg.rs[j])
            m[i * nq:(i + 1) * nq, j * nq:(j + 1) * nq] = sw[:, None] * blk * sw[None, :]
    sign, logdet = np.linalg.slogdet(np.eye(n * nq) - m)
    return float(sign * np.exp(logdet))


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
    c_mat = scattering_part_logmat(spec_c, len(ends) - 1, 0, nodes, nodes).to_linear()
    free = c_mat
    chain = (nodes <= rs[-1]).astype(float)[:, None] * c_mat
    for k in range(m - 2, -1, -1):
        hk = heat_kernel(xs[k + 1] - xs[k], nodes[:, None], nodes[None, :])
        a_k = hk * weights[None, :]
        free = a_k @ free
        chain = a_k @ chain
        if k > 0:
            chain = (nodes <= rs[k]).astype(float)[:, None] * chain
    chain = (nodes <= rs[0]).astype(float)[:, None] * chain
    op = free - chain
    sw = np.sqrt(weights)
    sign, logdet = np.linalg.slogdet(np.eye(nodes.size) - sw[:, None] * op * sw[None, :])
    return float(sign * np.exp(logdet))
