"""Determinant sweeps and the closed-form fields the residuals are held to.

Every set of determinants (the points a residual's stencils read, the
CLI's r-sweeps) goes through ``sweep``, which keeps the quadrature fixed
across its points, so discretization errors vary smoothly with (t, x, r)
and pass through finite-difference stencils without noise amplification:

* kpz_narrow_wedge and kpz_spiked: the Fermi y-rule, and the spiked contour
  rules with every contour factor that does not depend on (t, x, r), are
  built once per sweep for its worst point; a spiked determinant adds only
  a diagonal on the contour nodes.
* the other families keep their node counts (Nystrom n, the spec's inner_n)
  fixed; the narrow-wedge cutoff map's scale ``kernels.INNER_SCALE *
  t^(1/3)`` moves smoothly with t, with no integer jumps.
"""

from __future__ import annotations

import numpy as np

from . import DomainError
from .fredholm import assemble, log_det_one_minus
from .kernels import BlockKernel, KernelSpec, SpikedRules, sweep_rules
from .painleve import HMSolution, log_f_gue

__all__ = [
    "sweep",
    "similarity_gue_log_f",
    "airy_two_point_spec",
    "phi_window_narrow_wedge",
]


def _logdet(disc) -> float:
    sign, logdet = log_det_one_minus(disc)
    if sign <= 0:
        s = disc.kernel.spec
        raise FloatingPointError(
            f"non-positive determinant in a field sweep: {s.family} at t = {s.t:.6g}, "
            f"x = {', '.join(f'{v:.6g}' for v in s.xs)}, "
            f"r = {', '.join(f'{v:.6g}' for v in s.rs)}, n = {disc.rule.n}")
    return logdet


def sweep(specs, n_quad: int = 64, value=_logdet, mapper=map) -> np.ndarray:
    """value(assemble(kernel, n_quad)) for each spec, in order, as an array.

    value defaults to log det(I - K) (raising FloatingPointError, which
    names the point and n_quad, unless the determinant is positive).  The
    specs of one family (and, for kpz_spiked, of one spikes and anchor)
    form a group with one set of rules (``kernels.sweep_rules``); the
    groups are evaluated one after another, so only one group's rules are
    held at a time.  mapper maps the per-point evaluation over a group's
    specs: the builtin map, or a thread pool's map (values do not change).
    """
    specs = list(specs)
    groups: dict = {}
    for i, s in enumerate(specs):
        groups.setdefault((s.family, SpikedRules.group_key(s)), []).append(i)
    out = [None] * len(specs)
    for idx in groups.values():
        group = [specs[i] for i in idx]
        rules = sweep_rules(group)
        vals = mapper(lambda spec: value(assemble(BlockKernel(spec, rules), n_quad)), group)
        for i, v in zip(idx, vals):
            out[i] = v
        # the next group's rules are built without this one's
        del rules
    return np.array(out)


def similarity_gue_log_f(hm: HMSolution, corner, steps, points) -> np.ndarray:
    """log F at the lattice point corner + step * index of each index triple
    in points, F(t,x,r) = F_GUE(t^(-1/3) r + t^(-4/3) x^2).

    Raises DomainError unless the corner's t > 0.
    """
    if not corner[0] > 0:
        raise DomainError(f"the similarity field needs t > 0, not t = {corner[0]}")
    index = np.asarray(points).T
    t, x, r = (c + h * np.ascontiguousarray(i) for c, h, i in zip(corner, steps, index))
    s = r / np.cbrt(t) + x * x / np.cbrt(t ** 4)
    return log_f_gue(s, hm)


def airy_two_point_spec(t, xs, rs, y, a) -> KernelSpec:
    """Spec of the two-point narrow-wedge determinant F(t, xs + y, rs + a)."""
    return KernelSpec("nw_fixed_point", float(t),
                      tuple(x + y for x in xs), tuple(r + a for r in rs),
                      ((0.0, 0.0),))


def phi_window_narrow_wedge(hm: HMSolution, t: float, x_grid, r_grid) -> np.ndarray:
    """phi = d_r^2 log F = -t^(-2/3) q(s)^2 at s = t^(-1/3) r + t^(-4/3) x^2,
    evaluated once per distinct x^2 and expanded to the rows of x_grid."""
    x2 = np.asarray(x_grid, dtype=float) ** 2
    rows = np.sort(x2)
    rows = rows[np.concatenate(([True], rows[1:] != rows[:-1]))]
    s = r_grid[None, :] / np.cbrt(t) + rows[:, None] / np.cbrt(t ** 4)
    q = hm.q_at(s.ravel()).reshape(s.shape)
    return (-q * q / np.cbrt(t * t))[np.searchsorted(rows, x2)]
