"""Determinant sweeps and the lattice fields built from them.

Every stencil of determinants (the fields below and the CLI's r-sweeps)
goes through ``sweep``, which keeps the quadrature fixed across its points,
so discretization errors vary smoothly with (t, x, r) and pass through
finite-difference stencils without noise amplification:

* kpz_spiked: all contour rules (eta contour and its anchor, xi rays, Fermi
  y-rule, log-Gamma offset) are built once per sweep, sized for its worst
  point, together with every contour factor that does not depend on
  (t, x, r); each determinant adds only a diagonal on the contour nodes.
* the other families keep their node counts (Nystrom n, the spec's
  inner_n, ``kernels.FERMI_N``) fixed; the multiwedge cutoff map's scale
  ``kernels.INNER_SCALE * t^(1/3)`` moves smoothly with t, with no integer
  jumps.
"""

from __future__ import annotations

import numpy as np

from . import DomainError
from .fredholm import assemble, boundary_resolvent, log_det_one_minus
from .kernels import KernelSpec, SpikedRules, build_block_kernel
from .painleve import HMSolution, log_f_gue
from .residuals import GridField

__all__ = [
    "sweep",
    "similarity_gue_field",
    "det_field",
    "airy_two_point_spec",
    "q_stencil",
    "phi_window_narrow_wedge",
]


def _lattice(start, step, n):
    return start + step * np.arange(n)


def _logdet(disc) -> float:
    sign, logdet = log_det_one_minus(disc)
    if sign <= 0:
        raise FloatingPointError("non-positive determinant in a field sweep")
    return logdet


def sweep(specs, n_quad: int = 64, value=_logdet, mapper=map) -> np.ndarray:
    """value(assemble(kernel, n_quad)) for each spec, in order, as an array.

    value defaults to log det(I - K) (raising FloatingPointError unless the
    determinant is positive).  The kpz_spiked specs that share spikes
    and anchor form one contour group with one set of rules
    (``kernels.SpikedRules``); the groups are evaluated one after another,
    so only one group's rules are held at a time.  Every other kernel is
    built per point.  mapper maps the per-point evaluation over a group's
    specs: the builtin map, or a thread pool's map (values do not change).
    """
    specs = list(specs)
    groups: dict = {}
    for i, s in enumerate(specs):
        key = SpikedRules.group_key(s) if s.family == "kpz_spiked" else None
        groups.setdefault(key, []).append(i)
    out = [None] * len(specs)
    for key, idx in groups.items():
        group = [specs[i] for i in idx]
        rules = SpikedRules(group) if key is not None else None
        vals = mapper(lambda spec: value(assemble(build_block_kernel(spec, rules),
                                                  n_quad)), group)
        for i, v in zip(idx, vals):
            out[i] = v
    return np.array(out)


def similarity_gue_field(hm: HMSolution, t0, x0, r0, ht, hx, hr, dims) -> GridField:
    """log F on the lattice, F(t,x,r) = F_GUE(t^(-1/3) r + t^(-4/3) x^2).

    Raises DomainError unless t0 > 0.
    """
    if not t0 > 0:
        raise DomainError(f"the similarity field needs t > 0, not t = {t0}")
    t = _lattice(t0, ht, dims[0])[:, None, None]
    x = _lattice(x0, hx, dims[1])[None, :, None]
    r = _lattice(r0, hr, dims[2])[None, None, :]
    s = r / np.cbrt(t) + x * x / np.cbrt(t ** 4)
    lf = log_f_gue(s.ravel(), hm).reshape(s.shape)
    return GridField(t0, x0, r0, ht, hx, hr, lf)


def det_field(family: str, t0, x0, r0, ht, hx, hr, dims, n_quad: int = 64,
              spec_kw: dict | None = None) -> GridField:
    """log F from one sweep of determinants of a one-point family."""
    spec_kw = dict(spec_kw or {})
    specs = [KernelSpec(family, float(t), (float(x),), (float(r),), **spec_kw)
             for t in _lattice(t0, ht, dims[0])
             for x in _lattice(x0, hx, dims[1])
             for r in _lattice(r0, hr, dims[2])]
    vals = sweep(specs, n_quad).reshape(dims)
    return GridField(t0, x0, r0, ht, hx, hr, vals)


def airy_two_point_spec(t, xs, rs, y, a) -> KernelSpec:
    """Spec of the two-point narrow-wedge determinant F(t, xs + y, rs + a)."""
    return KernelSpec("multiwedge_extended", float(t),
                      tuple(x + y for x in xs), tuple(r + a for r in rs),
                      ((0.0, 0.0),))


def q_stencil(t0, xs, rs, ht, hy, ha, dims, n_quad: int = 64):
    """Q-matrices on a (t, y, a) lattice for the matrix KP check.

    Returns an array of shape dims + (n, n).
    """
    n = len(xs)
    specs = [airy_two_point_spec(t, xs, rs, y, a)
             for t in _lattice(t0, ht, dims[0])
             for y in _lattice(0.0, hy, dims[1]) - hy * (dims[1] // 2)
             for a in _lattice(0.0, ha, dims[2]) - ha * (dims[2] // 2)]
    return sweep(specs, n_quad, boundary_resolvent).reshape(dims + (n, n))


def phi_window_narrow_wedge(hm: HMSolution, t: float, x_grid, r_grid) -> np.ndarray:
    """phi = d_r^2 log F = -t^(-2/3) q(s)^2 at s = t^(-1/3) r + t^(-4/3) x^2."""
    s = (r_grid[None, :] / np.cbrt(t)
         + (x_grid[:, None] ** 2) / np.cbrt(t ** 4))
    q = hm.q_at(s.ravel()).reshape(s.shape)
    return -q * q / np.cbrt(t * t)
