"""Closed-form kernel evaluators for the KPZ fixed point determinant families.

Families:

* ``nw_fixed_point``     narrow wedges, extended block kernel at any number
                         of observation points
* ``flat_fixed_point``   flat initial data (Hankel kernel, one point)
* ``kpz_narrow_wedge``   KPZ equation narrow-wedge generating function kernel
* ``kpz_spiked``         m-spiked KPZ kernel via decoupled contour integrals

All fixed-point kernels are built from the convolution kernel

    S[t, x](u) = t^(-1/3) exp(2x^3/(3t^2) - u*x/t) Ai(-t^(-1/3) u + t^(-4/3) x^2)

with S[-t, x](u) = S[t, x](-u), composed with heat kernels and level
cutoffs.  Compositions are evaluated in log space so that the huge opposing
exponentials appearing at small t cancel analytically before exponentiation.

The narrow-wedge blocks are factored kernels sum_p A_p R_p^T
over the wedges p, A_p = L_p - sum_{q<p} A_q H_qp the left S-factor renewed
by the weighted heat matrices H_qp; the factors are cached per kernel, and
the k(k+1)/2 products are BLAS products of scaled mantissas (``log_matmul``);
each A_p R_p^T is one product for all n^2 blocks, stacked over the levels.

Both KPZ equation families integrate a Fermi factor on a ``fermi_rule`` in
y; the points of a sweep share rules sized for its worst point (``sweep_rules``),
for kpz_spiked with every contour factor that does not depend on (t, x, r).

Blocks are shifted per observation point: entry (a, b) is evaluated at
(u + r_a, v + r_b) and lives on L^2[0, inf).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from . import DomainError
from .quadrature import panel_rule
from .specfun import airy_ai, airy_ai_log_abs, log_gamma

__all__ = [
    "KernelSpec",
    "KernelDomainError",
    "QuadratureFailure",
    "heat_kernel",
    "heat_kernel_log",
    "flat_kernel",
    "SpikedRules",
    "SpikedKernel",
    "BlockKernel",
    "sweep_rules",
]

class KernelDomainError(DomainError):
    """Parameter outside a kernel's domain (t <= 0, bad anchors, ...)."""


class QuadratureFailure(RuntimeError):
    """Internal quadrature tail estimate exceeded its tolerance."""


# ----------------------------------------------------------------------------
# scalar building blocks
# ----------------------------------------------------------------------------

def heat_kernel(l, u, v):
    """Heat kernel of e^{l d^2} (Brownian motion with diffusivity 2); l > 0,
    a scalar or an array broadcasting against u and v."""
    return np.exp(heat_kernel_log(l, u, v))


def heat_kernel_log(l, u, v):
    """log of ``heat_kernel``; raises KernelDomainError unless every l > 0."""
    if np.any(np.asarray(l) <= 0):
        raise KernelDomainError("heat_kernel needs l > 0")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return -((u - v) ** 2) / (4.0 * l) - 0.5 * np.log(4.0 * np.pi * l)


def _s_log_pm(t, x, u):
    """(log|S[t,x](u)|, log|S[t,-x](u)|, sign) for t > 0.

    The Airy argument depends on x only through x^2, so one Airy evaluation
    serves both and they share the sign.
    """
    arg = -u / np.cbrt(t) + x * x / np.cbrt(t ** 4)
    la, sg = airy_ai_log_abs(arg)
    lt = np.log(t) / 3.0
    plus = la + 2.0 * x ** 3 / (3.0 * t * t) - u * x / t - lt
    minus = la + 2.0 * (-x) ** 3 / (3.0 * t * t) - u * (-x) / t - lt
    return plus, minus, sg


# ----------------------------------------------------------------------------
# signed log-space matrices for S / heat / cutoff chains
# ----------------------------------------------------------------------------

class LogMat:
    """Matrix stored as (log|entries|, sign)."""

    def __init__(self, logabs: np.ndarray, sign: np.ndarray):
        self.logabs, self.sign = logabs, sign

    def to_linear(self) -> np.ndarray:
        with np.errstate(under="ignore"):
            return self.sign * np.exp(np.minimum(self.logabs, 700.0))


# a scaled product below this may have lost its largest terms to subnormal
# underflow, or its log (below -345) rounds by an ulp of that size, which
# the final log|a b| keeps; such entries are recomputed by the exact
# log-sum-exp
_SCALED_TINY = 1e-150


def _line_max(logabs, axis):
    """Largest log|entry| along axis; 0 for lines that are all zero."""
    m = np.max(logabs, axis=axis)
    return np.where(np.isfinite(m), m, 0.0)


def log_matmul(a: LogMat, b: LogMat) -> LogMat:
    """Signed log-space matrix product a @ b.

    Each row of a and column of b is scaled by its largest entry, so the
    product is one BLAS matmul of mantissas in [-1, 1]:
    log|a b| = m_a + m_b + log|A_s B_s|.  Entries whose scaled product falls
    below _SCALED_TINY are recomputed by an exact log-sum-exp over the inner
    index.
    """
    ma = _line_max(a.logabs, 1)
    mb = _line_max(b.logabs, 0)
    with np.errstate(under="ignore"):
        acc = ((a.sign * np.exp(a.logabs - ma[:, None]))
               @ (b.sign * np.exp(b.logabs - mb[None, :])))
    sign = np.sign(acc)
    mag = np.abs(acc, out=acc)
    i, j = np.nonzero(mag < _SCALED_TINY)
    logabs = ma[:, None] + mb[None, :]
    with np.errstate(divide="ignore"):
        logabs += np.log(mag, out=mag)
    if i.size:
        t = a.logabs[i] + b.logabs[:, j].T
        s = a.sign[i] * b.sign[:, j].T
        m = np.max(t, axis=1)
        live = np.isfinite(m)
        m_safe = np.where(live, m, 0.0)
        with np.errstate(under="ignore"):
            exact = np.sum(s * np.exp(t - m_safe[:, None]), axis=1)
        with np.errstate(divide="ignore"):
            logabs[i, j] = np.where(live, m_safe + np.log(np.abs(exact)), -np.inf)
        sign[i, j] = np.sign(exact)
    return LogMat(logabs, sign)


# ----------------------------------------------------------------------------
# kernel spec
# ----------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSpec:
    """Tagged description of a determinant kernel family and its parameters."""

    family: str
    t: float
    xs: tuple = (0.0,)
    rs: tuple = (0.0,)
    wedges: tuple = ((0.0, 0.0),)
    spikes: tuple = ()
    inner_n: int = 48
    contour_anchor: float = 0.25

    def __post_init__(self):
        if self.family not in ("nw_fixed_point", "flat_fixed_point",
                               "kpz_narrow_wedge", "kpz_spiked"):
            raise KernelDomainError(f"unknown family {self.family!r}")
        if self.t <= 0:
            raise KernelDomainError("t must be positive")
        if len(self.xs) > 1 and np.any(np.diff(np.asarray(self.xs, dtype=float)) <= 0):
            raise KernelDomainError("xs must be strictly increasing")
        if len(self.rs) != len(self.xs):
            raise KernelDomainError("rs must match xs")
        a = np.asarray([w[0] for w in self.wedges], dtype=float)
        if a.size > 1 and np.any(np.diff(a) <= 0):
            raise KernelDomainError("wedge positions must be strictly increasing")
        if self.family != "nw_fixed_point" and len(self.xs) != 1:
            raise KernelDomainError(f"{self.family} takes one point, not {len(self.xs)}")
        if self.family == "nw_fixed_point" and not self.wedges:
            raise KernelDomainError("nw_fixed_point needs at least one wedge")
        if self.family == "kpz_spiked":
            sp = np.asarray(self.spikes, dtype=float)
            if sp.size == 0:
                raise KernelDomainError("kpz_spiked needs at least one spike")
            if sp.size > 1 and np.min(np.diff(np.sort(sp))) < 1e-8:
                raise KernelDomainError("coincident spikes not supported")
            if self.contour_anchor <= np.max(sp):
                raise KernelDomainError("contour anchor must sit right of all spikes")
            if abs(self.xs[0]) > self.t:
                raise KernelDomainError("kpz_spiked requires |x| <= t")

    @property
    def domain_cut(self) -> float:
        """Right end of the finite domain [0, cut]; 0 means the half-line.

        The spiked xi-side factor tends to 1 far off-diagonal, so that
        determinant is taken on [0, cut]; the exponentially decaying column
        profile makes cut = 18 accurate to ~1e-8.
        """
        return 18.0 if self.family == "kpz_spiked" else 0.0


# ----------------------------------------------------------------------------
# narrow wedge blocks
# ----------------------------------------------------------------------------

def _memo(cache, key, make):
    """cache[key], computed by make() on first use."""
    if key not in cache:
        cache[key] = make()
    return cache[key]


# scale of the cutoff rules' half-line map, in units of t^(1/3)
INNER_SCALE = 4.0


def _wedge_rules(spec: KernelSpec, cache):
    """Cutoff rule on (-inf, b_p] of each wedge p, cached."""
    def make():
        scale = INNER_SCALE * np.cbrt(spec.t)
        rules = []
        for (a, b) in spec.wedges:
            r = panel_rule((-np.inf, b), spec.inner_n, scale)
            rules.append({"a": a, "nodes": r.nodes, "weights": r.weights})
        return rules
    return _memo(cache, "rules", make)


def _s_factors(spec, cache, p, i, pts):
    """(L, R^T) of point i and wedge p on the absolute points pts, cached.

    L[k, q] = S[t, a_p - x_i](lam_q - pts_k) w_q (the cutoff weights folded
    in) and R^T[q, k] = S[t, x_i - a_p](lam_q - pts_k), on the cutoff nodes
    lam of wedge p; both come from one Airy evaluation.
    """
    def make():
        rule = _wedge_rules(spec, cache)[p]
        plus, minus, sg = _s_log_pm(spec.t, rule["a"] - spec.xs[i],
                                    rule["nodes"][None, :] - pts[:, None])
        left = LogMat(plus + np.log(rule["weights"])[None, :], sg)
        return left, LogMat(minus.T, sg.T)
    return _memo(cache, ("S", p, i, pts.tobytes()), make)


def _log_add(a: LogMat, b: LogMat, sgn: float = 1.0) -> LogMat:
    """a + sgn b in signed log space."""
    m = np.maximum(a.logabs, b.logabs)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    val = (a.sign * np.exp(a.logabs - m_safe)
           + sgn * b.sign * np.exp(b.logabs - m_safe))
    with np.errstate(divide="ignore"):
        return LogMat(np.where(np.isfinite(m), m_safe + np.log(np.abs(val)), -np.inf),
                      np.sign(val))


def _renewed_left(spec, cache, p, i, pts):
    """A_p = L_p - sum_{q<p} A_q H_qp on (pts, cutoff nodes of wedge p), cached.

    H_qp, the heat kernel from wedge q's cutoff nodes to wedge p's with p's
    weights, is built once per kernel.  Expanded, A_p is the alternating sum
    of L H ... H over the wedge subsets that end at p.
    """
    def make():
        rules = _wedge_rules(spec, cache)
        rp = rules[p]
        out = _s_factors(spec, cache, p, i, pts)[0]
        for q, rq in enumerate(rules[:p]):
            hk = _memo(cache, ("H", q, p), lambda: heat_kernel_log(
                rp["a"] - rq["a"], rq["nodes"][:, None], rp["nodes"][None, :])
                + np.log(rp["weights"])[None, :])
            hit = log_matmul(_renewed_left(spec, cache, q, i, pts),
                             LogMat(hk, np.ones_like(hk)))
            out = _log_add(out, hit, -1.0)
        return out
    return _memo(cache, ("A", p, i, pts.tobytes()), make)


def _chain_logmat(left: LogMat, right_t: LogMat) -> LogMat:
    """The term A_p R_p^T of one wedge p of the scattering part.

    left is A_p over (U, cutoff nodes of wedge p), right_t is R_p^T over
    (those nodes, V).  Raises QuadratureFailure when the deepest cutoff node
    still carries weight relative to the result, i.e. the algebraic tail
    map has not resolved the integrand's decay.
    """
    out = log_matmul(left, right_t)
    # tail estimate: contribution of the deepest lambda node of the last
    # cutoff integral (node 0 of the half-line-down rule)
    tail = left.logabs[:, 0:1] + right_t.logabs[0:1, :]
    with np.errstate(invalid="ignore"):
        tail -= out.logabs
    if np.any((tail > np.log(1e-12)) & np.isfinite(out.logabs)):
        raise QuadratureFailure(
            "cutoff integral tail above 1e-12 of the value: the cutoff rule "
            "does not resolve the integrand's decay")
    return out


def _stacked_part(spec: KernelSpec, cache: dict, left, right) -> LogMat:
    """The scattering part of the levels and points (i, U) of left against
    those (j, V) of right: per wedge p, one chain of the A_p stacked over
    left and the R_p^T stacked over right.  log_matmul scales each row and
    column by its own maximum, so each entry is that of its block's own
    chain up to the BLAS summation order."""
    def stack(mats, axis):
        if len(mats) == 1:   # as it is: a copy would add to the peak memory
            return mats[0]
        return LogMat(np.concatenate([m.logabs for m in mats], axis),
                      np.concatenate([m.sign for m in mats], axis))

    return reduce(_log_add, (
        _chain_logmat(stack([_renewed_left(spec, cache, p, i, U) for i, U in left], 0),
                      stack([_s_factors(spec, cache, p, j, V)[1] for j, V in right], 1))
        for p in range(len(spec.wedges))))


def scattering_part_logmat(spec: KernelSpec, i: int, j: int, U, V) -> LogMat:
    """log-space value of block (i, j) of e^{-x_i d^2} K_t e^{x_j d^2}:
    the sum over the wedges p of A_p R_p^T (``_renewed_left``).

    U, V are absolute coordinates (the level shifts r_i, r_j must already be
    folded in by the caller); the factors are built afresh on each call.
    """
    U = np.atleast_1d(np.asarray(U, dtype=float))
    V = np.atleast_1d(np.asarray(V, dtype=float))
    return _stacked_part(spec, {}, [(i, U)], [(j, V)])


def flat_kernel(t, u, v):
    """Flat initial data kernel: Hankel in u+v.

    The sign and scaling constants are frozen by the GOE identity
    det(I - chi_r K chi_r) = F_GOE(4^(1/3) t^(-1/3) r).
    """
    if t <= 0:
        raise KernelDomainError("t must be positive")
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    c = 2.0 ** (-1.0 / 3.0) / np.cbrt(t)
    return c * airy_ai(c * (u + v))


# ----------------------------------------------------------------------------
# Fermi y-rule of the KPZ equation families
# ----------------------------------------------------------------------------

# Fermi cutoff of the y-rules: (1 + e^y)^(-1) < 2.4e-16 above it
Y_HI = 36.0
# the Fermi factor's own frequency: on a Gauss panel 8 wide its poles at
# y = +-i pi cost as many nodes as an oscillation this fast
FERMI_FREQ = 4.5


def fermi_rule(y_lo: float, freq: float, per_freq: float):
    """Rule (y0, loc, nodes, logw) for int dy (1+e^y)^(-1) f(y) on [y_lo, Y_HI],
    f of frequency up to freq: equal panels about 8 wide sharing one Gauss
    base of per_freq * max(freq, FERMI_FREQ) nodes per unit length, so node
    (p, k) is y0[p] + loc[k]; logw holds the Fermi factor.  Raises
    KernelDomainError when a panel would need more than 512 nodes."""
    span = Y_HI - y_lo
    n_panels = max(6, int(span / 8.0))
    per = int(per_freq * max(freq, FERMI_FREQ) * span / n_panels)
    if per > 512:
        raise KernelDomainError(f"Fermi y-rule of {per} > 512 nodes per panel: t too small or r too low")
    loc = panel_rule((0.0, span / n_panels), per)
    y0 = np.linspace(y_lo, Y_HI, n_panels + 1)[:-1]
    y = (y0[:, None] + loc.nodes[None, :]).ravel()
    return y0, loc.nodes, y, np.log(np.tile(loc.weights, n_panels)) - np.logaddexp(0.0, y)


def kpz_nw_half_factor(spec: KernelSpec, pts, rule):
    """Matrix A[q, i] with K = A^T A for the KPZ narrow wedge kernel on the
    ``fermi_rule`` of its sweep."""
    t, x, r = spec.t, spec.xs[0], spec.rs[0]
    _, _, y, logw = rule
    arg = (pts[None, :] + r - y[:, None]) / np.cbrt(t) + x * x / np.cbrt(t ** 4)
    return np.exp(0.5 * logw)[:, None] / np.cbrt(t) * airy_ai(arg)


# ----------------------------------------------------------------------------
# spiked KPZ kernel
# ----------------------------------------------------------------------------

ETA_PANELS = 14     # panels of the vertical eta contour's upper half


class SpikedRules:
    """Contour rules of a kpz_spiked sweep and its factors that do not move.

    One set of rules serves every point (t, x, r) of a sweep whose specs
    share the spikes and the contour anchor (``group_key``):

    * the vertical eta contour, anchored at the largest a_eta of the points,
    * the xi rays, anchored at a_xi = contour_anchor + 1/2,
    * the Fermi y-rule (``fermi_rule``) and the log-Gamma offset.

    Each size (eta half-height, ray length, y range, y-panel node count) is
    the largest any point asks for, and the rules do not jump between the
    points of a finite-difference stencil.  A point's own eta rule spends
    nodes at a rate proportional to its phase rate t s^2 + |w| up to its
    half-height; the shared eta panels follow the largest of these node
    rates at each height s (``eta_profiles``), so every point gets at least
    as many nodes on each stretch of the contour as from rules of its own
    (up to the 512-node panel cap).  With the rules and the Nystrom nodes
    fixed, (t, x, r) enter only as a diagonal on the contour nodes; the
    rest of each side's contour sum (Gamma factors times weights, the
    ``exp(-y loc zc)`` grid and the ``(pts, panel)`` rows) is computed here
    once.  A single spec is a one-point sweep.  Raises KernelDomainError
    when the eta or xi rule keeps no nodes.
    """

    def __init__(self, specs):
        specs = tuple(specs)
        if not specs:
            raise KernelDomainError("a spiked sweep needs at least one point")
        key = self.group_key(specs[0])
        if any(self.group_key(s) != key for s in specs):
            raise KernelDomainError("spiked sweep points differ in spikes or anchor")
        self.specs = specs
        spec = specs[0]
        self.b = np.asarray(key[0])
        self.m = self.b.size
        # the vertical eta contour needs t*anchor + x > 0 for Gaussian decay;
        # shift the anchor right for negative x (the eta side has no poles)
        self.a_eta = max(max(spec.contour_anchor, -s.xs[0] / s.t + 0.25) for s in specs)
        self.a_xi = spec.contour_anchor + 0.5
        if self.a_xi <= np.max(self.b):
            raise KernelDomainError("xi anchor not right of all spikes")
        if np.min(np.abs(self.a_eta - self.b)) < 1e-9 or np.min(np.abs(self.a_xi - self.b)) < 1e-9:
            raise KernelDomainError("contour anchor collides with a spike")
        # y range: Fermi weight kills y -> +inf, Airy decay of F kills y -> -inf
        self.y_lo = min(min(s.rs[0], 0.0) for s in specs) - 16.0
        sizes = [self._sizes(s) for s in specs]
        self.eta_profiles = [sz[:4] for sz in sizes]
        self.half_height, _, _, _, ray, freq = np.max(sizes, axis=0)
        self.eta_edges, count = self._eta_edges(self.eta_profiles)
        # the 1e-12 keeps a one-point sweep's count from rounding up
        per = int(np.ceil(count * (1.0 - 1e-12) / ETA_PANELS))
        # upper half of the vertical eta contour
        half = panel_rule(self.eta_edges, min(per, 512))
        self.eta_nodes, self.eta_w = self.a_eta + 1j * half.nodes, 1j * half.weights
        # xi rule: rays at 2pi/3 anchored right of the spikes, panelled
        # densely near the anchor because the nearest Gamma pole sits only
        # 0.87*(anchor - b_max) away from the contour
        self.xi_nodes, self.xi_w = self._panelled_ray(self.a_xi, 2.0 * np.pi / 3.0, ray)
        # panel_rule drops panels narrower than 1e-10: a contour that short
        # (t or the anchor so large that the eta half-height vanishes) has
        # no nodes left to resolve the kernel
        if not (self.eta_nodes.size and self.xi_nodes.size):
            raise KernelDomainError(
                f"a spiked contour rule has no nodes (eta half-height {self.half_height:.3g}); "
                "t or the contour anchor is too large")
        # balance Gamma(B)-scale factors between the two sides (K is invariant
        # under F -> cF, G -> G/c); keeps both integrands O(1) for far spikes
        self.lg_offset = float(sum(log_gamma(self.a_xi - bk).real for bk in self.b))
        # twice kpz_narrow_wedge's nodes per frequency: with 0.75, log det at
        # (t, x, r) = (1.5, -1.35, -3) is 1e-12 off a doubled rule; with 1.5, 2e-13
        self.y0, self.y_loc, self.fermi_nodes, self.fermi_logw = fermi_rule(self.y_lo, freq, 1.5)
        self.mid = np.exp(self.fermi_nodes * (self.a_eta - self.a_xi) + self.fermi_logw)
        self._sides = {"f": self._side(self.eta_nodes, self.eta_w, self.a_eta, -1.0),
                       "g": self._side(self.xi_nodes, self.xi_w, self.a_xi, 1.0)}
        self._rows: dict = {}

    @staticmethod
    def group_key(spec: KernelSpec):
        """The spec fields that fix the contours; equal keys can share rules."""
        return (tuple(np.sort(np.asarray(spec.spikes, dtype=float))),
                spec.contour_anchor)

    def _sizes(self, spec):
        """(eta half-height H, t, |w| bound, eta nodes per unit phase of its
        own rule, ray length, y-rule frequency) that the point spec asks for."""
        t, x, r = spec.t, spec.xs[0], spec.rs[0]
        w_min = min(r, 0.0) - Y_HI                # most negative argument
        w_max = spec.domain_cut + r - self.y_lo   # most positive
        w_bound = max(abs(w_min), abs(w_max))
        # vertical eta rule: half-height from the decay profile, node count
        # from the total phase (rate s^2 + |w|)
        c2 = t * self.a_eta + x
        m = self.m
        big_h = (m * np.pi / 4 + np.sqrt((m * np.pi / 4) ** 2 + 42.0 * c2)) / c2
        n_vert = max(256, 1.3 * (t * big_h ** 3 / 3 + w_bound * big_h) / np.pi)
        per = min(max(32, int(n_vert / ETA_PANELS) + 8), 512)
        phase = self._eta_edges([(big_h, t, w_bound, 1.0)])[1]
        ray = _ray_length(t, x, abs(w_min) + 2.0)
        freq = np.sqrt(w_bound / t)
        return big_h, t, w_bound, ETA_PANELS * per / phase, ray, freq

    @staticmethod
    def _panelled_ray(anchor, angle, length):
        """Upper ray of the bent-ray contour, GL panels refined toward the anchor."""
        edges = [e for e in (0.0, 0.15, 0.45, 1.2, 3.0) if e < length] + [length]
        ray = panel_rule(edges, 72)
        rot = np.exp(1j * angle)
        return anchor + ray.nodes * rot, ray.weights * rot

    @staticmethod
    def _eta_edges(profiles):
        """Edges of ETA_PANELS panels in s holding equal node counts, and
        the total count, for the profiles (H, t, w, density).

        The node rate at s is the largest density * (t s^2 + w) of the
        profiles with s <= H: the local phase rate of the vertical contour
        is ~ t s^2 + w, so panels shrink toward the top of the contour
        where the cubic phase spins fastest.  The trapezoid sum on a grid
        holding every H never undercounts that rate's integral.
        """
        heights = [h for h, _, _, _ in profiles]
        s = np.sort(np.concatenate((np.linspace(0.0, max(heights), 2048), heights)))
        s = s[np.concatenate(([True], s[1:] != s[:-1]))]
        rate = np.max([np.where(s <= h, d * (t * s * s + w), 0.0)
                       for h, t, w, d in profiles], axis=0)
        count = np.concatenate([[0.0], np.cumsum(0.5 * (rate[1:] + rate[:-1]) * np.diff(s))])
        edges = np.interp(np.linspace(0.0, count[-1], ETA_PANELS + 1), count, s)
        return edges, count[-1]

    def _side(self, z, w, anchor, sgn):
        """Point-independent factors of one contour: Gamma factors times
        weights, and e_loc = exp(-sgn loc zc) on (loc, contour node)."""
        lg = np.zeros_like(z)
        for bk in self.b:
            lg = lg + log_gamma(z - bk)
        gw = np.exp(sgn * (lg - self.lg_offset)) * w
        zc = z - anchor
        return {"z": z, "zc": zc, "sgn": sgn, "gw": gw,
                "e_loc": np.exp(-sgn * self.y_loc[:, None] * zc[None, :])}

    def side(self, pts, which):
        """Factors of side which ("f": eta, "g": xi) on the points pts.

        Returns (rows, factors): rows holds exp(sgn pts zc) exp(-sgn y0 zc)
        on (pts, panel) rows as interleaved (Im, Re) pairs per contour node,
        computed once per sweep for each pts.
        """
        side = self._sides[which]
        key = (which, pts.tobytes())
        rows = self._rows.get(key)
        if rows is None:
            # kernels on a thread pool may build the same rows twice; either
            # copy is the same array of values
            zc, sgn = side["zc"], side["sgn"]
            e_pts = np.exp(sgn * pts[:, None] * zc[None, :])
            rows = np.empty((pts.size, self.y0.size, zc.size, 2))
            for p, y0 in enumerate(self.y0):
                lhs = e_pts * np.exp(-sgn * y0 * zc)[None, :]
                rows[:, p, :, 0], rows[:, p, :, 1] = lhs.imag, lhs.real
            rows = self._rows[key] = rows.reshape(-1, 2 * zc.size)
        return rows, side


def _ray_length(t, x, w_neg):
    """Smallest ray length with t L^3/3 - |x| L^2 - w_neg L/2 >= 45."""
    for el in np.arange(4.0, 60.0, 0.25):
        if t * el ** 3 / 3.0 - abs(x) * el ** 2 - w_neg * el / 2.0 >= 45.0:
            return float(el)
    return 60.0


class SpikedKernel:
    """m-spiked KPZ kernel via the Fermi split of the sine coupling.

    The double contour kernel factorizes as

        K(u, v) = int dy (1+e^y)^(-1) F(u+r-y) G(v+r-y)

    with F the eta-side contour integral (entire, 1/Gamma factors, vertical
    contour) and G the xi-side one (Gamma factors, rays at +-2pi/3 anchored
    right of the spikes).  At m = 0 this reduces exactly to the narrow-wedge
    generating-function kernel (F = G = Airy convolution kernel).

    Reading the double-contour form with the xi contour half a unit to the
    right of the eta contour instead differs from this by an identity
    operator (the residue of the sine pole at eta = xi) and does not yield
    a distribution function; this split fixes the contour reading that does
    (determinant in (0, 1), increasing in r, m = 0 degeneration to the
    narrow-wedge kernel).

    Both F and G are real by conjugate symmetry, so the assembled kernel is
    real and the determinant's imaginary part is identically zero.

    rules are the SpikedRules of the sweep the spec belongs to; without
    them the spec is a one-point sweep.
    """

    def __init__(self, spec: KernelSpec, rules: SpikedRules | None = None):
        if spec.family != "kpz_spiked":
            raise KernelDomainError("expected a kpz_spiked spec")
        if rules is None:
            rules = SpikedRules((spec,))
        elif not any(spec is s for s in rules.specs):
            raise KernelDomainError("spec is not a point of the rules' sweep")
        self.spec = spec
        self.rules = rules
        self.t = spec.t
        self.x = spec.xs[0]
        self.r = spec.rs[0]
        self._grids = {}

    def _factor_grid(self, pts, which):
        """Mantissa M[i, q] of F or G at w = pts[i] + r - y[q].

        F(w) = M e^{-w a_eta} and G(w) = M e^{w a_xi}.  The contour's
        exponential separates over (pts, y), and over the panels of the
        y-rule, exp(c y) = exp(c y0_p) exp(c loc_k), so the contour sum is
        one matmul with (pts, panel) rows and loc columns.  Only the
        diagonal d = exp(sgn (r zc - t z^3/3 - x z^2)) on the contour nodes
        depends on the point; it scales the loc columns.  The integrands are
        real-analytic and the contours conjugate-symmetric, so the full
        contour sum over 2 pi i is Im(upper half sum) / pi, taken as one
        real product.
        """
        rows, side = self.rules.side(pts, which)
        z, zc, sgn = side["z"], side["zc"], side["sgn"]
        c = side["gw"] * np.exp(sgn * (self.r * zc - self.t * z ** 3 / 3.0 - self.x * z * z))
        # the complex columns viewed as interleaved (Re, Im) pairs meet the
        # rows' (Im, Re) pairs: one real product gives the imaginary part
        vals = rows @ (side["e_loc"] * c[None, :]).view(np.float64).T
        return vals.reshape(pts.size, -1) / np.pi

    def matrix(self, u, v):
        """Kernel matrix K(u_i, v_j) = int dy Fermi(y) F(u+r-y) G(v+r-y); real.

        The exponents of F and G separate over (u, y) and (v, y), so K is
        the contraction (L diag(mid)) R^T of the row-scaled mantissas.
        """
        u = np.atleast_1d(np.asarray(u, dtype=float))
        v = np.atleast_1d(np.asarray(v, dtype=float))
        rules = self.rules
        left = _memo(self._grids, ("f", u.tobytes()), lambda: self._factor_grid(u, "f")
                     * np.exp(-(u + self.r) * rules.a_eta)[:, None])
        right = _memo(self._grids, ("g", v.tobytes()), lambda: self._factor_grid(v, "g")
                      * np.exp((v + self.r) * rules.a_xi)[:, None])
        return (left * rules.mid[None, :]) @ right.T


# ----------------------------------------------------------------------------
# block kernel wrapper consumed by the Fredholm layer
# ----------------------------------------------------------------------------

class BlockKernel:
    """n x n operator-valued kernel of spec, n = len(spec.xs), with a uniform
    block evaluator.

    rules are the ``sweep_rules`` of the sweep spec belongs to; without them
    the spec is a one-point sweep.  Each factor is computed once per kernel
    and kept in _factors, keyed by its points: nw_fixed_point keeps its
    S-factors and, per (u, v), the scattering part of all n^2 blocks from
    one stacked chain per wedge (``_stacked_part``), which ``block`` slices;
    kpz_narrow_wedge its half factors; kpz_spiked the one SpikedKernel whose
    factor grids are keyed by side and points.
    """

    def __init__(self, spec: KernelSpec, rules=None):
        self.spec = spec
        self.n_blocks = len(spec.xs)
        self.rules = sweep_rules((spec,)) if rules is None else rules
        self._factors: dict = {}

    def block(self, a: int, b: int, u, v) -> np.ndarray:
        spec = self.spec
        fam = spec.family
        u = np.atleast_1d(np.asarray(u, dtype=float))
        v = np.atleast_1d(np.asarray(v, dtype=float))
        if fam == "nw_fixed_point":
            # the extended kernel: block (a, b) of the scattering part of all
            # levels on (u + r_a, v + r_b), kept read-only, minus the heat
            # kernel above the diagonal
            full = _memo(self._factors, ("K", u.tobytes(), v.tobytes()), lambda: _stacked_part(
                spec, self._factors, [(i, u + r) for i, r in enumerate(spec.rs)],
                [(j, v + r) for j, r in enumerate(spec.rs)]).to_linear())
            full.flags.writeable = False
            part = full[a * u.size:(a + 1) * u.size, b * v.size:(b + 1) * v.size]
            if a < b:
                U, V = u + spec.rs[a], v + spec.rs[b]
                part = part - heat_kernel(spec.xs[b] - spec.xs[a], U[:, None], V[None, :])
            return part
        if fam == "flat_fixed_point":
            return flat_kernel(spec.t, u[:, None] + spec.rs[0], v[None, :] + spec.rs[0])
        if fam == "kpz_narrow_wedge":
            au, av = (_memo(self._factors, ("kpz", p.tobytes()),
                            lambda p=p: kpz_nw_half_factor(spec, p, self.rules)) for p in (u, v))
            return au.T @ av
        if fam == "kpz_spiked":
            return _memo(self._factors, "spiked",
                         lambda: SpikedKernel(spec, self.rules)).matrix(u, v)
        raise KernelDomainError(fam)


def sweep_rules(specs):
    """The rules the points of one sweep share, sized for its worst point:
    ``SpikedRules`` for kpz_spiked points of one group_key, the y-rule for
    kpz_narrow_wedge points, None for the families whose rules do not
    depend on the point."""
    if specs[0].family != "kpz_narrow_wedge":
        return SpikedRules(specs) if specs[0].family == "kpz_spiked" else None
    # with w = min(r + x^2/t, 0), Ai((u + w - y)/t^(1/3)) < 1e-9 for y below
    # w - 10 t^(1/3) at every u >= 0, and its frequency in y is <= sqrt((Y_HI - w)/t)
    w = [min(s.rs[0] + s.xs[0] ** 2 / s.t, 0.0) for s in specs]
    return fermi_rule(min(wi - 10.0 * np.cbrt(s.t) for wi, s in zip(w, specs)),
                      max(np.sqrt((Y_HI - wi) / s.t) for wi, s in zip(w, specs)), 0.75)

