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
by the weighted heat matrices H_qp, built in one pass over the wedges per
call; the k(k+1)/2 products are BLAS products of scaled mantissas
(``log_matmul``); each A_p R_p^T is one product for all n^2 blocks, stacked
over the levels.

Both KPZ equation families integrate a Fermi factor on a ``fermi_rule`` in
y; the points of a sweep share rules sized for its worst point (``sweep_rules``)
with the factors that do not depend on (x, r) for kpz_narrow_wedge, whose
rule lies in y - r - x^2/t, or on r for kpz_spiked, whose rule lies in y - r.

``BlockKernel.block`` returns the whole operator; its blocks are shifted
per observation point: block (a, b) is evaluated at (u + r_a, v + r_b) and
lives on L^2[0, inf).
"""

from __future__ import annotations

from dataclasses import dataclass

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
    "KPZRules",
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
        """The entries; one past double range is inf, which assemble refuses."""
        with np.errstate(under="ignore", over="ignore"):
            return self.sign * np.exp(self.logabs)


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
    tiny = mag < _SCALED_TINY
    logabs = ma[:, None] + mb[None, :]
    with np.errstate(divide="ignore"):
        logabs += np.log(mag, out=mag)
    # finding the entries costs ten times the test; few products have any
    if tiny.any():
        i, j = np.nonzero(tiny)
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


def _log_add(a: LogMat, b: LogMat, sgn: float = 1.0) -> LogMat:
    """a + sgn b in signed log space."""
    m = np.maximum(a.logabs, b.logabs)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    val = (a.sign * np.exp(a.logabs - m_safe)
           + sgn * b.sign * np.exp(b.logabs - m_safe))
    with np.errstate(divide="ignore"):
        return LogMat(np.where(np.isfinite(m), m_safe + np.log(np.abs(val)), -np.inf),
                      np.sign(val))


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


def _stacked_part(spec: KernelSpec, left, right) -> LogMat:
    """The scattering part of the levels and points (i, U) of left against
    those (j, V) of right, in one pass over the wedges p in order.

    Per wedge, on the cutoff rule on (-inf, b_p]: L[k, q] = S[t, a_p -
    x_i](lam_q - U_k) w_q (the cutoff weights folded in) and R^T[q, k] =
    S[t, x_j - a_p](lam_q - V_k) come from one Airy evaluation per distinct
    (i, U), so equal left and right points share it; each left point's
    A_p = L_p - sum_{q<p} A_q H_qp is renewed from its kept A_q by the heat
    matrices H_qp from wedge q's cutoff nodes to p's, with p's weights (the
    alternating sum of L H ... H over the wedge subsets that end at p); and
    the term A_p R_p^T is one chain of the A_p stacked over left and the
    R_p^T stacked over right.  log_matmul scales each row and column by its
    own maximum, so each entry is that of its block's own chain up to the
    BLAS summation order.  The terms are summed in wedge order.
    """
    def stack(mats, axis):
        if len(mats) == 1:   # as it is: a copy would add to the peak memory
            return mats[0]
        return LogMat(np.concatenate([m.logabs for m in mats], axis),
                      np.concatenate([m.sign for m in mats], axis))

    scale = INNER_SCALE * np.cbrt(spec.t)
    kept, total = [], None   # kept: (a_q, cutoff nodes, A_q of each left point)
    for a, b in spec.wedges:
        rule = panel_rule((-np.inf, b), spec.inner_n, scale)
        logw = np.log(rule.weights)
        factors = {}   # (i, points bytes) -> (L, R^T), one Airy evaluation each
        for i, pts in left + right:
            key = (i, pts.tobytes())
            if key not in factors:
                plus, minus, sg = _s_log_pm(spec.t, a - spec.xs[i],
                                            rule.nodes[None, :] - pts[:, None])
                factors[key] = LogMat(plus + logw[None, :], sg), LogMat(minus.T, sg.T)
        heat = []
        for aq, nodes_q, _ in kept:
            hk = heat_kernel_log(a - aq, nodes_q[:, None], rule.nodes[None, :]) + logw[None, :]
            heat.append(LogMat(hk, np.ones_like(hk)))
        renewed = []
        for k, (i, U) in enumerate(left):
            out = factors[i, U.tobytes()][0]
            for (_, _, prev), hk in zip(kept, heat):
                out = _log_add(out, log_matmul(prev[k], hk), -1.0)
            renewed.append(out)
        term = _chain_logmat(stack(renewed, 0),
                             stack([factors[j, V.tobytes()][1] for j, V in right], 1))
        total = term if total is None else _log_add(total, term)
        kept.append((a, rule.nodes, renewed))
    return total


def scattering_part_logmat(spec: KernelSpec, i: int, j: int, U, V) -> LogMat:
    """log-space value of block (i, j) of e^{-x_i d^2} K_t e^{x_j d^2}:
    the sum over the wedges p of A_p R_p^T (``_stacked_part``).

    U, V are absolute coordinates (the level shifts r_i, r_j must already be
    folded in by the caller).
    """
    U = np.atleast_1d(np.asarray(U, dtype=float))
    V = np.atleast_1d(np.asarray(V, dtype=float))
    return _stacked_part(spec, [(i, U)], [(j, V)])


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


def fermi_rule(y_lo: float, y_hi: float, freq: float, per_freq: float):
    """Rule (y0, loc, nodes, logw) for int dy Fermi(y) f(y) on [y_lo, y_hi],
    f of frequency up to freq: equal panels about 8 wide sharing one Gauss
    base of per_freq * max(freq, FERMI_FREQ) nodes per unit length, so node
    (p, k) is y0[p] + loc[k]; logw holds the log weights, to which the
    caller adds its Fermi factor.  Raises KernelDomainError, before any
    array is built, when the rule would hold fewer than 6 or more than 32768
    nodes, or a panel more than 512."""
    span = y_hi - y_lo
    count = per_freq * max(freq, FERMI_FREQ) * span
    if not 6 <= count <= 32768:
        raise KernelDomainError(
            f"Fermi y-rule of {count:.3g} nodes outside [6, 32768]: t or r out of range")
    n_panels = max(6, int(span / 8.0))
    per = int(count / n_panels)
    if per > 512:
        raise KernelDomainError(f"Fermi y-rule of {per} > 512 nodes per panel: t too small or r too low")
    loc = panel_rule((0.0, span / n_panels), per)
    y0 = np.linspace(y_lo, y_hi, n_panels + 1)[:-1]
    y = (y0[:, None] + loc.nodes[None, :]).ravel()
    return y0, loc.nodes, y, np.log(np.tile(loc.weights, n_panels))


class KPZRules:
    """The y-rule of a kpz_narrow_wedge sweep, in y' = y - w with w = r + x^2/t.

    The kernel is t^(-2/3) int dy' (1 + e^(y'+w))^(-1) Ai((u - y')/t^(1/3))
    Ai((v - y')/t^(1/3)): the rule covers the union of the points' ranges,
    and the points that share (t, pts) share one Airy grid, kept in ``airy``.
    """

    def __init__(self, specs):
        t = np.array([s.t for s in specs])
        w = np.array([s.rs[0] + s.xs[0] ** 2 / s.t for s in specs])
        # Ai((u - y')/t^(1/3)) < 1e-9 for y' below min(w, 0) - w - 10 t^(1/3) at
        # every u >= 0, and its frequency in y' is <= sqrt((Y_HI - min(w, 0))/t)
        w0 = np.minimum(w, 0.0)
        self.y0, self.loc, self.y, self.logw = fermi_rule(
            np.min(w0 - 10.0 * np.cbrt(t) - w), Y_HI - np.min(w),
            np.max(np.sqrt((Y_HI - w0) / t)), 0.75)
        self.airy: dict = {}


def kpz_nw_half_factor(spec: KernelSpec, pts, rules: KPZRules):
    """Matrix A[q, i] with K = A^T A for the KPZ narrow wedge kernel on the
    ``KPZRules`` of its sweep: the sweep's Airy grid of (t, pts), built once
    (on a thread pool at worst twice, with the same values), scaled by the
    point's Fermi weight."""
    ct = np.cbrt(spec.t)
    grid = _memo(rules.airy, (spec.t, pts.tobytes()),
                 lambda: airy_ai((pts[None, :] - rules.y[:, None]) / ct) / ct)
    w = spec.rs[0] + spec.xs[0] ** 2 / spec.t
    return np.exp(0.5 * (rules.logw - np.logaddexp(0.0, rules.y + w)))[:, None] * grid


# ----------------------------------------------------------------------------
# spiked KPZ kernel
# ----------------------------------------------------------------------------

# Gauss nodes of a contour panel about PANEL_WIDTH wide: NODES_PER_RATE per
# unit of the exponent's rate |t z^2 + 2 x z - w| times its width, plus NODES_BASE
NODES_PER_RATE, NODES_BASE, PANEL_WIDTH = 0.4, 8, 0.5
# (t, x) pairs whose factor grid columns one product takes at most
PAIR_GROUP = 8


class SpikedRules:
    """Contour rules of a kpz_spiked sweep and its factors that do not move.

    One set of rules serves every point (t, x, r) of a sweep whose specs
    share the spikes and the contour anchor (``group_key``):

    * the eta contour: vertical from the largest a_eta of the points up to
      the bend height s1, then the Airy ray a_eta + i s1 + rho e^{i pi/3},
    * the xi rays at 2pi/3, anchored at a_xi = contour_anchor + 1/2,
    * the Fermi y'-rule (``fermi_rule``) in y' = y - r, on the union of the
      points' ranges, and the log-Gamma offset.

    The arguments w = u - y' of F and G range over the union's ``w_range``.
    Above s1 the saddle points of e^{t z^3/3 + x z^2 - w z} lie below the
    eta contour for every point and every such w, so its integrand falls
    along the whole ray (``_lengths``).  Every panel of the eta contour and
    of the xi rays beyond 3 holds Gauss nodes sized from the exponent's rate
    over the points and the argument range (``_nodes``).  With the rules and
    the Nystrom nodes fixed, (t, x) enter the diagonal on the contour nodes,
    r only the Fermi weight (``mid``): ``grids`` keeps the F and G grids of
    each (pts, t, x), and the rest of each side's contour sum (Gamma
    factors times weights and the ``exp(-y' loc zc)`` grid, turned once
    into ``i conj(.)`` for the grids' real products) is computed here once.
    A single spec is a one-point sweep.
    Raises KernelDomainError, before any contour is built, when the bend
    height is not finite or a panel needs more than 512 nodes.
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
        # the eta contour needs t*anchor + x > 0 to fall along its vertical
        # part; shift the anchor right for negative x (the eta side has no poles)
        self.a_eta = max(max(spec.contour_anchor, -s.xs[0] / s.t + 0.25) for s in specs)
        # KernelSpec keeps the anchor right of every spike, so a_xi clears them
        self.a_xi = spec.contour_anchor + 0.5
        if np.min(np.abs(self.a_eta - self.b)) < 1e-9:
            raise KernelDomainError("contour anchor collides with a spike")
        # y'-rule on the union of the points' ranges [min(r, 0) - 16, Y_HI] - r:
        # the Fermi weight kills y -> +inf, and F's Airy decay y -> -inf
        self.y_lo = -16.0 - max(max(s.rs[0], 0.0) for s in specs)
        self.y_hi = Y_HI - min(s.rs[0] for s in specs)
        # the arguments w = u - y' of F and G on the union y'-rule; the
        # negative end stays at or below -Y_HI, as a point at r >= 0 asks
        self.w_range = np.array([min(-self.y_hi, -Y_HI), spec.domain_cut - self.y_lo])
        self.t, self.x = np.array(list(dict.fromkeys((s.t, s.xs[0]) for s in specs))).T[:, :, None]
        bend, eta_len, xi_len = self._lengths()
        # kpz_narrow_wedge's nodes per frequency, enough once the xi rays resolve G:
        # log det at (t, x, r) = (1.5, -1.35, -3) is 8.4e-13 off a doubled rule
        freq = np.sqrt(np.max(np.abs(self.w_range)) / np.min(self.t))
        self.y0, self.y_loc, self.fermi_nodes, self.logw = fermi_rule(self.y_lo, self.y_hi, freq, 0.75)
        # (start, direction, edges in rho, nodes per panel) of the eta contour's
        # vertical part and Airy ray, and of the xi rays beyond their inner panels
        self.pieces = [(start, rot, edges, self._nodes(start, rot, edges)) for start, rot, edges in (
            (self.a_eta, 1j, _edges(0.0, bend)),
            (self.a_eta + 1j * bend, np.exp(1j * np.pi / 3), _edges(0.0, eta_len)),
            (self.a_xi, np.exp(2j * np.pi / 3), _edges(3.0, xi_len)))]
        vert, ray, far = (self._panelled_ray(*p) for p in self.pieces)
        self.eta_nodes, self.eta_w = (np.concatenate(p) for p in zip(vert, ray))
        # xi rule: rays at 2pi/3 anchored right of the spikes, panelled
        # densely near the anchor because the nearest Gamma pole sits only
        # 0.87*(anchor - b_max) away from the contour
        near = self._panelled_ray(self.a_xi, np.exp(2j * np.pi / 3), (0.0, 0.15, 0.45, 1.2, 3.0), 72)
        self.xi_nodes, self.xi_w = (np.concatenate(p) for p in zip(near, far))
        # balance Gamma(B)-scale factors between the two sides (K is invariant
        # under F -> cF, G -> G/c); keeps both integrands O(1) for far spikes
        self.lg_offset = float(sum(log_gamma(self.a_xi - bk).real for bk in self.b))
        self.sides = {"f": self._side(self.eta_nodes, self.eta_w, self.a_eta, -1.0),
                      "g": self._side(self.xi_nodes, self.xi_w, self.a_xi, 1.0)}
        self.grids: dict = {}

    def mid(self, r):
        """Diagonal w'_q e^{y'_q (a_eta - a_xi)} / (1 + e^{y'_q + r}) of the point
        at r, zero above the top y' = Y_HI - r of its own range: beyond it the
        error of G on the xi rays grows faster than Fermi falls."""
        y = self.fermi_nodes
        logw = np.where(y + r <= Y_HI, self.logw, -np.inf)
        return np.exp(y * (self.a_eta - self.a_xi) + logw - np.logaddexp(0.0, y + r))

    @staticmethod
    def group_key(spec: KernelSpec):
        """The spec fields that fix the contours; equal keys can share rules."""
        return (tuple(np.sort(np.asarray(spec.spikes, dtype=float))),
                spec.contour_anchor)

    def _lengths(self):
        """(bend height s1, eta ray length, xi ray length) of the sweep.

        s1 is the height from which the eta ray at pi/3 falls for every
        point and every w >= w_min: Re(phi'(z) e^{i pi/3}) <= 0 at
        z = a_eta + i s1, phi = t z^3/3 + x z^2 - w z, a quadratic in s1.
        Each ray ends where its integrand is e^{-45} below its size on the
        real axis for every point and w, or at 60.
        """
        t, x, a = self.t, self.x, np.float64(self.a_eta)
        w_min = self.w_range[0]
        # c2 = t a + x >= t/4 > 0; s1 = q / (sqrt(3 c2^2 + t q) + sqrt(3) c2) in
        # a form that overflows only when q does (the anchor near 1e300)
        c2 = t * a + x
        with np.errstate(over="ignore", invalid="ignore"):
            q = np.maximum(t * a * a + 2.0 * x * a - w_min, 0.0) / c2
            bend = float(np.max(q / (np.sqrt(3.0 + q * t / c2) + np.sqrt(3.0))))
        if not np.isfinite(bend):
            raise KernelDomainError(
                f"spiked eta contour bend height {bend}: the contour anchor is too large")
        # the eta exponent falls by c2 s^2 up the vertical part and then along
        # the ray, while each spike's 1/Gamma grows as e^{pi Im z/2}; a bend too
        # high for double precision (t * t underflows) raises FloatingPointError
        rho = np.arange(0.25, 60.0, 0.25)
        z = a + 1j * bend + rho * np.exp(1j * np.pi / 3)
        with np.errstate(over="raise"):
            drop = [-(t * (z ** 3 - a ** 3) / 3 + x * (z * z - a * a) - w * (z - a)).real
                    - self.b.size * np.pi * z.imag / 2 for w in self.w_range]
        eta_len = _ray_length(rho, drop)
        rho = rho[rho >= 4.0]
        xi_len = _ray_length(rho, t * rho ** 3 / 3.0 - np.abs(x) * rho ** 2 - (2.0 - w_min) * rho / 2.0)
        return bend, eta_len, xi_len

    def _nodes(self, start, rot, edges):
        """Gauss nodes of each panel between edges in rho on the contour
        start + rho rot: NODES_PER_RATE per unit of the largest rate
        |t z^2 + 2 x z - w| of the exponent at the panel's ends over the
        sweep's points and argument range, times the panel width, plus
        NODES_BASE, rounded up to a multiple of 8 (few distinct Gauss rules).
        Raises KernelDomainError when a panel needs more than 512."""
        z = start + edges * rot
        lin = self.t * z * z + 2.0 * self.x * z
        rate = np.max([np.abs(lin - w) for w in self.w_range], axis=(0, 1))
        need = NODES_PER_RATE * np.maximum(rate[1:], rate[:-1]) * np.diff(edges) + NODES_BASE
        if not np.all(need <= 512):
            raise KernelDomainError(
                f"a spiked contour panel needs {np.max(need):.3g} > 512 nodes: "
                "t or the contour anchor is too large")
        return 8 * np.ceil(need / 8.0).astype(int)

    @staticmethod
    def _panelled_ray(start, rot, edges, per):
        """Upper contour start + rho rot, |rot| = 1: Gauss panels between the
        edges in rho holding per nodes each; (nodes, weights)."""
        rule = panel_rule(edges, per)
        return start + rule.nodes * rot, rule.weights * rot

    def _side(self, z, w, anchor, sgn):
        """Point-independent factors of one contour: (z, zc = z - anchor, sgn,
        anchor, Gamma factors times weights, e_loc = i conj(exp(-sgn loc zc))
        on (y' loc, contour node), turned for ``SpikedKernel._factor_grid``)."""
        lg = np.zeros_like(z)
        for bk in self.b:
            lg = lg + log_gamma(z - bk)
        zc = z - anchor
        return (z, zc, sgn, anchor, np.exp(sgn * (lg - self.lg_offset)) * w,
                1j * np.exp(-sgn * self.y_loc[:, None] * np.conj(zc)[None, :]))


def _edges(lo, hi):
    """Edges of equal panels about PANEL_WIDTH wide from lo to hi."""
    return np.linspace(lo, hi, max(1, int(np.ceil((hi - lo) / PANEL_WIDTH - 1e-9))) + 1)


def _ray_length(rho, drop):
    """Smallest rho at which the log-size drops (one row per case) reach 45
    in every case, or 60."""
    ok = np.all(np.reshape(drop, (-1, rho.size)) >= 45.0, axis=0)
    return float(rho[np.argmax(ok)]) if ok.any() else 60.0


class SpikedKernel:
    """m-spiked KPZ kernel via the Fermi split of the sine coupling.

    The double contour kernel factorizes as

        K(u, v) = int dy (1+e^y)^(-1) F(u+r-y) G(v+r-y)

    with F the eta-side contour integral (entire, 1/Gamma factors, vertical
    contour bent into the Airy rays) and G the xi-side one (Gamma factors, rays at +-2pi/3 anchored
    right of the spikes).  At m = 0 this reduces exactly to the narrow-wedge
    generating-function kernel (F = G = Airy convolution kernel).  In
    y' = y - r it reads int dy' (1+e^(y'+r))^(-1) F(u-y') G(v-y'): (t, x)
    enter the F and G grids, r only the Fermi weight, so the points of a
    sweep at one (t, x) share one grid pair.

    Reading the double-contour form with the xi contour half a unit to the
    right of the eta contour instead differs from this by an identity
    operator (the residue of the sine pole at eta = xi) and does not yield
    a distribution function; this split fixes the contour reading that does
    (determinant in (0, 1), increasing in r, m = 0 degeneration to the
    narrow-wedge kernel).

    Both F and G are real by conjugate symmetry, so the assembled kernel is
    real and the determinant's imaginary part is identically zero.

    rules are the SpikedRules of the sweep the spec belongs to
    (``SpikedRules((spec,))`` for a one-point sweep).
    """

    def __init__(self, spec: KernelSpec, rules: SpikedRules):
        if spec.family != "kpz_spiked":
            raise KernelDomainError("expected a kpz_spiked spec")
        if not any(spec is s for s in rules.specs):
            raise KernelDomainError("spec is not a point of the rules' sweep")
        self.spec = spec
        self.rules = rules

    def _factor_grid(self, pts, which):
        """Row-scaled mantissa M[i, q] e^{-pts[i] a_eta} of F, or
        M[i, q] e^{pts[i] a_xi} of G, at w = pts[i] - y'[q].

        F(w) = M e^{-w a_eta} and G(w) = M e^{w a_xi}.  The contour's
        exponential separates over (pts, y'), and over the panels of the
        y'-rule, exp(c y') = exp(c y0_p) exp(c loc_k), so on panel p the
        contour sum is one product of the rows exp(sgn pts zc) exp(-sgn y0_p
        zc) and the loc columns scaled by the diagonal c = exp(-sgn (t z^3/3
        + x z^2)) on the contour nodes.  F and G are real, so the sum over
        2 pi i is Im(upper half sum) / pi: the columns e_loc conj(c), with
        the rules' turned e_loc, viewed as interleaved (Re, Im) pairs meet
        the rows' pairs in one real product that gives the imaginary part.
        The first call on pts builds the grids of every (t, x) of the sweep,
        one product per y'-panel for each group of at most PAIR_GROUP (t, x)
        columns stacked, and keeps them on the rules (on a thread pool
        perhaps twice, with the same values).
        """
        rules = self.rules
        z, zc, sgn, anchor, gw, e_loc = rules.sides[which]

        def grids():
            # one row of conj(c) per (t, x) pair of the sweep, in the rules' order
            diag = np.conj(gw * np.exp(-sgn * (rules.t * z ** 3 / 3.0 + rules.x * z * z)))
            rows, n_loc = np.exp(sgn * pts[:, None] * zc), e_loc.shape[0]
            out = np.empty((len(diag), pts.size, rules.y0.size, n_loc))
            for g in range(0, len(diag), PAIR_GROUP):
                cols = (e_loc * diag[g:g + PAIR_GROUP, None]).reshape(-1, zc.size).view(np.float64)
                for p, y0 in enumerate(rules.y0):
                    vals = (rows * np.exp(-sgn * y0 * zc)).view(np.float64) @ cols.T
                    out[g:g + PAIR_GROUP, :, p] = vals.reshape(pts.size, -1, n_loc).swapaxes(0, 1)
            out *= np.exp(sgn * pts * anchor)[:, None, None] / np.pi
            return dict(zip(zip(rules.t.flat, rules.x.flat), out.reshape(len(diag), pts.size, -1)))

        return _memo(rules.grids, (which, pts.tobytes()), grids)[self.spec.t, self.spec.xs[0]]

    def matrix(self, u, v):
        """Kernel matrix K(u_i, v_j) = int dy' Fermi(y' + r) F(u-y') G(v-y'); real.

        The exponents of F and G separate over (u, y') and (v, y'), so K is
        the contraction (L diag(mid)) R^T of the row-scaled mantissas of the
        sweep's grids at (t, x); r enters only the middle diagonal
        ``rules.mid(r)``.
        """
        u = np.atleast_1d(np.asarray(u, dtype=float))
        v = np.atleast_1d(np.asarray(v, dtype=float))
        left = self._factor_grid(u, "f") * self.rules.mid(self.spec.rs[0])[None, :]
        return left @ self._factor_grid(v, "g").T


# ----------------------------------------------------------------------------
# block kernel wrapper consumed by the Fredholm layer
# ----------------------------------------------------------------------------

class BlockKernel:
    """n x n operator-valued kernel of spec, n = len(spec.xs), evaluated
    whole by ``block``.

    rules are the ``sweep_rules`` of the sweep spec belongs to; without them
    the spec is a one-point sweep.  Nothing is kept between calls:
    nw_fixed_point builds its S-factors and the scattering part of all n^2
    blocks in one pass over the wedges (``_stacked_part``); kpz_narrow_wedge
    its half factors on the Airy grids its ``KPZRules`` keep; kpz_spiked a
    SpikedKernel on the factor grids its ``SpikedRules`` keep for each (t, x).
    """

    def __init__(self, spec: KernelSpec, rules=None):
        self.spec = spec
        self.n_blocks = len(spec.xs)
        self.rules = sweep_rules((spec,)) if rules is None else rules

    def block(self, u, v) -> np.ndarray:
        """The whole operator on (u, v): the (n len(u)) x (n len(v)) matrix
        whose block (a, b) is K_ab(u + r_a, v + r_b)."""
        spec = self.spec
        fam = spec.family
        u = np.atleast_1d(np.asarray(u, dtype=float))
        v = np.atleast_1d(np.asarray(v, dtype=float))
        if fam == "nw_fixed_point":
            # the extended kernel: the scattering part of all levels minus
            # the heat kernel above the diagonal
            full = _stacked_part(spec, [(i, u + r) for i, r in enumerate(spec.rs)],
                                 [(j, v + r) for j, r in enumerate(spec.rs)]).to_linear()
            for a, b in zip(*np.triu_indices(self.n_blocks, 1)):
                U, V = u + spec.rs[a], v + spec.rs[b]
                full[a * u.size:(a + 1) * u.size, b * v.size:(b + 1) * v.size] -= heat_kernel(
                    spec.xs[b] - spec.xs[a], U[:, None], V[None, :])
            return full
        if fam == "flat_fixed_point":
            return flat_kernel(spec.t, u[:, None] + spec.rs[0], v[None, :] + spec.rs[0])
        if fam == "kpz_narrow_wedge":
            # the same array on both sides when v is u: numpy's symmetric product
            au = kpz_nw_half_factor(spec, u, self.rules)
            return au.T @ (au if v is u else kpz_nw_half_factor(spec, v, self.rules))
        if fam == "kpz_spiked":
            return SpikedKernel(spec, self.rules).matrix(u, v)
        raise KernelDomainError(fam)


def sweep_rules(specs):
    """The rules the points of one sweep share, sized for its worst point:
    ``SpikedRules`` for kpz_spiked points of one group_key, ``KPZRules`` for
    kpz_narrow_wedge points, None for the families whose rules do not
    depend on the point."""
    if specs[0].family == "kpz_narrow_wedge":
        return KPZRules(specs)
    return SpikedRules(specs) if specs[0].family == "kpz_spiked" else None
