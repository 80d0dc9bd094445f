import dataclasses
import functools
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad
from scipy.special import airy

from kpdet import fields, fredholm, kernels
from kpdet.kernels import (
    BlockKernel,
    KernelDomainError,
    KernelSpec,
    LogMat,
    SpikedKernel,
    SpikedRules,
    flat_kernel,
    heat_kernel,
    log_matmul,
    scattering_part_logmat,
)
from kpdet.quadrature import panel_rule
from kpdet.specfun import log_gamma


def det_of(spec, n=64):
    return fredholm.det_one_minus(fredholm.assemble(spec, n))


# the whole line as Gauss panels with algebraic tails
WHOLE_LINE = panel_rule([-np.inf, -8.0, -4.0, 0.0, 4.0, 8.0, np.inf], 48, 2.0)


def nw_block(t, x, a, b, u, v, **kw):
    """One-point narrow-wedge kernel at x, wedge (a, b), level 0, on (u, v):
    K(u, v) = int_{-inf}^{b} S[t, a - x](l - u) S[t, x - a](l - v) dl."""
    spec = KernelSpec("nw_fixed_point", t, (x,), (0.0,), ((a, b),), **kw)
    return BlockKernel(spec).block(u, v)


def block_of(kernel, a, b, u, v):
    """Block (a, b) of the kernel's whole operator on (u, v): K_ab on
    (u + r_a, v + r_b)."""
    return kernel.block(u, v)[a * u.size:(a + 1) * u.size, b * v.size:(b + 1) * v.size]


def kpz_block(t, x, r, u, v):
    """KPZ narrow-wedge generating-function kernel on (u, v)."""
    spec = KernelSpec("kpz_narrow_wedge", t, (x,), (r,))
    return BlockKernel(spec).block(u, v)


def airy_kernel(a, b):
    """Airy kernel (Ai(a) Ai'(b) - Ai'(a) Ai(b)) / (a - b) from scipy,
    Ai'(a)^2 - a Ai(a)^2 on the diagonal."""
    (ai_a, aip_a, _, _), (ai_b, aip_b, _, _) = airy(a), airy(b)
    with np.errstate(divide="ignore", invalid="ignore"):
        off = (ai_a * aip_b - aip_a * ai_b) / (a - b)
    return np.where(a == b, aip_a ** 2 - a * ai_a ** 2, off)


class TestHeatKernel:
    def test_peak_value(self):
        assert abs(heat_kernel(0.25, 1.0, 1.0) - np.pi ** -0.5) < 1e-14

    def test_symmetry(self):
        assert heat_kernel(0.7, 0.3, -1.1) == heat_kernel(0.7, -1.1, 0.3)

    def test_unit_mass(self):
        w = WHOLE_LINE
        assert abs(w.integrate(heat_kernel(0.8, 0.4, w.nodes)) - 1.0) < 1e-10

    def test_domain_error(self):
        with pytest.raises(KernelDomainError):
            heat_kernel(0.0, 0.0, 0.0)

    def test_array_of_times(self):
        l = np.array([0.5, 1.0, 2.0])
        assert np.allclose(heat_kernel(l, 0.3, -0.2),
                           [heat_kernel(x, 0.3, -0.2) for x in l], rtol=0, atol=0)
        with pytest.raises(KernelDomainError):
            heat_kernel(np.array([1.0, 0.0]), 0.0, 0.0)


class TestSKernel:
    """S[t, x] as the library evaluates it: through the narrow-wedge block."""

    def test_at_origin(self):
        # at t = 1, x = 0 the block is the Airy kernel: K(0, 0) = Ai'(0)^2
        k = nw_block(1.0, 0.0, 0.0, 0.0, 0.0, 0.0)[0, 0]
        assert abs(k - airy(0.0)[1] ** 2) < 1e-13

    @pytest.mark.parametrize("t, x", [(1.0, 0.0), (0.5, 0.3), (2.0, -0.4)])
    def test_airy_kernel_closed_form(self, t, x):
        # K(u, v) = e^{(v - u) x / t} t^(-1/3) K_Ai(t^(-1/3) u + c, t^(-1/3) v + c)
        # with c = t^(-4/3) x^2
        u = np.array([0.0, 0.3, 1.1])[:, None]
        v = np.array([0.0, 0.7, 2.0])[None, :]
        c = x * x / np.cbrt(t ** 4)
        ref = (np.exp((v - u) * x / t) / np.cbrt(t)
               * airy_kernel(u / np.cbrt(t) + c, v / np.cbrt(t) + c))
        assert np.max(np.abs(nw_block(t, x, 0.0, 0.0, u[:, 0], v[0]) - ref)) < 1e-13

    def test_negative_time_reflection(self):
        # S[-t, x](u) = S[t, x](-u) writes both factors of the block at
        # positive time; reflecting the point about the wedge, x -> 2a - x,
        # swaps them, which transposes the block
        u = np.array([0.1, 0.5, 1.7])
        v = np.array([0.0, 0.9, 1.3])
        k = nw_block(1.0, 0.5, 0.2, 0.1, u, v)
        k_reflected = nw_block(1.0, 2 * 0.2 - 0.5, 0.2, 0.1, v, u)
        assert np.max(np.abs(k - k_reflected.T)) < 1e-14

    def test_semigroup(self):
        # S[t, x] e^{y d^2} = S[t, x + y]: the one-point block at x composed
        # with the heat kernel of time y is the scattering part of block
        # (0, 1) of the two-point kernel at (x, x + y)
        t, x, y = 1.0, 0.3, 0.4
        u, v = np.array([0.5, 1.0]), np.array([-0.2, 0.6])
        w = WHOLE_LINE
        comp = ((nw_block(t, x, 0.0, 0.0, u, w.nodes) * w.weights[None, :])
                @ heat_kernel(y, w.nodes[:, None], v[None, :]))
        spec = KernelSpec("nw_fixed_point", t, (x, x + y), (0.0, 0.0))
        part = (block_of(BlockKernel(spec), 0, 1, u, v)
                + heat_kernel(y, u[:, None], v[None, :]))
        assert np.max(np.abs(comp - part)) < 1e-12

    def test_zero_time_error(self):
        with pytest.raises(KernelDomainError):
            KernelSpec("nw_fixed_point", 0.0)


class TestNarrowWedgeKernel:
    def test_level_shift_covariance(self):
        # wedge raised by 1 with levels raised by 1 is the same operator
        u = np.linspace(0.0, 3.0, 5)
        k1 = nw_block(1.0, 0.2, 0.0, 1.0, u + 1.0, u + 1.0)
        k0 = nw_block(1.0, 0.2, 0.0, 0.0, u, u)
        assert np.max(np.abs(k1 - k0)) < 1e-10

    def test_symmetry_at_wedge_position(self):
        u = np.array([0.1, 0.5, 1.0, 1.7, 2.4])
        k = nw_block(1.0, 0.3, 0.3, 0.2, u, u)
        assert np.max(np.abs(k - k.T)) < 1e-12

    def test_differential_relations(self):
        # d_t K = -(D1^3 + D2^3) K / 3 and d_x K = (D2^2 - D1^2) K
        rng = np.random.default_rng(3)
        u = rng.uniform(0.2, 2.0, 10)
        v = rng.uniform(0.2, 2.0, 10)
        h = 1e-3
        t0, x0 = 1.0, 0.3

        def kf(t, x, uu, vv):
            return np.diagonal(nw_block(t, x, 0.0, 0.0, uu, vv, inner_n=96))

        offs = np.array([-2, -1, 0, 1, 2]) * h
        ku = np.stack([kf(t0, x0, u + o, v) for o in offs])
        kv = np.stack([kf(t0, x0, u, v + o) for o in offs])
        c2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12 * h * h)
        c3 = np.array([-0.5, 1.0, 0.0, -1.0, 0.5]) / h ** 3
        d13, d23 = np.tensordot(c3, ku, 1), np.tensordot(c3, kv, 1)
        d12, d22 = np.tensordot(c2, ku, 1), np.tensordot(c2, kv, 1)
        dt = (kf(t0 + h, x0, u, v) - kf(t0 - h, x0, u, v)) / (2 * h)
        dx = (kf(t0, x0 + h, u, v) - kf(t0, x0 - h, u, v)) / (2 * h)
        scale = np.abs(kf(t0, x0, u, v)).max()
        assert np.max(np.abs(dt + (d13 + d23) / 3.0)) / scale < 1e-4
        assert np.max(np.abs(dx - (d22 - d12))) / scale < 1e-4


class TestFlatKernel:
    def test_hankel_property(self):
        u, v, d = 0.7, 1.3, 0.37
        assert abs(flat_kernel(1.0, u, v) - flat_kernel(1.0, u + d, v - d)) < 1e-15

    def test_time_scaling(self):
        rng = np.random.default_rng(0)
        for t, u, v in rng.uniform(0.5, 2.0, (5, 3)):
            lhs = flat_kernel(t, u, v)
            rhs = flat_kernel(1.0, u / np.cbrt(t), v / np.cbrt(t)) / np.cbrt(t)
            assert abs(lhs - rhs) < 1e-14

    def test_domain_error(self):
        with pytest.raises(KernelDomainError):
            flat_kernel(-1.0, 0.0, 0.0)


class TestMultiwedge:
    def test_single_wedge_reduces(self):
        spec = KernelSpec("nw_fixed_point", 1.0, (0.2,), (0.5,), ((0.0, 0.0),))
        u = np.linspace(0.0, 2.0, 5)
        blk = BlockKernel(spec).block(u, u)
        direct = nw_block(1.0, 0.2, 0.0, 0.0, u + 0.5, u + 0.5)
        assert np.max(np.abs(blk - direct)) < 1e-12

    def test_two_wedge_monotone_in_levels(self):
        base = KernelSpec("nw_fixed_point", 1.0, (0.0,), (0.0,),
                          ((-1.0, 0.0), (1.0, 0.0)))
        d0 = det_of(base)
        assert 0.0 < d0 < 1.0
        up1 = KernelSpec("nw_fixed_point", 1.0, (0.0,), (0.0,),
                         ((-1.0, 0.5), (1.0, 0.0)))
        up2 = KernelSpec("nw_fixed_point", 1.0, (0.0,), (0.0,),
                         ((-1.0, 0.0), (1.0, 0.5)))
        assert det_of(up1) < d0 and det_of(up2) < d0

    def test_small_time_hits_scattering_limit(self):
        from hit_kernels import hit_kernel
        spec = KernelSpec("nw_fixed_point", 1e-2, (-1.0, 1.0), (0.0, 0.0),
                          ((0.0, 0.0),), inner_n=96)
        u = np.array([0.6])
        v = np.array([0.9])
        blk = scattering_part_logmat(spec, 0, 1, u, v).to_linear()
        ref = hit_kernel(spec, 0, 1, u, v)
        assert abs(blk[0, 0] - float(ref)) < 1e-3

    def test_small_time_limit_through_two_wedges(self):
        # block (0, 1) renews its left factor at the first of two wedges
        # between the points; it tends to the hit kernel at rate t
        from hit_kernels import hit_kernel
        wedges = ((-0.4, 0.1), (0.3, -0.2))
        u, v = np.array([0.0, 0.6, 1.2]), np.array([0.3, 0.9])
        ref = hit_kernel(KernelSpec("nw_fixed_point", 1.0, (-1.0, 1.0), (0.0, 0.0), wedges),
                         0, 1, u, v)
        errs = []
        for t in (0.01, 0.005):
            spec = KernelSpec("nw_fixed_point", t, (-1.0, 1.0), (0.0, 0.0), wedges,
                              inner_n=96)
            blk = scattering_part_logmat(spec, 0, 1, u, v).to_linear()
            errs.append(np.max(np.abs(blk - ref)))
        assert max(errs) < 1e-3 and errs[0] / errs[1] >= 1.8

    def test_levels_to_minus_infinity_leave_heat(self):
        spec = KernelSpec("nw_fixed_point", 1.0, (-0.5, 0.5), (0.0, 0.0),
                          ((0.0, -8.0),))
        u = np.linspace(0.0, 2.0, 4)
        kernel = BlockKernel(spec)
        blk = block_of(kernel, 0, 1, u, u)
        ref = -heat_kernel(1.0, u[:, None], u[None, :])
        assert np.max(np.abs(blk - ref)) < 1e-6
        diag = block_of(kernel, 0, 0, u, u)
        assert np.max(np.abs(diag)) < 1e-6

    def test_no_wedges(self):
        with pytest.raises(KernelDomainError):
            KernelSpec("nw_fixed_point", 1.0, (0.0,), (0.0,), ())

    def test_removed_family_name_refused(self):
        # nw_fixed_point is the one narrow-wedge family, for any number of
        # points and wedges
        with pytest.raises(KernelDomainError, match="unknown family"):
            KernelSpec("multiwedge_extended", 1.0, (0.0,), (0.0,))

    def test_block_products_quadratic_in_wedges(self, monkeypatch):
        # one renewal product A_q H_qp per wedge pair q < p and one A_p R_p^T
        # per wedge: k(k+1)/2 products, not one per wedge subset
        from kpdet import kernels
        calls = []

        def counted(a, b):
            calls.append(1)
            return log_matmul(a, b)

        monkeypatch.setattr(kernels, "log_matmul", counted)
        k = 8
        spec = KernelSpec("nw_fixed_point", 1.0, (0.0,), (0.0,),
                          tuple((-2.0 + 0.5 * p, 0.1 * (-1) ** p) for p in range(k)))
        u = np.linspace(0.0, 2.0, 5)
        blk = BlockKernel(spec).block(u, u)
        assert np.all(np.isfinite(blk))
        assert len(calls) <= k * (k + 1) // 2

    def test_far_node_decay(self):
        spec = KernelSpec("nw_fixed_point", 1.0, (0.0,), (0.0,), ((0.0, 0.0),))
        disc = fredholm.assemble(spec, 64)
        cut = np.quantile(disc.rule.nodes, 0.95)
        far = disc.rule.nodes[disc.rule.nodes > cut][:3]
        k = BlockKernel(spec).block(far, far)
        assert np.max(np.abs(k)) < 1e-10


def s_airy_reference(t, x, w):
    """S[t, x](w) straight from scipy's Airy function."""
    return (np.exp(2 * x ** 3 / (3 * t * t) - w * x / t) / np.cbrt(t)
            * airy(-w / np.cbrt(t) + x * x / np.cbrt(t ** 4))[0])


def two_point_block_reference(t, xs, rs, i, j, u, v):
    """Block (i, j) of the one-wedge (0, 0) extended kernel by adaptive
    quadrature: int_{-inf}^0 S[t, -x_i](l - u - r_i) S[t, x_j](l - v - r_j) dl,
    minus the heat kernel above the diagonal.  Below -25 t^(1/3) the
    integrand is under 1e-30."""
    big_u, big_v = u + rs[i], v + rs[j]
    val = quad(lambda lam: (s_airy_reference(t, -xs[i], lam - big_u)
                            * s_airy_reference(t, xs[j], lam - big_v)),
               -25 * np.cbrt(t), 0.0, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
    if i < j:
        d = xs[j] - xs[i]
        val -= np.exp(-(big_u - big_v) ** 2 / (4 * d)) / np.sqrt(4 * np.pi * d)
    return val


@pytest.mark.parametrize("t", [1.0, 0.1])
def test_two_point_block_matches_scipy_quadrature(t):
    xs, rs = (-0.3, 0.4), (0.5, 0.8)
    spec = KernelSpec("nw_fixed_point", t, xs, rs, ((0.0, 0.0),))
    u, v = np.array([0.0, 0.4, 1.3]), np.array([0.0, 0.7, 2.0])
    for i in range(2):
        for j in range(2):
            ref = np.array([[two_point_block_reference(t, xs, rs, i, j, a, b)
                             for b in v] for a in u])
            err = np.max(np.abs(block_of(BlockKernel(spec), i, j, u, v) - ref))
            assert err <= 1e-9 * np.max(np.abs(ref)) + 1e-15


def log_matmul_reference(a, b):
    """(sum, scale, sum of moduli) of a @ b by the exact 3-D log-sum-exp:
    the product is scale * sum, and |error| of sum is judged against the
    sum of moduli of its terms."""
    t = a.logabs[:, :, None] + b.logabs[None, :, :]
    s = a.sign[:, :, None] * b.sign[None, :, :]
    m = np.max(t, axis=1)
    m = np.where(np.isfinite(m), m, 0.0)
    e = np.exp(t - m[:, None, :])
    return np.sum(s * e, axis=1), m, np.sum(e, axis=1)


@st.composite
def log_factor_pairs(draw):
    """Random signed log matrices with zeros, spreads of e^+-800, and rows
    forced onto the underflow fallback."""
    r, k, c = (draw(st.integers(1, 6)) for _ in range(3))
    logs = st.floats(-800.0, 800.0)
    signs = st.sampled_from([-1.0, 0.0, 1.0])
    la = draw(hnp.arrays(float, (r, k), elements=logs))
    lb = draw(hnp.arrays(float, (k, c), elements=logs))
    sa = draw(hnp.arrays(float, (r, k), elements=signs))
    sb = draw(hnp.arrays(float, (k, c), elements=signs))
    forced = draw(hnp.arrays(bool, r)) if k > 1 else np.zeros(r, bool)
    if forced.any():
        # a forced row peaks at inner index 0 by e^800 and b's row 0 sits
        # e^800 below its other entries, so every scaled term is < e^-800
        sa[forced] = np.where(sa[forced] == 0.0, 1.0, sa[forced])
        sb[sb == 0.0] = 1.0
        la[forced, 0] = la[forced].max(axis=1) + 800.0
        lb[0] = lb.min() - 800.0
    a = LogMat(np.where(sa == 0.0, -np.inf, la), sa)
    b = LogMat(np.where(sb == 0.0, -np.inf, lb), sb)
    return a, b


@pytest.mark.parametrize("family", ["flat_fixed_point", "kpz_narrow_wedge", "kpz_spiked"])
def test_one_point_families_refuse_a_second_point(family):
    # a second point was dropped: the one-point determinant at the first
    # came back for any level at the second
    with pytest.raises(KernelDomainError, match="takes one point, not 2"):
        KernelSpec(family, 1.0, (0.0, 0.5), (0.0, 3.0), spikes=(0.0,))


class TestLogMatmul:
    @settings(max_examples=300, deadline=None)
    @given(log_factor_pairs())
    # log|scaled product| near -514.6 rounds by an ulp of 514, 1.1e-13
    @example((LogMat(np.array([[515.0, 0.44]]), -np.ones((1, 2))),
              LogMat(np.array([[-545.0], [0.0]]), -np.ones((2, 1)))))
    def test_matches_exact_log_sum_exp(self, pair):
        a, b = pair
        out = log_matmul(a, b)
        acc, scale, moduli = log_matmul_reference(a, b)
        assert out.logabs.shape == acc.shape
        got = out.sign * np.exp(out.logabs - scale)
        # a log carries a few ulps of |log| absolute, i.e. that much relative
        assert np.all(np.abs(got - acc) <= (1e-13 + 1e-15 * np.abs(scale)) * moduli)
        assert np.all((out.sign == 0) == (out.logabs == -np.inf))

    def test_overflowing_entry_is_inf(self):
        # no clamp: an entry past double range reaches assemble's refusal
        out = LogMat(np.array([[800.0, 0.0]]), np.array([[-1.0, 1.0]])).to_linear()
        assert np.array_equal(out, [[-np.inf, 1.0]])

    def test_underflowing_scaled_product_is_recovered(self):
        # scaled mantissas 1 * e^-800 + e^-800 * 1 underflow to 0 in double
        a = LogMat(np.array([[0.0, -800.0]]), np.ones((1, 2)))
        b = LogMat(np.array([[-800.0], [0.0]]), np.ones((2, 1)))
        out = log_matmul(a, b)
        assert abs(out.logabs[0, 0] - (np.log(2.0) - 800.0)) < 1e-12
        assert out.sign[0, 0] == 1.0


def kpz_oracle(t, x, r, u):
    """K(u_i, u_j) = t^(-2/3) int dy Ai((u_i + w - y)/t^(1/3)) Ai((u_j + w - y)/t^(1/3))
    / (1 + e^y), w = r + x^2/t, by mpmath.quad at 30 digits.  Left of the
    range Ai Ai < 1e-19, right of it the Fermi factor is below e^-38."""
    with mpmath.workdps(30):
        ct = mpmath.cbrt(t)
        w = mpmath.mpf(r) + mpmath.mpf(x) ** 2 / t
        # every entry integrates on the same nodes, so Ai is computed once
        # per node and u
        ai = functools.lru_cache(maxsize=None)(lambda ui, y: mpmath.airyai((ui + w - y) / ct))
        return np.array([[float(mpmath.quad(lambda y: ai(ui, y) * ai(uj, y) / (1 + mpmath.exp(y)),
                                            [w - 10 * ct, w, 38], method="gauss-legendre")
                                 / ct ** 2) for uj in u] for ui in u])


def doubled_y_rules():
    """Patch in the kernels' Fermi y-rules with twice the nodes per frequency."""
    rule = kernels.fermi_rule
    return mock.patch.object(kernels, "fermi_rule",
                             lambda y_lo, y_hi, freq, per_freq: rule(y_lo, y_hi, freq, 2 * per_freq))


def doubled_contours():
    """Patch in spiked contours with twice the nodes on every panel."""
    ray = SpikedRules._panelled_ray
    return mock.patch.object(SpikedRules, "_panelled_ray", staticmethod(
        lambda start, rot, edges, per: ray(start, rot, edges, 2 * np.asarray(per))))


def sweep_pair(spec):
    """A two-point sweep: spec and the point 0.5 higher in r."""
    return [spec, dataclasses.replace(spec, rs=(spec.rs[0] + 0.5,))]


class TestKPZNarrowWedge:
    @pytest.mark.parametrize("t, x, r", [(1.0, 0.0, 0.5), (0.5, 0.2, -2.0), (2.0, 0.3, 1.0)])
    def test_block_matches_mpmath(self, t, x, r):
        u = [0.0, 0.7, 3.0]
        got = kpz_block(t, x, r, np.array(u), np.array(u))
        assert np.max(np.abs(got - kpz_oracle(t, x, r, u))) <= 1e-14

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.5, 2.0), st.floats(-1.0, 1.0), st.floats(-3.0, 2.0))
    def test_log_det_converged_in_the_y_rule(self, t, x, r):
        specs = sweep_pair(KernelSpec("kpz_narrow_wedge", t, (x,), (r,)))
        base, nodes = fields.sweep(specs, 64), kernels.sweep_rules(specs).y.size
        with doubled_y_rules():
            fine = fields.sweep(specs, 64)
            # the patch reaches the rule the family integrates on
            assert kernels.sweep_rules(specs).y.size >= 2 * nodes
        assert np.max(np.abs(base - fine)) <= 1e-14

    def test_symmetry(self):
        u = np.array([0.1, 1.0])
        k = kpz_block(1.0, 0.3, 0.5, u, u)
        assert abs(k[0, 1] - k[1, 0]) < 1e-15

    def test_determinant_is_probability(self):
        d = det_of(KernelSpec("kpz_narrow_wedge", 1.0, (0.0,), (0.0,)))
        assert 0.0 < d < 1.0

    def test_large_r_limit(self):
        # right tail is exponential, deficit ~ C exp(-r)
        d8 = det_of(KernelSpec("kpz_narrow_wedge", 1.0, (0.0,), (8.0,)))
        assert 1.0 - d8 < 1e-3
        d15 = det_of(KernelSpec("kpz_narrow_wedge", 1.0, (0.0,), (15.0,)))
        assert 1.0 - d15 < 1e-6

    def test_differential_relations_in_gauge(self):
        # relations hold for e^{(v-u)x/t} K(u,v)
        rng = np.random.default_rng(3)
        u = rng.uniform(0.2, 2.0, 8)
        v = rng.uniform(0.2, 2.0, 8)
        h = 1e-3
        t0, x0 = 1.0, 0.2

        def kf(t, x, uu, vv):
            base = np.diagonal(kpz_block(t, x, 0.4, uu, vv))
            return np.exp((vv - uu) * x / t) * base

        offs = np.array([-2, -1, 0, 1, 2]) * h
        ku = np.stack([kf(t0, x0, u + o, v) for o in offs])
        kv = np.stack([kf(t0, x0, u, v + o) for o in offs])
        c2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12 * h * h)
        c3 = np.array([-0.5, 1.0, 0.0, -1.0, 0.5]) / h ** 3
        d13, d23 = np.tensordot(c3, ku, 1), np.tensordot(c3, kv, 1)
        d12, d22 = np.tensordot(c2, ku, 1), np.tensordot(c2, kv, 1)
        dt = (kf(t0 + h, x0, u, v) - kf(t0 - h, x0, u, v)) / (2 * h)
        dx = (kf(t0, x0 + h, u, v) - kf(t0, x0 - h, u, v)) / (2 * h)
        scale = np.abs(kf(t0, x0, u, v)).max()
        assert np.max(np.abs(dt + (d13 + d23) / 3.0)) / scale < 1e-4
        assert np.max(np.abs(dx - (d22 - d12))) / scale < 1e-4


class TestSpiked:
    def test_determinant_real_probability(self):
        d = det_of(KernelSpec("kpz_spiked", 1.0, (0.0,), (0.0,), spikes=(0.0,)))
        assert 0.0 < d < 1.0  # kernel is real by construction: imag == 0

    def test_monotone_in_r(self):
        d0 = det_of(KernelSpec("kpz_spiked", 1.0, (0.0,), (0.0,), spikes=(0.0,)))
        d1 = det_of(KernelSpec("kpz_spiked", 1.0, (0.0,), (1.0,), spikes=(0.0,)))
        assert d1 > d0

    def test_anchor_independence(self):
        d0 = det_of(KernelSpec("kpz_spiked", 1.0, (0.0,), (0.0,), spikes=(0.0,)))
        d1 = det_of(KernelSpec("kpz_spiked", 1.0, (0.0,), (0.0,), spikes=(0.0,),
                               contour_anchor=0.35))
        assert abs(d0 - d1) < 1e-8

    def test_far_spike_degenerates_to_narrow_wedge(self):
        # spike at -B acts as the level shift r -> r + log B up to O(1/B)
        for big_b, tol in ((50.0, 2e-4), (100.0, 5e-5)):
            ds = det_of(KernelSpec("kpz_spiked", 1.0, (0.0,), (0.0,),
                                   spikes=(-big_b,)))
            dn = det_of(KernelSpec("kpz_narrow_wedge", 1.0, (0.0,),
                                   (np.log(big_b),)))
            assert abs(ds - dn) < tol

    def test_validation(self):
        # the anchor right of every spike keeps the xi anchor clear of them
        with pytest.raises(KernelDomainError, match="right of all spikes"):
            KernelSpec("kpz_spiked", 1.0, (0.0,), (0.0,), spikes=(0.5,))
        with pytest.raises(KernelDomainError, match="collides"):
            SpikedRules([KernelSpec("kpz_spiked", 1.0, (0.0,), (0.0,), spikes=(0.3,),
                                    contour_anchor=0.3 + 5e-10)])
        with pytest.raises(KernelDomainError):
            KernelSpec("kpz_spiked", 1.0, (0.0,), (0.0,), spikes=(0.1, 0.1))
        with pytest.raises(KernelDomainError):
            KernelSpec("kpz_spiked", 1.0, (1.5,), (0.0,), spikes=(0.0,))

    def test_two_spikes(self):
        d = det_of(KernelSpec("kpz_spiked", 1.0, (0.0,), (0.0,),
                              spikes=(-0.5, 0.1)))
        assert 0.0 < d < 1.0


# (t, x / t, r) of two-point spiked sweeps whose log det once moved with the
# y'-rule by up to 4.4e-10, or off their one-point sweeps by up to 5.2e-11,
# while the xi rays did not resolve G at arguments below about -30
MIXED_R_PROBES = [(0.85, 0.0, -3.0), (0.875, 0.0, -2.0), (0.9, 0.0, -2.0), (0.85, 0.9, -3.0)]


# t >= 0.85 and x >= 0: below that convergence is not shown (at (t, x, r) =
# (0.5, -0.3, 1) log det moves by 7e-7 with a doubled y'-rule and by 1.4e-5
# with doubled contours), though the determinant is a probability there
# (test_spiked_small_t_determinant_is_a_probability)
def spiked_domain(test):
    """Hypothesis draws (t, x / t, r) of the spiked convergence tests,
    with the mixed-r probes as examples."""
    for point in MIXED_R_PROBES:
        test = example(*point)(test)
    return settings(max_examples=10, deadline=None)(
        given(st.floats(0.85, 2.0), st.floats(0.0, 0.9), st.floats(-3.0, 2.0))(test))


@spiked_domain
def test_spiked_log_det_converged_in_the_y_rule(t, x_frac, r):
    specs = sweep_pair(KernelSpec("kpz_spiked", t, (x_frac * t,), (r,), spikes=(0.0,)))
    base = fields.sweep(specs, 64)
    with doubled_y_rules():
        fine = fields.sweep(specs, 64)
    assert np.max(np.abs(base - fine)) <= 1e-12


@spiked_domain
def test_spiked_log_det_converged_in_the_contours(t, x_frac, r):
    # the contour sizes follow (t, x) and the argument range, so they need
    # their own convergence check
    specs = sweep_pair(KernelSpec("kpz_spiked", t, (x_frac * t,), (r,), spikes=(0.0,)))
    base, rules = fields.sweep(specs, 64), SpikedRules(specs)
    with doubled_contours():
        fine = fields.sweep(specs, 64)
        # the patch reaches both contours
        doubled = SpikedRules(specs)
        assert doubled.eta_nodes.size == 2 * rules.eta_nodes.size
        assert doubled.xi_nodes.size == 2 * rules.xi_nodes.size
    assert np.max(np.abs(base - fine)) <= 1e-12


@pytest.mark.parametrize("t, x, r", [(0.5, 0.0, 0.0), (0.5, 0.0, -3.0), (0.6, 0.0, -3.0),
                                     (0.7, -0.28, -3.0), (0.85, -0.34, -3.0), (1.0, -0.9, -3.0)])
def test_spiked_small_t_determinant_is_a_probability(t, x, r):
    # det(I - K) read +12 to +52 in log here while the xi rays did not
    # resolve G; it is a distribution function in r
    d0, d1 = fields.sweep(sweep_pair(KernelSpec("kpz_spiked", t, (x,), (r,), spikes=(0.0,))),
                          64, fredholm.det_one_minus)
    assert 0.0 < d0 < d1 < 1.0


def spiked_reference(sk, u, v):
    """K(u, v) by the unfactored sums: full contours, direct complex exp of
    the whole exponent, and the 3-D (u, v, y) sum of Fermi(y) F G."""
    def full(z, w):
        # the lower half is the mirror image traversed the other way
        return np.concatenate([np.conj(z), z]), np.concatenate([-np.conj(w), w])

    rules = sk.rules
    ze, we = full(rules.eta_nodes, rules.eta_w)
    zx, wx = full(rules.xi_nodes, rules.xi_w)
    lg_e = sum(log_gamma(ze - b) for b in rules.b)
    lg_x = sum(log_gamma(zx - b) for b in rules.b)
    f_base = np.exp(sk.spec.t * ze ** 3 / 3 + sk.spec.xs[0] * ze ** 2 - lg_e) * we
    g_base = np.exp(-sk.spec.t * zx ** 3 / 3 - sk.spec.xs[0] * zx ** 2 + lg_x) * wx
    r = sk.spec.rs[0]
    # the rule lies in y' = y - r
    y = rules.fermi_nodes + r
    # one row of arguments w = u_i + r - y at a time keeps memory small
    f = np.array([(np.exp(-np.outer(ui + r - y, ze)) * f_base).sum(-1)
                  for ui in u]) / (2j * np.pi)
    g = np.array([(np.exp(np.outer(vj + r - y, zx)) * g_base).sum(-1)
                  for vj in v]) / (2j * np.pi)
    fermi_w = np.exp(rules.logw - np.logaddexp(0.0, y))
    return np.sum(f.real[:, None, :] * g.real[None, :, :] * fermi_w, axis=2)


@pytest.mark.parametrize("kw", [
    {},
    {"spikes": (0.0, -0.4)},
    {"xs": (-0.5,)},              # a_eta shifted right of the anchor
    {"contour_anchor": 0.35},
    {"rs": (1.0,)},
], ids=["default", "two_spikes", "x_neg", "anchor", "r1"])
def test_spiked_matrix_matches_unfactored_sum(kw):
    args = {"xs": (0.0,), "rs": (0.0,), "spikes": (0.0,)}
    args.update(kw)
    spec = KernelSpec("kpz_spiked", 1.0, args.pop("xs"), args.pop("rs"), **args)
    sk = SpikedKernel(spec, SpikedRules((spec,)))
    u = panel_rule((0.0, spec.domain_cut), 8).nodes
    ref = spiked_reference(sk, u, u)
    assert np.max(np.abs(sk.matrix(u, u) - ref)) <= 1e-11 * np.max(np.abs(ref))


def c13_stencil_specs():
    """The 63 points of the c13 spiked KP stencil around (t, x, r) = (1, 0.2, 0.3)."""
    h = 0.02
    return [KernelSpec("kpz_spiked", float(t), (float(x),), (float(r),), spikes=(0.0,))
            for t in 1.0 + h * np.arange(-1, 2)
            for x in 0.2 + h * np.arange(-1, 2)
            for r in 0.3 + h * np.arange(-3, 4)]


def contour_drops(spec, rules):
    """How far log|integrand| of F and of G falls from each contour's anchor
    to its last node, at both ends of the rules' argument range."""
    t, x = spec.t, spec.xs[0]

    def size(z, w, sgn):
        return sgn * (t * z ** 3 / 3 + x * z * z - w * z - sum(log_gamma(z - b) for b in rules.b)).real

    return np.array([size(a, w, sgn) - size(end, w, sgn)
                     for a, end, sgn in ((rules.a_eta, rules.eta_nodes[-1], 1.0),
                                         (rules.a_xi, rules.xi_nodes[-1], -1.0))
                     for w in rules.w_range])


def assert_resolves_every_point(swept, specs):
    for s in specs:
        own = SpikedRules([s])
        # every shared panel holds at least the nodes the point's own sizing
        # asks for on that stretch
        for start, rot, edges, per in swept.pieces:
            assert np.all(own._nodes(start, rot, edges) <= per)
        # the shared contours reach as far down the point's integrands as
        # its own, or past e^{-45}
        assert np.all(contour_drops(s, swept) >= np.minimum(contour_drops(s, own), 45.0) - 1e-9)
        # the point's own y' = y - r range lies inside the shared one
        assert swept.y_lo <= own.y_lo and own.y_hi <= swept.y_hi
        assert own.y_loc.size <= swept.y_loc.size
        assert own.a_eta <= swept.a_eta


def test_spiked_sweep_shares_one_rule_set_sized_for_every_point():
    specs = c13_stencil_specs()
    # rules of each point's own vary over the stencil; the shared ones
    # resolve every one of them, in either order of the points
    assert len({SpikedRules([s]).eta_nodes.tobytes() for s in specs}) > 1
    for order in (specs, specs[::-1]):
        used = fields.sweep(order, 8, lambda disc: disc.kernel.rules)
        swept = used[0]
        assert all(rules is swept for rules in used)
        assert_resolves_every_point(swept, order)


def test_spiked_rules_resolve_every_point_of_a_wide_t_range():
    # the bend height comes from the smallest t and the node rate on the
    # contours from the largest t
    specs = [KernelSpec("kpz_spiked", t, (0.0,), (0.0,), spikes=(0.0,))
             for t in (0.5, 1.0, 2.0, 4.0)]
    swept = SpikedRules(specs)
    assert swept.eta_nodes.size < sum(SpikedRules([s]).eta_nodes.size for s in specs)
    assert_resolves_every_point(swept, specs)


def test_spiked_kernel_accepts_list_valued_spikes():
    spec = KernelSpec("kpz_spiked", 1.0, (0.0,), (0.0,), spikes=[0.0])
    tuple_spec = KernelSpec("kpz_spiked", 1.0, (0.0,), (0.0,), spikes=(0.0,))
    want = SpikedKernel(tuple_spec, SpikedRules((tuple_spec,)))
    u = np.array([0.0, 1.0])
    got = SpikedKernel(spec, SpikedRules((spec,)))
    assert np.array_equal(got.matrix(u, u), want.matrix(u, u))


def test_spiked_kernel_rejects_a_point_outside_its_sweep():
    specs = c13_stencil_specs()
    rules = SpikedRules(specs[:5])
    with pytest.raises(KernelDomainError):
        SpikedKernel(specs[-1], rules)
    with pytest.raises(KernelDomainError):
        SpikedRules([specs[0], KernelSpec("kpz_spiked", 1.0, (0.0,), (0.0,),
                                          spikes=(0.0,), contour_anchor=0.35)])


@pytest.mark.parametrize("index", [0, -2], ids=["first_pair_group", "second_pair_group"])
def test_spiked_sweep_matrix_matches_unfactored_sum(index):
    # a point away from the one the rules' anchors and y range come from,
    # evaluated with the sweep's shared rules and factors; the sweep has 10
    # (t, x) pairs, so (0.98, 0.18) and (1.02, 0.22) fall in different
    # groups of the factor grids' products
    specs = c13_stencil_specs() + [
        KernelSpec("kpz_spiked", 1.0, (-0.5,), (-1.0,), spikes=(0.0,))]
    rules = SpikedRules(specs)
    assert len(dict.fromkeys((s.t, s.xs[0]) for s in specs)) > kernels.PAIR_GROUP
    sk = SpikedKernel(specs[index], rules)    # r = 0.24 at index 0, 0.36 at -2
    u = panel_rule((0.0, specs[0].domain_cut), 8).nodes
    ref = spiked_reference(sk, u, u)
    assert np.max(np.abs(sk.matrix(u, u) - ref)) <= 1e-11 * np.max(np.abs(ref))


class TestQuadratureFailureGuard:
    def test_starved_inner_rule_raises(self, monkeypatch):
        from kpdet import kernels
        from kpdet.kernels import QuadratureFailure
        monkeypatch.setattr(kernels, "INNER_SCALE", 0.05)
        spec = KernelSpec("nw_fixed_point", 1.0, (0.0,), (-3.0,), ((0.0, 0.0),),
                          inner_n=8)
        with pytest.raises(QuadratureFailure):
            BlockKernel(spec).block(np.array([0.0]), np.array([0.0]))


class TestThreeWedges:
    def test_three_wedge_determinant(self):
        spec = KernelSpec("nw_fixed_point", 1.0, (0.0,), (0.5,),
                          ((-1.0, 0.0), (0.2, -0.3), (1.1, 0.1)))
        d3 = det_of(spec)
        assert 0.0 < d3 < 1.0

    def test_sunk_third_wedge_reduces_to_two(self):
        sunk = KernelSpec("nw_fixed_point", 1.0, (0.0,), (0.5,),
                          ((-1.0, 0.0), (0.2, -0.3), (1.1, -8.0)))
        two = KernelSpec("nw_fixed_point", 1.0, (0.0,), (0.5,),
                         ((-1.0, 0.0), (0.2, -0.3)))
        assert abs(det_of(sunk) - det_of(two)) < 1e-9


@st.composite
def narrow_wedge_sets(draw):
    """2 to 6 narrow wedges (a_p, b_p), positions at least 0.3 apart."""
    k = draw(st.integers(2, 6))
    a0 = draw(st.floats(-2.0, 0.0))
    gaps = draw(st.lists(st.floats(0.3, 1.5), min_size=k - 1, max_size=k - 1))
    positions = a0 + np.concatenate([[0.0], np.cumsum(gaps)])
    levels = draw(st.lists(st.floats(-0.5, 0.5), min_size=k, max_size=k))
    return tuple((float(a), float(b)) for a, b in zip(positions, levels))


@settings(max_examples=40, deadline=None)
@given(t=st.floats(0.5, 2.0), wedges=narrow_wedge_sets(),
       x=st.floats(-1.0, 1.0), r=st.floats(-1.0, 0.7))
def test_skew_time_reversal_of_multiwedge_determinant(t, wedges, x, r):
    # skew time reversal (Matetski-Quastel-Remenik): P(h(t, x) <= r) from
    # the wedges (a_p, b_p) is P(h(t, a_p) <= r - b_p for all p) from one
    # narrow wedge at x.  The left side runs the renewal chain through the
    # wedges, the right side the extended one-wedge blocks.
    one_point = KernelSpec("nw_fixed_point", t, (x,), (r,), wedges)
    k_point = KernelSpec("nw_fixed_point", t, tuple(a for a, _ in wedges),
                         tuple(r - b for _, b in wedges), ((x, 0.0),))
    assert abs(det_of(one_point) - det_of(k_point)) <= 1e-12


@st.composite
def unit_points_and_wedges(draw):
    """1 to 3 points (x, r) and 1 to 3 wedges (a, b) at unit scale, the
    positions increasing at least 0.3 apart."""
    def increasing(k):
        gaps = draw(st.lists(st.floats(0.3, 1.0), min_size=k - 1, max_size=k - 1))
        return draw(st.floats(-1.0, 0.0)) + np.concatenate([[0.0], np.cumsum(gaps)])

    m, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rs = draw(st.lists(st.floats(-2.0, 1.0), min_size=m, max_size=m))
    bs = draw(st.lists(st.floats(-0.5, 0.5), min_size=k, max_size=k))
    return increasing(m), np.array(rs), increasing(k), np.array(bs)


@settings(max_examples=15, deadline=None)
@given(t=st.floats(0.05, 4.0), unit=unit_points_and_wedges())
def test_one_two_three_scaling_of_multiwedge_determinant(t, unit):
    # 1:2:3 scaling (Matetski-Quastel-Remenik): F(t, xs, rs) from the wedges
    # (a, b) is F(1, t^(-2/3) xs, t^(-1/3) rs) from (t^(-2/3) a, t^(-1/3) b).
    # The t-side is placed at unit scale times (t^(2/3), t^(1/3)), so F is
    # away from 1; log F differs by at most 3.1e-15 over 150 such draws
    xs, rs, a, b = unit
    x_scale, r_scale = t ** (2.0 / 3.0), np.cbrt(t)
    xs, rs, a, b = xs * x_scale, rs * r_scale, a * x_scale, b * r_scale
    at_t = KernelSpec("nw_fixed_point", t, tuple(xs), tuple(rs), tuple(zip(a, b)))
    at_1 = KernelSpec("nw_fixed_point", 1.0, tuple(xs / x_scale), tuple(rs / r_scale),
                      tuple(zip(a / x_scale, b / r_scale)))
    (s_t, log_t), (s_1, log_1) = (fredholm.log_det_one_minus(fredholm.assemble(s, 64))
                                  for s in (at_t, at_1))
    assert s_t == s_1 == 1.0
    assert abs(log_t - log_1) <= 1e-12
