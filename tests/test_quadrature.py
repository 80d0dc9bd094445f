import mpmath
import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings, strategies as st

from kpdet.kernels import Y_HI, KernelSpec, SpikedRules, fermi_rule
from kpdet.quadrature import QuadratureSizeError, QuadRule, gauss_legendre, panel_rule


class TestGaussLegendre:
    def test_midpoint(self):
        g = gauss_legendre(1)
        assert g.nodes.tolist() == [0.0] and g.weights.tolist() == [2.0]

    def test_two_point(self):
        g = gauss_legendre(2)
        assert np.allclose(g.nodes, [-0.5773502691896258, 0.5773502691896258])
        assert np.allclose(g.weights, [1.0, 1.0])

    def test_degree_30_with_16(self):
        g = gauss_legendre(16)
        assert abs(g.integrate(g.nodes ** 30) - 2.0 / 31.0) < 1e-13

    def test_weight_sum(self):
        for n in (8, 64, 512):
            assert abs(gauss_legendre(n).weights.sum() - 2.0) < 1e-13

    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_exactness(self, n):
        g = gauss_legendre(n)
        for deg in range(2 * n):
            exact = 2.0 / (deg + 1) if deg % 2 == 0 else 0.0
            assert abs(g.integrate(g.nodes ** deg) - exact) < 1e-12

    def test_size_errors(self):
        with pytest.raises(QuadratureSizeError):
            gauss_legendre(0)
        with pytest.raises(QuadratureSizeError):
            gauss_legendre(513)

    def test_against_numpy(self):
        x, w = np.polynomial.legendre.leggauss(48)
        g = gauss_legendre(48)
        assert np.max(np.abs(g.nodes - x)) < 1e-14
        assert np.max(np.abs(g.weights - w)) < 1e-14


class TestHalfLine:
    def test_exponential(self):
        h = panel_rule([0.0, np.inf], 64, 4.0)
        assert abs(h.integrate(np.exp(-2 * h.nodes)) - 0.5) < 1e-10

    def test_shift_covariance(self):
        h0 = panel_rule([0.0, np.inf], 32, 4.0)
        h1 = panel_rule([1.0, np.inf], 32, 4.0)
        assert np.max(np.abs(h1.nodes - (h0.nodes + 1.0))) < 1e-12
        assert np.max(np.abs(h1.weights - h0.weights)) < 1e-12

    def test_first_moment(self):
        h = panel_rule([0.0, np.inf], 64, 4.0)
        assert abs(h.integrate(h.nodes * np.exp(-h.nodes)) - 1.0) < 1e-9

    def test_down_map(self):
        d = panel_rule([-np.inf, 1.0], 64, 4.0)
        assert np.all(np.diff(d.nodes) > 0) and np.all(d.nodes <= 1.0)
        assert abs(d.integrate(np.exp(d.nodes - 1.0)) - 1.0) < 1e-10

    def test_scale_validation(self):
        # an infinite panel refuses a tail scale <= 0 (or NaN) at either end
        for edges in ([0.0, np.inf], [-np.inf, 0.0], [-np.inf, 0.0, 1.0, np.inf]):
            for scale in (0.0, -1.0, np.nan):
                with pytest.raises(ValueError, match="tail_scale"):
                    panel_rule(edges, 8, scale)
        # a finite rule never uses it
        assert panel_rule([0.0, 1.0], 8, -1.0).n == 8


def eta_edges(big_h, t, w):
    """14 panel edges on [0, big_h] at equal increments of the phase t s^3/3 + w s."""
    s = np.linspace(0.0, big_h, 2049)
    return np.interp(np.linspace(0.0, t * big_h ** 3 / 3 + w * big_h, 15), t * s ** 3 / 3 + w * s, s)


def vertical(anchor, edges, per):
    """Upper half of the vertical contour at anchor: nodes and i ds weights."""
    half = panel_rule(edges, per)
    return anchor + 1j * half.nodes, 1j * half.weights


class TestContours:
    """The spiked kernel's contour rules, summed as Im(upper half) / pi."""

    def test_residue_theorem(self):
        # closed CCW loop around z = 0: up at anchor 1, top cap leftward,
        # down at anchor -1, bottom cap rightward; 1/z is real-analytic, so
        # each vertical side and the caps pair up with their mirror images
        big_h, n = 8.0, 180
        edges = eta_edges(big_h, 1.0, 0.0)
        right = vertical(1.0, edges, 32)
        left = vertical(-1.0, edges, 32)
        cap = panel_rule([-1.0, 1.0], n)
        f = lambda z: 1.0 / z
        total = (np.sum(f(right[0]) * right[1]).imag
                 - np.sum(f(left[0]) * left[1]).imag
                 - np.sum(f(cap.nodes + 1j * big_h) * cap.weights).imag)
        assert abs(total / np.pi - 1.0) < 1e-12

    def test_conjugate_cancellation(self):
        # the full contour is the upper half plus its mirror image (same
        # i*ds weights); a real-analytic integrand's real part cancels and
        # the full sum over 2 pi i is Im(upper) / pi
        z, w = vertical(0.5, eta_edges(6.0, 1.0, 2.0), 36)
        full_z = np.concatenate([np.conj(z[::-1]), z])
        full_w = np.concatenate([w[::-1], w])
        f = lambda z: np.exp(z ** 3 / 3.0 - 1.5 * z)
        full = np.sum(f(full_z) * full_w)
        upper = np.sum(f(z) * w)
        assert abs(full.real) < 1e-14 * abs(full)
        assert abs(full / (2j * np.pi) - upper.imag / np.pi) < 1e-15

    def test_cubic_decay_at_endpoints(self):
        # |e^{t z^3/3}| at anchor 1/4, |s| = H = 12, t = 1
        z = 0.25 + 12.0j
        assert np.exp((z ** 3).real / 3.0) < 1e-15

    def test_vertical_airy(self):
        # a hand-built vertical contour, and the eta contour a spiked kernel
        # builds at t = 1: vertical up to the bend, then the ray at pi/3
        k = SpikedRules([KernelSpec("kpz_spiked", 1.0, (0.2,), (0.3,), spikes=(0.0,))])
        vert, ray = (p[3].sum() for p in k.pieces[:2])
        top = k.a_eta + 1j * k.pieces[1][0].imag
        assert np.all(k.eta_nodes[:vert].real == k.a_eta) and np.all(np.diff(k.eta_nodes[:vert].imag) > 0)
        assert np.allclose(np.angle(k.eta_nodes[vert:] - top), np.pi / 3, rtol=0.0, atol=1e-12)
        assert k.eta_nodes.size == vert + ray
        for z, dz in (vertical(0.6, eta_edges(9.0, 1.0, 3.0), 50), (k.eta_nodes, k.eta_w)):
            for w in (-3.0, -1.0, 0.0, 2.0):
                val = np.sum(np.exp(z ** 3 / 3.0 - w * z) * dz).imag / np.pi
                assert abs(val - sp.airy(w)[0]) < 1e-14

    def test_bent_rays_airy(self):
        # hand-placed panels, and the xi rays a spiked kernel builds at t = 1
        k = SpikedRules([KernelSpec("kpz_spiked", 1.0, (0.2,), (0.3,), spikes=(0.0,))])
        ray = SpikedRules._panelled_ray(0.6, np.exp(2j * np.pi / 3), [0.0, 0.15, 0.45, 1.2, 3.0, 10.0], 72)
        for z, dz in (ray, (k.xi_nodes, k.xi_w)):
            for w in (-3.0, -1.0, 0.0, 2.0):
                val = np.sum(np.exp(-z ** 3 / 3.0 + w * z) * dz).imag / np.pi
                assert abs(val - sp.airy(w)[0]) < 1e-14


class TestCompositeLine:
    def test_panel_split_indicator_exactness(self):
        rule = panel_rule([-np.inf, 0.0, 1.0, np.inf], 48, 4.0)
        # integrate exp(-|u|) restricted to u <= 1: breakpoints keep the
        # indicator exact
        f = np.exp(-np.abs(rule.nodes)) * (rule.nodes <= 1.0)
        exact = 2.0 - np.exp(-1.0)
        assert abs(rule.integrate(f) - exact) < 1e-9


@st.composite
def panel_edges(draw):
    """Increasing finite edges, optionally with an infinite first/last edge."""
    start = draw(st.floats(-20.0, 20.0))
    widths = draw(st.lists(st.floats(1e-2, 10.0), min_size=1, max_size=5))
    edges = list(start + np.cumsum([0.0] + widths))
    if draw(st.booleans()):
        edges = [-np.inf] + edges
    if draw(st.booleans()):
        edges = edges + [np.inf]
    return edges


def _same_bits(rule, ref):
    return (rule.nodes.tobytes() == ref.nodes.tobytes()
            and rule.weights.tobytes() == ref.weights.tobytes())


class TestPanelRule:
    @settings(max_examples=150, deadline=None)
    @given(panel_edges(), st.integers(1, 12), st.floats(0.5, 8.0))
    def test_each_panel_holds_an_exact_rule(self, edges, n, scale):
        rule = panel_rule(edges, n, scale)
        x = rule.nodes
        assert rule.n == n * (len(edges) - 1)
        assert np.all(np.diff(x) > 0)
        for a, b in zip(edges[:-1], edges[1:]):
            # every node lies strictly inside its panel, so the indicator
            # of the panel cuts out exactly its n nodes
            inside = (x > a) & (x < b)
            assert inside.sum() == n
            if np.isinf(a) or np.isinf(b):
                continue
            c, h = 0.5 * (a + b), 0.5 * (b - a)
            tol = 1e-14 * (2 * n) * (h + abs(a) + abs(b))
            for deg in range(2 * n):
                exact = 2.0 * h / (deg + 1) if deg % 2 == 0 else 0.0
                val = rule.integrate(inside * ((x - c) / h) ** deg)
                assert abs(val - exact) <= tol

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-50.0, 50.0), st.floats(1e-6, 50.0), st.integers(1, 64),
           st.floats(0.1, 10.0))
    def test_single_panel_is_the_map(self, a, width, n, scale):
        # the affine map, the algebraic half-line map a + s (1+x)/(1-x)
        # and its mirror onto (-inf, a], written out on the reference rule
        base = gauss_legendre(n)
        x, w = base.nodes, base.weights
        b = a + width
        half = 0.5 * (b - a)
        up = scale * (1.0 + x) / (1.0 - x)
        up_w = w * 2.0 * scale / (1.0 - x) ** 2
        assert _same_bits(panel_rule([a, b], n), QuadRule(a + half * (x + 1.0), w * half))
        assert _same_bits(panel_rule([a, np.inf], n, scale), QuadRule(a + up, up_w))
        assert _same_bits(panel_rule([-np.inf, a], n, scale),
                          QuadRule((a - up)[::-1], up_w[::-1]))

    def test_finite_rule_ignores_tail_scale(self):
        # the spiked determinant's domain [0, 18] as fredholm.assemble asks for it
        for n in (8, 64, 96):
            assert _same_bits(panel_rule((0.0, 18.0), n, 4.0), panel_rule((0.0, 18.0), n))

    def test_narrow_panels_dropped(self):
        rule = panel_rule([0.0, 1.0, 1.0 + 1e-12, 2.0], 4)
        assert rule.n == 8 and np.all((rule.nodes < 1.0) | (rule.nodes > 1.0 + 1e-12))
        assert panel_rule([0.5, 0.5], 4).n == 0

    def test_invalid_edges(self):
        with pytest.raises(ValueError):
            panel_rule([1.0, 0.0], 4)
        with pytest.raises(ValueError):
            panel_rule([0.0], 4)
        with pytest.raises(ValueError):
            panel_rule([0.0, np.inf], 4)
        with pytest.raises(ValueError):
            panel_rule([-np.inf, np.inf], 4, 1.0)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(0.5, 2.0), st.floats(-0.9, 0.9), st.floats(-1.0, 1.0),
           st.floats(-1.0, 0.1))
    def test_spiked_fermi_panels_share_one_base(self, t, x_frac, r, spike):
        k = SpikedRules([KernelSpec("kpz_spiked", t, (x_frac * t,), (r,),
                                    spikes=(spike,))])
        y = k.fermi_nodes
        assert y.tobytes() == (k.y0[:, None] + k.y_loc[None, :]).ravel().tobytes()
        # the shared-base form is the panel rule on equal-width panels of
        # the point's y' = y - r range, to rounding of the node positions
        edges = np.linspace(k.y_lo, Y_HI - r, k.y0.size + 1)
        ref = panel_rule(edges, k.y_loc.size)
        assert np.max(np.abs(y - ref.nodes)) <= 8 * np.spacing(np.max(np.abs(edges)))
        w = np.exp(k.logw)
        assert np.allclose(w, ref.weights, rtol=1e-13, atol=0.0)

    def test_fermi_rule_matches_mpmath(self):
        # a Fermi-weighted Gaussian on the rule for frequency 6 (t = 1), laid
        # in y' = y - w over [-10, Y_HI] - w as kpz_narrow_wedge lays it
        w = 1.5
        _, _, y, logw = fermi_rule(-10.0 - w, Y_HI - w, 6.0, 0.75)
        with mpmath.workdps(30):
            want = mpmath.quad(lambda y: mpmath.exp(-(y - 3) ** 2) / (1 + mpmath.exp(y)),
                               [-mpmath.inf, 3, mpmath.inf])
        got = np.sum(np.exp(logw - np.logaddexp(0.0, y + w) - (y + w - 3.0) ** 2))
        assert abs(got - float(want)) < 1e-15


class TestHalfLineConvergence:
    def test_doubling_reduces_error(self):
        errs = []
        for n in (16, 32, 64):
            h = panel_rule([0.0, np.inf], n, 2.0)
            errs.append(abs(h.integrate(np.exp(-h.nodes ** 2))
                            - np.sqrt(np.pi) / 2.0))
        assert errs[1] < errs[0] / 100 or errs[1] < 1e-12
        assert errs[2] < errs[1] / 100 or errs[2] < 1e-12
