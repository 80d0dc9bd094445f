from itertools import combinations

import mpmath as mp
import numpy as np
import pytest
from hit_kernels import hit_kernel, no_hit_kernel

from kpdet import fredholm, painleve, scattering
from kpdet.kernels import KernelDomainError, KernelSpec, heat_kernel
from kpdet.quadrature import panel_rule


def mc_bridge_density(spec, i, j, n_paths=100_000, seed=0):
    """Monte Carlo oracle for constrained_bridge_density: (estimate, stderr).

    Samples Brownian motion (diffusivity 2) from (x_i, r_i) exactly at the
    wedge points strictly between x_i and x_j (where it must be >= b) and at
    the observation points between them (where it must be <= r), and
    weights the surviving paths by the heat kernel to (x_j, r_j), so the
    estimate is unbiased.
    """
    xi, xj = spec.xs[i], spec.xs[j]
    bounds = {}
    for a, b in spec.wedges:
        if xi < a < xj:
            bounds[a] = (b, bounds.get(a, (-np.inf, np.inf))[1])
    for xn, rn in zip(spec.xs, spec.rs):
        if xi < xn < xj:
            bounds[xn] = (bounds.get(xn, (-np.inf, np.inf))[0], rn)
    rng = np.random.default_rng(seed)
    pos = np.full(n_paths, float(spec.rs[i]))
    alive = np.ones(n_paths, dtype=bool)
    prev_x = xi
    for x, (lo, hi) in sorted(bounds.items()):
        pos = pos + rng.normal(0.0, np.sqrt(2.0 * (x - prev_x)), n_paths)
        alive &= (pos >= lo) & (pos <= hi)
        prev_x = x
    d = xj - prev_x
    heat = np.exp(-(pos - spec.rs[j]) ** 2 / (4.0 * d)) / np.sqrt(4.0 * np.pi * d)
    w = np.where(alive, heat, 0.0)
    return float(np.mean(w)), float(np.std(w) / np.sqrt(n_paths))


@pytest.mark.parametrize("xs, rs, wedges, message", [
    ((1.0, 0.0), (0.0, 0.0), ((0.0, 0.0),), "xs must be strictly increasing"),
    ((0.0, 1.0), (0.0,), ((0.0, 0.0),), "rs must match xs"),
    ((0.0,), (0.0,), ((0.5, 0.0), (0.5, 1.0)), "wedge positions must be strictly increasing"),
], ids=["xs", "rs", "wedges"])
def test_kernel_spec_layout_checks(xs, rs, wedges, message):
    with pytest.raises(KernelDomainError, match=message):
        KernelSpec("nw_fixed_point", 1.0, xs, rs, wedges)


@pytest.fixture(scope="module")
def spec_single():
    return KernelSpec("nw_fixed_point", 1.0, (-1.0, 1.0), (1.0, 1.2), ((0.0, 0.0),))


class TestHitKernel:
    def test_wedge_outside_window(self):
        spec = KernelSpec("nw_fixed_point", 1.0, (-1.0, 1.0), (1.0, 1.2), ((5.0, 0.0),))
        assert hit_kernel(spec, 0, 1, 1.0, 1.0) == 0.0

    def test_direct_quadrature_oracle(self, spec_single):
        val = hit_kernel(spec_single, 0, 1, 1.0, 1.0)
        rule = panel_rule((-np.inf, 0.0), 200, 4.0)
        direct = np.sum(heat_kernel(1.0, 1.0, rule.nodes)
                        * heat_kernel(1.0, rule.nodes, 1.0) * rule.weights)
        assert abs(val - direct) < 1e-12

    def test_high_level_forces_hit(self):
        spec = KernelSpec("nw_fixed_point", 1.0, (-1.0, 1.0), (1.0, 1.2), ((0.0, 8.0),))
        assert abs(hit_kernel(spec, 0, 1, 1.0, 1.0)
                   - heat_kernel(2.0, 1.0, 1.0)) < 1e-8

    def test_ordering_error(self, spec_single):
        with pytest.raises(scattering.OrderingError):
            hit_kernel(spec_single, 1, 0, 0.0, 0.0)


def _hit_chain(xi, xj, pos, lev, u, v):
    """Heat-kernel chain from x_i to x_j through the cutoffs (-inf, b] at
    (pos, lev); a wedge at x_i or x_j is the indicator 1{u <= b} or
    1{v <= b}."""
    pos, lev = list(pos), list(lev)
    pre_u, pre_v = np.ones(u.size), np.ones(v.size)
    if pos and pos[0] == xi:
        pre_u = (u <= lev[0]).astype(float)
        pos, lev = pos[1:], lev[1:]
    if pos and pos[-1] == xj:
        pre_v = (v <= lev[-1]).astype(float)
        pos, lev = pos[:-1], lev[:-1]
    width = 3.0 * np.sqrt(2.0 * (xj - xi))
    mat, prev_nodes, prev_x = np.eye(u.size), u, xi
    for x, b in zip(pos, lev):
        rule = panel_rule((-np.inf, b), 64, max(1.0, width))
        mat = mat @ (heat_kernel(x - prev_x, prev_nodes[:, None], rule.nodes[None, :])
                     * rule.weights[None, :])
        prev_nodes, prev_x = rule.nodes, x
    mat = mat @ heat_kernel(xj - prev_x, prev_nodes[:, None], v[None, :])
    return pre_u[:, None] * mat * pre_v[None, :]


def inclusion_exclusion_hit(spec, i, j, u, v):
    """P^{Hit} as the alternating sum over the nonempty subsets of the
    wedges in [x_i, x_j] of chains with cutoffs (-inf, b]."""
    xi, xj = spec.xs[i], spec.xs[j]
    inside = [w for w in spec.wedges if xi <= w[0] <= xj]
    out = np.zeros((u.size, v.size))
    for n in range(1, len(inside) + 1):
        for subset in combinations(inside, n):
            out += (-1.0) ** (n + 1) * _hit_chain(
                xi, xj, [a for a, _ in subset], [b for _, b in subset], u, v)
    return out


def _mp_heat(l, u, v):
    return mp.exp(-(u - v) ** 2 / (4 * l)) / mp.sqrt(4 * mp.pi * l)


_POINTS = np.array([-1.0, 0.5, 2.0])


class TestKilledChain:
    """P^{No hit} is the heat kernel killed at the wedges inside (x_i, x_j)
    times the end indicators 1{u > b}, 1{v > b}; P^{Hit} is heat minus it."""

    @pytest.mark.parametrize("b, points", [
        (-3.0, _POINTS), (-1.0, _POINTS), (0.0, _POINTS), (1.0, _POINTS),
        (0.0, np.array([10.0, 17.0, 20.0])),
    ], ids=["-3.0", "-1.0", "0.0", "1.0", "far_above"])
    def test_one_wedge_matches_mpmath(self, b, points):
        """hit is the mass of heat x heat over (-inf, b], no-hit the heat
        kernel minus it, both to rounding also far above b."""
        spec = KernelSpec("nw_fixed_point", 1.0, (-1.0, 1.0), (0.0, 0.0), ((0.0, b),))
        hit = hit_kernel(spec, 0, 1, points, points)
        no_hit = no_hit_kernel(spec, 0, 1, points, points)
        with mp.workdps(30):
            for p, u in enumerate(map(mp.mpf, points)):
                for q, v in enumerate(map(mp.mpf, points)):
                    ref = mp.quad(lambda z: _mp_heat(1, u, z) * _mp_heat(1, z, v),
                                  [-mp.inf, b])
                    assert abs(hit[p, q] - ref) < 1e-16
                    assert abs(no_hit[p, q] - (_mp_heat(2, u, v) - ref)) < 1e-16

    @pytest.mark.parametrize("wedges", [
        ((0.0, 0.2),),
        ((-1.0, 0.0), (0.3, -0.5)),
        ((-0.4, 0.3), (1.0, 0.8)),
        ((-1.0, 0.5), (0.0, -0.2), (1.0, 1.0)),
        ((-0.5, -0.3), (0.0, 0.4), (0.6, -0.1)),
        ((-2.0, 0.1), (0.2, 0.0), (3.0, 0.0)),
    ], ids=["one", "two_at_xi", "two_at_xj", "three_at_both_ends",
            "three_interior", "outside_window"])
    def test_matches_inclusion_exclusion(self, wedges):
        spec = KernelSpec("nw_fixed_point", 1.0, (-1.0, 1.0), (0.0, 0.0), wedges)
        ref = inclusion_exclusion_hit(spec, 0, 1, _POINTS, _POINTS)
        heat = heat_kernel(2.0, _POINTS[:, None], _POINTS[None, :])
        hit = hit_kernel(spec, 0, 1, _POINTS, _POINTS)
        no_hit = no_hit_kernel(spec, 0, 1, _POINTS, _POINTS)
        assert np.max(np.abs(hit - ref)) < 1e-15
        assert np.max(np.abs(no_hit - (heat - ref))) < 1e-15

    def test_no_hit_between_zero_and_heat(self):
        spec = KernelSpec("nw_fixed_point", 1.0, (-1.0, 1.0), (0.0, 0.0),
                          ((-0.6, -0.4), (0.1, 0.3), (0.7, -1.0)))
        u = np.linspace(-4.0, 4.0, 41)
        no_hit = no_hit_kernel(spec, 0, 1, u, u)
        heat = heat_kernel(2.0, u[:, None], u[None, :])
        assert np.all(no_hit >= 0.0)
        assert np.all(no_hit <= heat)


class TestBridgeDensity:
    def test_free_case_is_heat(self):
        spec = KernelSpec("nw_fixed_point", 1.0, (-1.0, 1.0), (1.0, 1.2), ((5.0, 0.0),))
        val = scattering.constrained_bridge_density(spec, 0, 1)
        assert abs(val - heat_kernel(2.0, 1.0, 1.2)) < 1e-14

    def test_monte_carlo_oracle_single_wedge(self, spec_single):
        quad = scattering.constrained_bridge_density(spec_single, 0, 1)
        est, se = mc_bridge_density(spec_single, 0, 1, 100_000, seed=11)
        assert abs(quad - est) < 3.0 * se

    def test_monte_carlo_oracle_with_intermediate(self):
        spec = KernelSpec("nw_fixed_point", 1.0, (-1.0, 0.0, 1.0), (0.6, 0.8, 1.0),
                          ((-0.5, -0.3), (0.5, 0.1)))
        quad = scattering.constrained_bridge_density(spec, 0, 2)
        est, se = mc_bridge_density(spec, 0, 2, 100_000, seed=5)
        assert abs(quad - est) < 3.0 * se

    def test_impossible_constraint(self):
        spec = KernelSpec("nw_fixed_point", 1.0, (-1.0, 1.0), (1.0, 1.2), ((0.0, 9.0),))
        assert scattering.constrained_bridge_density(spec, 0, 1) < 1e-12

    def test_density_bounded_by_heat(self, spec_single):
        val = scattering.constrained_bridge_density(spec_single, 0, 1)
        assert 0.0 < val <= heat_kernel(2.0, 1.0, 1.2)


class TestSmallTimeLimits:
    def test_rk_limit_decreasing(self, spec_single):
        rows = scattering.rk_limit_check(spec_single, (0.1, 0.05, 0.02, 0.01))
        errs = [row["max_err"] for row in rows]
        assert all(np.diff(errs) < 0)
        assert errs[-1] < 5e-3
        assert all(np.max(np.abs(np.tril(row["q"], -1))) < 1e-8 for row in rows)

    def test_offdiagonal_sign(self, spec_single):
        rows = scattering.rk_limit_check(spec_single, (0.02,))
        q = rows[0]["q"]
        assert q[0, 1] <= 0.0

    def test_decay_exponent_fit(self):
        c, r2 = scattering.t0_kernel_decay_check(2.0, 0.0, -1.0, 1.0)
        assert c > 0 and r2 > 0.99

    def test_no_decay_inside(self):
        c, _ = scattering.t0_kernel_decay_check(0.0, 0.0, -1.0, 1.0)
        assert abs(c) < 0.05

    def test_decay_grows_with_separation(self):
        c15, _ = scattering.t0_kernel_decay_check(1.5, 0.0, -1.0, 1.0)
        c3, _ = scattering.t0_kernel_decay_check(3.0, 0.0, -1.0, 1.0)
        assert 0 < c15 < c3


class TestInitialDataDeterminant:
    """As t -> 0 the determinant tends to prod_i 1{r_i >= h0(x_i)}, h0 the
    wedge profile; at a wedge (a, b) the one-point value is
    F_GUE(t^(-1/3) (r - b)), so t = 1e-3 reads the limit to 1e-8 once
    |r - b| t^(-1/3) >= 5."""

    @staticmethod
    def det(wedges, xs, rs):
        spec = KernelSpec("nw_fixed_point", 1e-3, xs, rs, wedges)
        return fredholm.det_one_minus(fredholm.assemble(spec, 64))

    def test_generic_levels(self, spec_single):
        s = spec_single
        assert abs(self.det(s.wedges, s.xs, s.rs) - 1.0) < 1e-8

    def test_observation_below_wedge(self):
        assert abs(self.det(((0.0, 0.5),), (-1.0, 0.0, 1.0), (1.0, -0.2, 1.2))) < 1e-8

    def test_observation_above_wedge(self):
        # r = 0.7 against b = 0.5 is only 2 t^(-1/3) above: 1 - 1.1e-4
        assert abs(self.det(((0.0, 0.5),), (-1.0, 0.0, 1.0), (1.0, 1.0, 1.2)) - 1.0) < 1e-8


class TestPathIntegral:

    def test_one_point_reduces_to_gue(self):
        for (t, x1, r1) in [(1.0, 0.0, 0.5), (2.0, 0.3, 1.0)]:
            val = scattering.path_integral_determinant(t, (x1,), (r1,))
            s = r1 / np.cbrt(t) + x1 * x1 / np.cbrt(t ** 4)
            assert abs(val - float(np.exp(painleve.log_f(s)[0]))) < 1e-6

    def test_two_point_matches_extended(self):
        for xs, rs, t in [((-0.3, 0.4), (0.5, 0.8), 1.0),
                          ((-0.5, 0.2), (0.0, 0.3), 1.0)]:
            val = scattering.path_integral_determinant(t, xs, rs)
            spec = KernelSpec("nw_fixed_point", t, xs, rs, ((0.0, 0.0),))
            ref = fredholm.det_one_minus(fredholm.assemble(spec, 64))
            assert abs(val - ref) < 1e-6

    def test_released_constraint(self):
        val = scattering.path_integral_determinant(1.0, (-0.3, 0.4), (8.0, 0.8))
        spec = KernelSpec("nw_fixed_point", 1.0, (0.4,), (0.8,), ((0.0, 0.0),))
        ref = fredholm.det_one_minus(fredholm.assemble(spec, 64))
        assert abs(val - ref) < 1e-5

    def test_monotone_in_levels(self):
        lo = scattering.path_integral_determinant(1.0, (-0.3, 0.4), (0.5, 0.8))
        hi = scattering.path_integral_determinant(1.0, (-0.3, 0.4), (0.9, 0.8))
        assert hi >= lo


class TestTwoWedgeLimit:
    def test_rk_limit_with_two_wedges(self):
        spec = KernelSpec("nw_fixed_point", 1.0, (-1.0, 1.0), (0.8, 1.0),
                          ((-0.4, -0.2), (0.5, 0.0)))
        rows = scattering.rk_limit_check(spec, (0.05, 0.02, 0.01))
        errs = [row["max_err"] for row in rows]
        assert all(np.diff(errs) < 0) and errs[-1] < 5e-3
