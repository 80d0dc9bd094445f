import tracemalloc

import numpy as np
import pytest

from kpdet import fredholm, painleve
from kpdet.kernels import KernelSpec
from kpdet.specfun import airy_ai


@pytest.fixture(scope="module")
def hm():
    return painleve.hastings_mcleod()


def f_gue(s):
    return np.exp(painleve.log_f(s)[0])


def f_goe(s):
    return np.exp(painleve.log_f(s)[1])


def gue_det(r, n=64):
    spec = KernelSpec("nw_fixed_point", 1.0, (0.0,), (float(r),), ((0.0, 0.0),))
    return fredholm.det_one_minus(fredholm.assemble(spec, n))


def goe_det(r, n=64):
    # the flat fixed point at t = 1 and level r is F_GOE(4^(1/3) r)
    spec = KernelSpec("flat_fixed_point", 1.0, (0.0,), (float(r) / np.cbrt(4.0),))
    return fredholm.det_one_minus(fredholm.assemble(spec, n))


class TestHastingsMcleod:
    def test_right_boundary(self, hm):
        assert abs(hm.q(8.0) + airy_ai(8.0)) < 1e-8

    def test_left_asymptote(self, hm):
        assert abs(hm.q(-8.0) + 2.0) < 5e-3

    def test_value_at_zero(self, hm):
        assert abs(hm.q(0.0) + 0.3670615) < 1e-5

    def test_value_at_zero_independent_oracle(self, hm):
        # psi = -q^2 turns q into the curvature of the determinant route:
        # q(0) = -sqrt(-(d/ds)^2 log F_GUE(0)) with F_GUE from Fredholm dets
        h = 5e-3
        ld = [np.log(gue_det(r)) for r in (-2 * h, -h, 0.0, h, 2 * h)]
        d2 = (-ld[0] + 16 * ld[1] - 30 * ld[2] + 16 * ld[3] - ld[4]) / (12 * h * h)
        assert abs(float(hm.q(0.0)) + np.sqrt(-d2)) < 1e-5

    def test_ode_residual(self, hm):
        # q'' - s q - 2 q^3 from the exact derivative of the series, off
        # the collocation points, on the interval F is read from (the
        # boundary rows replace the equation at the two ends)
        s = np.linspace(hm.left + 1.0, hm.right - 1.0, 4001)
        q = hm.q(s)
        assert np.max(np.abs(hm.q.deriv(2)(s) - s * q - 2 * q ** 3)) < 1e-12

    def test_series_resolved(self):
        # every interval in use is resolved to rounding at DEGREE; on a far
        # longer one the trailing coefficients refuse the series
        for L in (10.0, 16.0, 24.0):
            coef = painleve.hastings_mcleod(L=L).q.coef
            assert coef.size == painleve.DEGREE + 1
            assert np.max(np.abs(coef[-8:])) < 2e-15
        with pytest.raises(FloatingPointError, match="trailing coefficients"):
            painleve.hastings_mcleod(L=60.0)

    def test_left_end_does_not_reach_interior(self):
        # the two-term left asymptote is off by ~1e-6 at -10; the error
        # decays like exp(-(2 sqrt 2 / 3) |s|^(3/2)) inward, so L = 10 and
        # the default L = 16 agree to rounding on [-5, R - 1]
        s = np.linspace(-5.0, 9.0, 1001)
        short = painleve.hastings_mcleod(L=10.0)
        assert np.max(np.abs(short.q(s) - painleve.hastings_mcleod().q(s))) < 1e-13

    def test_strictly_negative(self, hm):
        assert np.all(hm.q(np.linspace(hm.left, hm.right, 4001)) < 0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            painleve.hastings_mcleod(L=4.0)

    def test_memoized_on_interval(self):
        hm = painleve.hastings_mcleod()
        assert painleve.hastings_mcleod(16.0) is hm
        assert painleve.hastings_mcleod(L=16) is hm
        assert (hm.left, hm.right) == (-16.0, 10.0)
        assert painleve.hastings_mcleod(L=10.0) is not hm
        # a failed solve is not remembered: it fails again every time
        for _ in range(2):
            with pytest.raises(FloatingPointError, match="trailing coefficients"):
                painleve.hastings_mcleod(L=60.0)


class TestDistributions:
    def test_gue_right_tail(self):
        assert 1.0 - float(f_gue(4.0)) < 1e-4

    def test_gue_cross_oracle(self):
        assert abs(float(f_gue(0.0)) - gue_det(0.0, 128)) < 1e-13

    def test_gue_lower_tail_cubic(self):
        # -log F ~ |s|^3/12 with small corrections at s = -6
        val = -float(painleve.log_f(-6.0)[0])
        assert abs(val - 18.0) < 0.15 * 18.0

    def test_goe_right_tail(self):
        assert 1.0 - float(f_goe(4.0)) < 1e-3

    def test_goe_lower_tail_cubic(self):
        # -log F_GOE(s) = |s|^3/24 + |s|^{3/2}/(3 sqrt 2) + smaller terms;
        # the bare cubic misses by ~40% at s = -6, the two-term form works
        val = -float(painleve.log_f(-6.0)[1])
        two_term = 9.0 + 6.0 ** 1.5 / (3.0 * np.sqrt(2.0))
        assert abs(val - two_term) < 0.15 * 9.0

    def test_goe_matches_flat_determinant(self):
        assert abs(float(f_goe(0.0)) - goe_det(0.0, 128)) < 1e-13

    def test_monotonicity_and_limits(self, hm):
        s = np.linspace(hm.left + 1.0, hm.right - 1.0, 400)
        fg = f_gue(s)
        fo = f_goe(s)
        # strictly increasing until the CDF saturates at double precision
        strict = s[:-1] < 6.0
        assert np.all(np.diff(fg)[strict] > 0) and np.all(np.diff(fo)[strict] > 0)
        assert np.all(np.diff(fg) > -1e-15) and np.all(np.diff(fo) > -1e-15)
        assert fg[0] < 1e-12 and fo[0] < 1e-9
        assert fg[-1] > 1.0 - 1e-4 and fo[-1] > 1.0 - 1e-3

    def test_cross_oracle_uniform(self):
        # the Nystrom determinants at n = 128 are exact to rounding here
        for r in (-5.0, -3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0):
            assert abs(float(f_gue(r)) - gue_det(r, 128)) < 1e-13
            assert abs(float(f_goe(r)) - goe_det(r, 128)) < 1e-13

    def test_many_points_in_bounded_memory(self):
        # the points go through in blocks, not as one (9412, 194) grid
        s = np.linspace(-15.0, 9.0, 9412)
        painleve.log_f(s[:10])
        tracemalloc.start()
        try:
            painleve.log_f(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_out_of_grid(self, hm):
        with pytest.raises(painleve.OutOfGridError):
            painleve.log_f(hm.left)


def selfsimilar_ode_residuals(hm, lo=-5.0, hi=5.0):
    """Sup-norm residuals of the two self-similar ODE reductions on [lo, hi].

    GUE: psi''' + 12 psi psi' - 4 r psi' - 2 psi = 0 with psi = -q^2.
    GOE: psi''' + 12 psi psi' - r psi' - 2 psi = 0 with psi = (q' - q^2)/2.
    Derivatives are the exact derivatives of the Chebyshev series.
    """
    r = np.linspace(lo, hi, 2001)
    sups = []
    for psi, c in ((-hm.q ** 2, 4.0), (0.5 * (hm.q.deriv() - hm.q ** 2), 1.0)):
        p, p1 = psi(r), psi.deriv()(r)
        res = psi.deriv(3)(r) + 12 * p * p1 - c * r * p1 - 2 * p
        sups.append(float(np.max(np.abs(res))))
    return tuple(sups)


class TestSelfSimilarReductions:
    def test_residuals_small(self, hm):
        gue, goe = selfsimilar_ode_residuals(hm)
        assert gue < 1e-11 and goe < 1e-11
