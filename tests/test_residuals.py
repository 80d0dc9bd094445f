from dataclasses import replace

import numpy as np
import pytest

from kpdet import fields, painleve, residuals
from kpdet.residuals import GridField


@pytest.fixture(scope="module")
def hm():
    return painleve.hastings_mcleod()


def similarity_field(hm, h, base=(1.0, 0.2, 0.5), dims=(5, 5, 7)):
    """log F of the GUE similarity solution on a lattice centred at base."""
    t0, x0, r0 = base
    mt, mx, mr = dims[0] // 2, dims[1] // 2, dims[2] // 2
    return fields.similarity_gue_field(hm, t0 - mt * h, x0 - mx * h, r0 - mr * h,
                                       h, h, h, dims)


def hirota(fld):
    """Hirota residual of F = exp(fld.values)."""
    return residuals.hirota_residual(replace(fld, values=np.exp(fld.values)))


class TestHirota:
    def test_similarity_solution(self, hm):
        rep = hirota(similarity_field(hm, 0.02))
        assert rep.normalized_sup < 1e-3

    def test_step_halving(self, hm):
        r1 = hirota(similarity_field(hm, 0.02))
        r2 = hirota(similarity_field(hm, 0.01))
        assert r1.normalized_sup / r2.normalized_sup >= 3.0

    def test_constant_field(self):
        fld = GridField(1, 0, 0, 0.02, 0.02, 0.02, np.full((5, 5, 7), 0.7))
        assert residuals.hirota_residual(fld).residual_sup < 1e-9

    def test_flat_field_kdv_reduction(self, hm):
        # x-independent flat-data field: x-terms vanish identically
        h = 0.02
        t = 1.0 + h * (np.arange(5) - 2)
        r = 0.3 + h * (np.arange(7) - 3)
        s = np.cbrt(4.0 / t)[:, None] * r[None, :]
        lf = painleve.log_f_goe(s.ravel(), hm).reshape(5, 7)
        vals = np.broadcast_to(np.exp(lf)[:, None, :], (5, 5, 7)).copy()
        fld = GridField(t[0], 0.0, r[0], h, h, h, vals)
        rep = residuals.hirota_residual(fld)
        assert rep.normalized_sup < 1e-3
        assert rep.term_magnitudes[5] < 1e-12 and rep.term_magnitudes[6] < 1e-12

    def test_one_two_three_invariance(self, hm):
        # the identity holds at every scale point
        for t0 in (0.5, 1.0, 2.0):
            rep = hirota(similarity_field(hm, 0.02, base=(t0, 0.2, 0.5)))
            assert rep.normalized_sup < 2e-3

    def test_report_invariant(self, hm):
        rep = hirota(similarity_field(hm, 0.02))
        assert rep.residual_sup <= sum(rep.term_magnitudes) + 1e-15

    def test_stencil_error(self):
        with pytest.raises(residuals.StencilError):
            residuals.hirota_residual(GridField(1, 0, 0, .1, .1, .1,
                                                np.zeros((3, 5, 7))))


class TestScalarKP:
    def test_similarity_solution(self, hm):
        fld = similarity_field(hm, 0.02, dims=(3, 3, 7))
        assert residuals.kp_scalar_residual(fld).normalized_sup < 5e-3

    def test_quadratic_in_r_exact(self):
        r = np.arange(7) * 0.02
        g = np.broadcast_to((3 * r * r + 2 * r + 1)[None, None, :], (3, 3, 7)).copy()
        fld = GridField(1, 0, 0, 0.02, 0.02, 0.02, g)
        assert residuals.kp_scalar_residual(fld).residual_sup < 1e-9

    def test_stencil_error(self):
        with pytest.raises(residuals.StencilError):
            residuals.kp_scalar_residual(GridField(1, 0, 0, .1, .1, .1,
                                                   np.zeros((3, 3, 5))))


class TestMatrixKP:
    def test_one_point_collapse(self):
        # at n = 1 the matrix expression evaluates identically to the scalar
        # one built from the same Q samples (commutator = 0)
        rng = np.random.default_rng(0)
        ht = hy = ha = 0.02
        tg = 1.0 + ht * (np.arange(3) - 1)
        yg = hy * (np.arange(3) - 1)
        ag = ha * (np.arange(9) - 4)

        def qfun(t, y, a):
            return np.array([[np.sin(0.3 * t + 0.2 * y + 0.7 * a)
                              + 0.1 * a * a * t]])

        big = np.array([[[qfun(t, y, a) for a in ag] for y in yg] for t in tg])
        qf = (big[:, :, 2:] - big[:, :, :-2]) / (2 * ha)
        rep = residuals.matrix_kp_residual(qf, big[:, :, 1:-1], ht, hy, ha)
        # scalar evaluation with the same samples
        q = qf[:, :, :, 0, 0]
        ca = q.shape[2] // 2
        dt_q = (q[2, 1, ca] - q[0, 1, ca]) / (2 * ht)
        da_q = (q[1, 1, ca + 1] - q[1, 1, ca - 1]) / (2 * ha)
        da3_q = (-0.5 * q[1, 1, ca - 2] + q[1, 1, ca - 1]
                 - q[1, 1, ca + 1] + 0.5 * q[1, 1, ca + 2]) / ha ** 3
        bigq = big[:, :, 1:-1, 0, 0]
        dy2 = (bigq[1, 2, ca] - 2 * bigq[1, 1, ca] + bigq[1, 0, ca]) / hy ** 2
        scalar = dt_q + q[1, 1, ca] * da_q + da3_q / 12 + 0.25 * dy2
        total = rep.residual_sup
        assert abs(total - abs(scalar)) < 1e-10
        # commutator term vanishes identically at n = 1
        assert rep.term_magnitudes[4] == 0.0

    def test_rank_one_trivial_at_n1(self):
        q = np.zeros((5, 1, 1))
        q[:, 0, 0] = np.linspace(0.3, 0.5, 5)
        ratio, rel = residuals.rank_one_and_trace_check(q, 0.02)
        assert ratio == 0.0 and rel == 0.0


class TestCylindricalKdV:
    def test_constant_field_closed_form(self):
        # phi = const: only the phi/(2t) term survives; with G quadratic in r
        r = np.arange(9) * 0.02
        g = np.broadcast_to((0.4 * r * r)[None, None, :], (3, 1, 9)).copy()
        fld = GridField(1.0 - 0.02, 0.0, 0.0, 0.02, 0.0, 0.02, g)
        rep = residuals.cylindrical_kdv_residual(fld)
        assert abs(rep.residual_sup - 0.8 / 2.0) < 1e-9

    def test_t_range_guard(self):
        g = np.zeros((3, 1, 9))
        with pytest.raises(ValueError):
            residuals.cylindrical_kdv_residual(GridField(0.3, 0, 0, .02, 0, .02, g))


class TestTailFit:
    def test_synthetic_cubic(self):
        r = np.arange(-7.0, -4.9, 0.25)
        slope, r2 = residuals.tail_slope_fit(r, -np.abs(r) ** 3 / 6.0)
        assert abs(slope - 1.0 / 6.0) < 1e-12 and r2 > 1 - 1e-12

    def test_insufficient_range(self):
        with pytest.raises(residuals.InsufficientRangeError):
            residuals.tail_slope_fit(np.array([-3.0, -2.0]), np.array([-1., -0.5]))


class TestStepHalving:
    def test_scalar_kp_halving(self, hm):
        def at(h):
            fld = similarity_field(hm, h, dims=(3, 3, 7))
            return residuals.kp_scalar_residual(fld).normalized_sup
        assert at(0.02) / at(0.01) >= 3.0
