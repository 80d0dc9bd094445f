import tracemalloc

import mpmath as mp
import numpy as np
import pytest
import scipy.special as sp

from kpdet import specfun


class TestAiry:
    def test_value_at_zero(self):
        # Maclaurin oracle: Ai(0) = 3^(-2/3)/Gamma(2/3)
        assert abs(specfun.airy_ai(0.0) - 0.35502805388781723) < 1e-15

    def test_decay_at_ten(self):
        assert specfun.airy_ai(10.0) < 1e-9

    def test_first_zero(self):
        assert abs(specfun.airy_ai(-2.3381074104597670)) < 1e-8

    def test_abs_error_core(self):
        x = np.linspace(-12.0, 12.0, 6001)
        ref = sp.airy(x)[0]
        assert np.max(np.abs(specfun.airy_ai(x) - ref)) < 1e-13

    def test_oscillatory_tail(self):
        x = np.linspace(-60.0, -12.0, 2000)
        ref = sp.airy(x)[0]
        assert np.max(np.abs(specfun.airy_ai(x) - ref)) < 1e-12

    def test_monotone_decay_right(self):
        x = np.linspace(1.0, 12.0, 500)
        v = specfun.airy_ai(x)
        assert np.all(np.diff(v) < 0)

    def test_airy_ode_residual(self):
        # 5-point second difference, h = 1e-3.  The roundoff floor of the
        # stencil is sum|c| * eps ~ 5e-10, so the bound sits just above it.
        h = 1e-3
        x = np.linspace(-10, 10, 2001)
        offs = np.array([-2, -1, 0, 1, 2]) * h
        c = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12 * h * h)
        vals = np.stack([specfun.airy_ai(x + o) for o in offs])
        d2 = np.tensordot(c, vals, axes=1)
        assert np.max(np.abs(d2 - x * specfun.airy_ai(x))) < 5e-9

    def test_exp_bound_positive(self):
        x = np.linspace(0.0, 12.0, 200)
        bound = np.exp(-(2.0 / 3.0) * x ** 1.5)
        assert np.all(specfun.airy_ai(x) <= bound + 1e-15)

    def test_log_branch(self):
        x = np.linspace(9.0, 300.0, 400)
        la, sg = specfun.airy_ai_log_abs(x)
        ref = np.array([float(np.log(sp.airy(min(v, 103.0))[0])) if v < 103
                        else np.nan for v in x])
        mask = x < 103
        assert np.all(sg[mask] == 1.0)
        assert np.max(np.abs(la[mask] - ref[mask])) < 1e-12
        assert np.all(np.isfinite(la))


class TestAiryPrime:
    def test_value_at_zero(self):
        assert abs(specfun.airy_ai_prime(0.0) + 0.25881940379280680) < 1e-14

    def test_decay(self):
        assert abs(specfun.airy_ai_prime(10.0)) < 1e-8

    def test_central_difference_consistency(self):
        h = 1e-5
        fd = (specfun.airy_ai(1.0 + h) - specfun.airy_ai(1.0 - h)) / (2 * h)
        assert abs(fd - specfun.airy_ai_prime(1.0)) < 1e-9

    def test_abs_error_core(self):
        x = np.linspace(-12.0, 12.0, 4001)
        assert np.max(np.abs(specfun.airy_ai_prime(x) - sp.airy(x)[1])) < 1e-12


class TestLogGamma:
    def test_gamma_one(self):
        assert abs(specfun.log_gamma(1.0)) < 1e-14

    def test_half(self):
        assert abs(specfun.log_gamma(0.5) - np.log(np.sqrt(np.pi))) < 1e-13

    def test_reflection_point(self):
        z = 0.3 + 0.7j
        lhs = np.exp(specfun.log_gamma(z) + specfun.log_gamma(1 - z))
        assert abs(lhs - np.pi / np.sin(np.pi * z)) < 1e-11

    def test_recurrence_and_reflection_grid(self):
        rng = np.random.default_rng(7)
        z = rng.uniform(-9, 9, 100) + 1j * rng.uniform(-40, 40, 100)
        z = z[np.abs(z.imag) > 1e-3]
        rec = np.exp(specfun.log_gamma(z + 1)) - z * np.exp(specfun.log_gamma(z))
        scale = np.abs(np.exp(specfun.log_gamma(z + 1)))
        assert np.max(np.abs(rec) / scale) < 1e-11
        refl = (np.exp(specfun.log_gamma(z) + specfun.log_gamma(1 - z))
                - np.pi / np.sin(np.pi * z))
        refl_scale = np.abs(np.pi / np.sin(np.pi * z))
        assert np.max(np.abs(refl) / refl_scale) < 1e-11

    def test_relative_error_strip(self):
        rng = np.random.default_rng(1)
        z = rng.uniform(-10, 10, 500) + 1j * rng.uniform(-50, 50, 500)
        z = z[np.abs(z.imag) > 1e-6]
        lg = specfun.log_gamma(z)
        ref = sp.loggamma(z)
        rel = np.abs(lg - ref) / np.maximum(np.abs(ref), 1.0)
        assert np.max(rel) < 1e-12

    def test_pole_error(self):
        with pytest.raises(specfun.GammaPoleError):
            specfun.log_gamma(0.0)
        with pytest.raises(specfun.GammaPoleError):
            specfun.log_gamma(-3.0 + 1e-15j)


def _mp_map(fn, points):
    """fn at each point at 30 significant digits, rounded to complex."""
    with mp.workdps(30):
        return np.array([complex(fn(mp.mpc(complex(p)))) for p in points])


class TestMpmathOracles:
    """30-digit mpmath references, sharing no code with specfun or scipy,
    held to the bounds the docstrings state."""

    X_CORE = np.linspace(-12.0, 12.0, 241)

    def test_airy_ai(self):
        ref = _mp_map(mp.airyai, self.X_CORE).real
        assert np.max(np.abs(specfun.airy_ai(self.X_CORE) - ref)) < 1e-13

    def test_airy_ai_prime(self):
        ref = _mp_map(lambda x: mp.airyai(x, derivative=1), self.X_CORE).real
        assert np.max(np.abs(specfun.airy_ai_prime(self.X_CORE) - ref)) < 1e-13

    def test_airy_ai_log_abs(self):
        # x >= 0 out to the far Nystrom nodes, where Ai underflows
        x = np.concatenate([np.linspace(0.0, 12.0, 49), np.geomspace(12.0, 1e6, 60)])
        ref = _mp_map(lambda v: mp.log(mp.airyai(v.real)), x).real
        la, sg = specfun.airy_ai_log_abs(x)
        assert np.all(sg == 1.0)
        assert np.max(np.abs(la - ref) / np.maximum(np.abs(ref), 1.0)) < 1e-13
        # x < 0: the sign and the modulus give back Ai
        neg = self.X_CORE[self.X_CORE < 0]
        la, sg = specfun.airy_ai_log_abs(neg)
        ref = _mp_map(mp.airyai, neg).real
        assert np.all(sg == np.sign(ref))
        assert np.max(np.abs(sg * np.exp(la) - ref)) < 1e-13

    # each core/asymptotic seam, from both sides
    X_SEAMS = np.array([9.0 - 1e-9, 9.0 + 1e-9, -14.0 - 1e-9, -14.0 + 1e-9])

    def test_airy_seams(self):
        # measured 3.6e-15 (Ai) and 1.4e-14 (Ai', at -14 - 1e-9)
        ref = _mp_map(mp.airyai, self.X_SEAMS).real
        assert np.max(np.abs(specfun.airy_ai(self.X_SEAMS) / ref - 1.0)) < 1e-14
        ref = _mp_map(lambda x: mp.airyai(x, derivative=1), self.X_SEAMS).real
        assert np.max(np.abs(specfun.airy_ai_prime(self.X_SEAMS) / ref - 1.0)) < 5e-14

    def test_airy_log_abs_seams(self):
        # measured 2.2e-15
        ref = _mp_map(lambda v: mp.log(abs(mp.airyai(v.real))), self.X_SEAMS).real
        la, sg = specfun.airy_ai_log_abs(self.X_SEAMS)
        assert np.all(sg == [1.0, 1.0, -1.0, -1.0])
        assert np.max(np.abs(la - ref) / np.maximum(np.abs(ref), 1.0)) < 1e-14

    def test_airy_ai_prime_right_relative(self):
        # the Poincare branch of Ai'; measured 6.0e-14, the rounding of
        # exp(-zeta) at zeta up to 310
        x = np.linspace(9.0, 60.0, 401)[1:]
        ref = _mp_map(lambda v: mp.airyai(v, derivative=1), x).real
        assert np.max(np.abs(specfun.airy_ai_prime(x) / ref - 1.0)) < 1.5e-13

    def test_log_gamma_strip(self):
        # Re z in [-10, 10], |Im z| <= 50: both edges in Im, just off the
        # branch cut, random interior points and the positive real axis
        re = np.linspace(-9.95, 9.95, 100)
        rng = np.random.default_rng(11)
        z = np.concatenate([re + 1e-3j, re - 1e-3j, re + 50j, re - 50j,
                            rng.uniform(-10, 10, 200) + 1j * rng.uniform(-50, 50, 200),
                            np.linspace(0.05, 10.0, 40) + 0j])
        ref = _mp_map(mp.loggamma, z)
        rel = np.abs(specfun.log_gamma(z) - ref) / np.maximum(np.abs(ref), 1.0)
        assert np.max(rel) < 1e-12


AIRY_FUNCTIONS = [specfun.airy_ai, specfun.airy_ai_prime,
                  lambda x: specfun.airy_ai_log_abs(x)[0],
                  lambda x: specfun.airy_ai_log_abs(x)[1]]
AIRY_IDS = ["ai", "ai_prime", "log_abs", "sign"]


class TestAiryContract:
    """Shapes and working memory of the three Airy entry points."""

    @pytest.mark.parametrize("fn", AIRY_FUNCTIONS, ids=AIRY_IDS)
    def test_scalar_in_scalar_out(self, fn):
        for x in (-20.0, 0.5, 30.0):
            v = fn(x)
            assert np.ndim(v) == 0
            assert v == fn(np.array([x]))[0]

    @pytest.mark.parametrize("fn", AIRY_FUNCTIONS, ids=AIRY_IDS)
    @pytest.mark.parametrize("shape", [(0,), (0, 3), (4, 6), (2, 3, 4)])
    def test_shape_kept(self, fn, shape):
        # a non-contiguous view, with points on every branch when it has any
        x = np.linspace(-20.0, 30.0, int(np.prod(shape))).reshape(shape)[..., ::-1]
        v = fn(x)
        assert v.shape == shape
        assert np.array_equal(v.ravel(), fn(x.ravel()))

    @pytest.mark.parametrize("fn", AIRY_FUNCTIONS[:3], ids=AIRY_IDS[:3])
    @pytest.mark.parametrize("lo, hi", [(-20.0, 40.0), (-14.0, 9.0), (9.0, 60.0)],
                             ids=["all", "core", "right"])
    def test_peak_memory(self, fn, lo, hi):
        # at most 8 arrays of the input's size at once, whatever the series
        # order; measured 4.0 (all), 6.4 (core) and 6.4 (right)
        n = 100_000
        x = np.linspace(lo, hi, n)
        fn(x)
        tracemalloc.start()
        try:
            fn(x)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * x.nbytes
