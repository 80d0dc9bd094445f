import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.interpolate import CubicSpline

from kpdet import fields, kpsolver, painleve


@pytest.fixture(scope="module")
def closure():
    """The solve-kp closure report: the narrow-wedge window from t = 1 to 1.1."""
    return kpsolver.evolve_and_compare(fields.phi_window_narrow_wedge, 1.0, 1.1)


def closure_run(dt, n_steps):
    """(solver, phi0, phi) of the solve-kp closure field embedded as
    evolve_and_compare embeds it (the window at t = 1, tapered in the pads
    of its 64 x 512 box), after n_steps of dt."""
    solver = kpsolver.KPSolver((-14.0, 9.5), (-4.5, 4.5), 512, 64, dt)
    taper = (kpsolver.smooth_window((solver.r + 14.0) / 4.5)
             * kpsolver.smooth_window((9.5 - solver.r) / 2.625))
    phi0 = fields.phi_window_narrow_wedge(1.0, solver.x, solver.r) * taper
    return solver, phi0, solver.evolve(phi0, n_steps)


def invariants(solver, phi):
    """(int phi, int phi^2) over the solver's periodic box."""
    cell = (solver.len_r / solver.n_r) * (solver.len_x / solver.n_x)
    return float(np.sum(phi) * cell), float(np.sum(phi * phi) * cell)


def periodic_shift(r, shift, box):
    lo, hi = box
    return (r - shift - lo) % (hi - lo) + lo


def etd_oracle(lam, dt):
    """(e^lam, e^{lam/2}, q_half, f1, f2, f3) from their closed forms in mpmath."""
    lam = mpmath.mpc(lam)
    if lam == 0:
        return [1, 1, dt / 2, dt / 6, dt / 6, dt / 6]
    e, eh = mpmath.exp(lam), mpmath.exp(lam / 2)
    return [e, eh, dt * (eh - 1) / lam,
            dt * (-4 - lam + e * (4 - 3 * lam + lam ** 2)) / lam ** 3,
            dt * (2 + lam + e * (lam - 2)) / lam ** 3,
            dt * (-4 - 3 * lam - lam ** 2 + e * (4 - lam)) / lam ** 3]


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_etd_coeffs_match_closed_forms(sign):
    # the linear phases of KP-II are imaginary: lam = i s; the points near
    # |lam| = 1 straddle the switch from Taylor series to closed forms, and
    # s = 0.7 - 0.7i gives lam = +-(0.7 + 0.7i)
    s_values = np.array([0.0, 1e-8, 1e-3, 0.5, 0.999, 1.0, 1.011, 0.7 - 0.7j,
                         3.0, 53.0, 200.0])
    dt = 0.25
    got = kpsolver._etd_coeffs(1j * sign * s_values, dt)
    # the closed forms cancel by lam^3 (24 digits at lam = 1e-8 i), so the
    # oracle works at 60 digits to keep 30
    with mpmath.workdps(60):
        for i, s in enumerate(s_values):
            want = etd_oracle(1j * sign * s, mpmath.mpf(dt))
            for name, g, w in zip(("e_full", "e_half", "q_half", "f1", "f2", "f3"),
                                  got, want):
                w = complex(w)
                assert abs(g[i] - w) <= 1e-14 * abs(w), (name, sign * s, g[i], w)


@pytest.mark.parametrize("n_x", [1, 4, 5, 64])
def test_cosine_pair_is_rfft2_of_even_field(n_x):
    # the stepper's transforms act on the rows x_0 .. x_{n_x // 2} of a field
    # even in x; forward is the rows kx >= 0 of its rfft2, inverse undoes it
    solver = kpsolver.KPSolver((-10.0, 10.0), (-1.0, 1.0), 32, n_x, 1e-4)
    half = np.random.default_rng(n_x).normal(size=(n_x // 2 + 1, 32))
    full = half[np.minimum(np.arange(n_x), n_x - np.arange(n_x))]
    want = np.fft.rfft2(full)[: n_x // 2 + 1]
    got = solver._forward(half)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    assert np.max(np.abs(solver._inverse(got) - half)) <= 1e-14 * np.max(np.abs(half))


def full_spectrum_reference(solver):
    """(nonlinear, step) of the same ETDRK4 scheme on the full fft2 spectrum.

    Full-circle contour coefficients evaluated directly on every (kx, kr),
    and the anchored-dr^{-1} correction built as a physical-space array,
    less its kr = 0 diagonal lam0 = (kx^2/4) mean(pseudo_ramp), which the
    linear phase carries.
    """
    n_x, n_r, dt = solver.n_x, solver.n_r, solver.dt
    kr = 2.0 * np.pi * np.fft.fftfreq(n_r, d=solver.len_r / n_r)[None, :]
    kx = 2.0 * np.pi * np.fft.fftfreq(n_x, d=solver.len_x / n_x)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        lin = 1j * kr ** 3 / 12.0 - 1j * kx ** 2 / (4.0 * kr)
        inv_ikr = np.where(kr != 0, 1.0 / (1j * kr), 0.0)
    lam0 = kx[:, 0] ** 2 / 4.0 * np.mean(solver.pseudo_ramp)
    lin[:, 0] = lam0
    lr = dt * lin[..., None] + np.exp(2j * np.pi * (np.arange(64) + 0.5) / 64)
    e_lr = np.exp(lr)
    e_full, e_half = np.exp(dt * lin), np.exp(dt * lin / 2.0)
    q = dt * np.mean((np.exp(lr / 2.0) - 1.0) / lr, axis=-1)
    f1 = dt * np.mean((-4.0 - lr + e_lr * (4.0 - 3.0 * lr + lr ** 2)) / lr ** 3, axis=-1)
    f2 = dt * np.mean((2.0 + lr + e_lr * (lr - 2.0)) / lr ** 3, axis=-1)
    f3 = dt * np.mean((-4.0 - 3.0 * lr - lr ** 2 + e_lr * (4.0 - lr)) / lr ** 3, axis=-1)
    dealias = ((np.abs(kx) <= (2.0 / 3.0) * np.max(np.abs(kx))) | (n_x <= 3)) & (
        np.abs(kr) <= (2.0 / 3.0) * np.max(np.abs(kr)))

    def nonlinear(v):
        phi = np.fft.ifft2(v).real
        nl = -0.5j * kr * np.fft.fft2(phi * phi) * dealias
        pxx = -kx ** 2 * v
        means = np.fft.ifft(pxx[:, 0]).real / n_r
        a_anchor = np.fft.ifft2(pxx * inv_ikr).real[:, solver._anchor_idx]
        corr = -0.25 * (means[:, None] * solver.pseudo_ramp[None, :] - a_anchor[:, None])
        out = nl + np.fft.fft2(corr)
        out[:, 0] -= lam0 * np.fft.fft(np.fft.ifft(v[:, 0]).real)
        return out

    def step(v):
        n0 = nonlinear(v)
        a = e_half * v + q * n0
        na = nonlinear(a)
        b = e_half * v + q * na
        nb = nonlinear(b)
        c = e_half * a + q * (2.0 * nb - n0)
        nc = nonlinear(c)
        return e_full * v + f1 * n0 + 2.0 * f2 * (na + nb) + f3 * nc

    return nonlinear, step


# The anchored-dr^{-1} corrections (all but their kr = 0 diagonal) are
# linear in phi but stepped explicitly, with a gain of about
# S = kx_max^2 len_r dt / 4 per stage, and both formulations amplify their
# rounding by it.  KPSolver refuses S > 40, so the draws keep S <= 40 (the
# solve-kp closure has S = 14.7, its one-row soliton box S = 0); at S ~ 100
# the two drift apart by 2e-12 of max|.|.  The fields are even in x, as the
# stepper needs, and n_x = 1 and 5 are the trivial and the odd-size cases.
@settings(max_examples=20, deadline=None)
@given(n_x=st.sampled_from([1, 4, 5, 16]), len_r=st.floats(10.0, 60.0),
       len_x=st.floats(2.0, 10.0), dt=st.floats(1e-4, 5e-3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_half_spectrum_matches_full_spectrum(n_x, len_r, len_x, dt, seed):
    assume((2.0 * np.pi * (n_x // 2) / len_x) ** 2 * len_r * dt / 4.0 <= 40.0)
    n_r = 64
    solver = kpsolver.KPSolver((-0.6 * len_r, 0.4 * len_r), (-len_x / 2, len_x / 2),
                               n_r, n_x, dt)
    # a random smooth real field: Gaussian-damped low modes
    rng = np.random.default_rng(seed)
    kx = np.fft.fftfreq(n_x, 1.0 / n_x)[:, None]
    kr = np.fft.rfftfreq(n_r, 1.0 / n_r)[None, :]
    modes = ((rng.normal(size=(n_x, n_r // 2 + 1))
              + 1j * rng.normal(size=(n_x, n_r // 2 + 1)))
             * np.exp(-0.5 * (kx ** 2 + (kr / 3.0) ** 2)))
    phi = np.fft.irfft2(modes, s=(n_x, n_r))
    phi = 0.5 * (phi + phi[-np.arange(n_x) % n_x])    # its even part in x
    phi *= 2.0 / np.max(np.abs(phi))
    nonlinear, step = full_spectrum_reference(solver)
    v_full = np.fft.fft2(phi)
    # the rows kx >= 0 and columns kr >= 0 of the full spectrum
    rows, n_half = n_x // 2 + 1, n_r // 2 + 1
    v = solver._forward(phi[:rows])

    want = nonlinear(v_full)[:rows, :n_half]
    got = solver._nonlinear(v)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    want = step(v_full)[:rows, :n_half]
    got = solver.step(v)[0]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


class TestStepper:
    @pytest.mark.parametrize("box_r, box_x, n_x, dt, gain", [
        ((-20.0, 20.0), (-0.5, 0.5), 1, 1e-2, 0.0),     # c12 line soliton
        ((-14.0, 9.5), (-4.5, 4.5), 64, 5e-3, 14.7),    # c12 closure
    ], ids=["soliton", "closure"])
    def test_c12_sizes_construct(self, box_r, box_x, n_x, dt, gain):
        solver = kpsolver.KPSolver(box_r, box_x, 512, n_x, dt)
        assert abs(solver.step_gain - gain) < 0.05

    @pytest.mark.parametrize("gain", [39.0, 41.0])
    def test_step_gain_guard(self, gain):
        # n_x = 4 on a unit box: kx_max = 4 pi; len_r = 40.  The box is
        # refused when it is built, whatever field it would step
        dt = 4.0 * gain / ((4.0 * np.pi) ** 2 * 40.0)
        if gain > 40.0:
            with pytest.raises(ValueError, match="step gain"):
                kpsolver.KPSolver((-20.0, 20.0), (-0.5, 0.5), 64, 4, dt)
            return
        solver = kpsolver.KPSolver((-20.0, 20.0), (-0.5, 0.5), 64, 4, dt)
        bump = 0.1 * np.exp(-solver.r ** 2)
        flat = np.broadcast_to(bump[None, :], (4, 64)).copy()
        wavy = flat * (1.0 + 0.5 * np.cos(2.0 * np.pi * solver.x))[:, None]
        for phi in (flat, wavy):
            assert np.all(np.isfinite(solver.evolve(phi, 1)))

    def test_odd_field_is_refused(self, monkeypatch):
        solver = kpsolver.KPSolver((-10.0, 10.0), (-1.0, 1.0), 64, 4, 1e-2)
        phi = np.exp(-solver.r ** 2)[None, :] * np.ones((4, 1))
        phi[1] *= 1.5   # phi[1] != phi[-1]
        monkeypatch.setattr(solver, "step", lambda *args: pytest.fail("stepped"))
        with pytest.raises(ValueError, match="not even in x"):
            solver.evolve(phi, 5)

    def test_negative_step_count_is_refused(self):
        solver = kpsolver.KPSolver((-10.0, 10.0), (-1.0, 1.0), 64, 4, 1e-2)
        with pytest.raises(ValueError, match="n_steps"):
            solver.evolve(np.zeros((4, 64)), -1)

    def test_zero_field(self):
        solver = kpsolver.KPSolver((-10, 10), (-1, 1), 128, 8, 1e-2)
        out = solver.evolve(np.zeros((8, 128)), 20)
        assert np.max(np.abs(out)) == 0.0

    def test_line_soliton(self):
        assert kpsolver.soliton_sup_error(5e-3, 2.0) < 1e-6

    def test_x_independent_soliton_needs_one_row(self):
        # the solve-kp soliton runs use n_x = 1: on 4 rows each row is the same
        outs = []
        for n_x in (1, 4):
            solver = kpsolver.KPSolver((-20, 20), (-0.5, 0.5), 512, n_x, 1e-2)
            phi0 = np.broadcast_to(kpsolver.soliton_profile(solver.r, 0.5), (n_x, 512))
            outs.append(solver.evolve(phi0, 200))
        assert np.max(np.abs(outs[1] - outs[0])) <= 1e-13 * np.max(np.abs(outs[0]))

    def test_galilean_boost(self):
        c, bg, T, dt = 0.5, 0.3, 1.0, 5e-3
        solver = kpsolver.KPSolver((-20, 20), (-0.5, 0.5), 512, 4, dt)
        phi0 = kpsolver.soliton_profile(solver.r, c) + bg
        out = solver.evolve(np.broadcast_to(phi0[None, :], (4, 512)).copy(),
                            int(T / dt))
        ref = kpsolver.soliton_profile(
            periodic_shift(solver.r, (c + bg) * T, (-20, 20)), c) + bg
        assert np.max(np.abs(out - ref[None, :])) < 1e-6

    def test_conserved_quantities(self):
        c, T, dt = 0.5, 2.0, 5e-3
        solver = kpsolver.KPSolver((-20, 20), (-0.5, 0.5), 512, 4, dt)
        phi0 = np.broadcast_to(
            kpsolver.soliton_profile(solver.r, c)[None, :], (4, 512)).copy()
        i0 = invariants(solver, phi0)
        out = solver.evolve(phi0, int(T / dt))
        i1 = invariants(solver, out)
        assert abs(i1[0] - i0[0]) / T < 1e-8
        assert abs(i1[1] - i0[1]) / T < 1e-8

    def test_fourth_order_in_time(self):
        errs = [kpsolver.soliton_sup_error(dt, 1.0) for dt in (1e-2, 5e-3)]
        assert errs[0] / errs[1] >= 8.0

    def test_one_two_three_rescaling(self):
        # phi_a(t, x, r) = a^-2 phi(a^-3 t, a^-2 x, a^-1 r) maps solutions to
        # solutions; verified on an x-independent Gaussian pulse (KdV slice).
        # The rescaled box has S = 101 on 4 rows, so it runs on one
        a, T, dt = 2.0, 0.4, 4e-3
        s1 = kpsolver.KPSolver((-20, 20), (-0.5, 0.5), 512, 4, dt)
        phi0 = 0.8 * np.exp(-0.25 * s1.r ** 2)
        out1 = s1.evolve(np.broadcast_to(phi0[None, :], (4, 512)).copy(),
                         int(T / dt))[0]
        s2 = kpsolver.KPSolver((-40, 40), (-0.5, 0.5), 1024, 1, dt * a ** 3)
        phi0b = 0.8 * np.exp(-0.25 * (s2.r / a) ** 2) / a ** 2
        out2 = s2.evolve(phi0b[None, :], int(T / dt))[0]
        interp = CubicSpline(s2.r, out2)
        mid = (np.abs(s1.r) < 15)
        err = np.max(np.abs(interp(a * s1.r[mid]) * a * a - out1[mid]))
        assert err < 5e-5

    def test_blow_up_guard(self):
        # one row: on 4 rows this box has S = 197, which is refused
        solver = kpsolver.KPSolver((-5, 5), (-0.5, 0.5), 64, 1, 0.5)
        bad = 1e4 * np.sin(solver.r)[None, :]
        with pytest.raises(kpsolver.BlowUpError):
            solver.evolve(bad, 50)


class TestEvolveAndCompare:
    def test_narrow_wedge_closure(self, closure):
        assert closure["sup_error"] < 5e-3

    def test_closure_sup_error_regression(self, closure):
        # the floor is set by the x resolution, not by the step: 3.2846e-5
        # at 50 steps of 2e-3, 3.2655e-5 at 20 steps of 5e-3
        assert (closure["n_steps"], closure["dt"]) == (20, (1.1 - 1.0) / 20)
        assert abs(closure["sup_error"] - 3.2846e-5) <= 5e-7

    def test_closure_time_error(self, closure):
        # c12's steps against eight times as many, on the compared interior;
        # measured 1.04e-6 at 20 steps
        solver, _, fine = closure_run(closure["dt"] / 8, 8 * closure["n_steps"])
        x, r, evolved = np.array(closure["fields"])[:, :3].T
        at = np.searchsorted(solver.x, x), np.searchsorted(solver.r, r)
        assert np.max(np.abs(evolved - fine[at])) <= 1.5e-6

    def test_closure_stable_near_step_gain_bound(self):
        # the kr = 0 diagonal of the pseudo-ramp correction reaches -1281
        # on the Nyquist row, past explicit RK4's stability at dt = 5e-3
        # (S = 14.7); in the linear phase the box runs 0.2 time units at
        # S = 39.9
        solver, phi0, out = closure_run(1.36e-2, 15)
        assert 39.5 < solver.step_gain < 40.0
        assert np.max(np.abs(out)) <= np.max(np.abs(phi0))

    def test_no_evolution_limit(self):
        rep = kpsolver.evolve_and_compare(fields.phi_window_narrow_wedge, 1.0, 1.0)
        assert rep["sup_error"] < 1e-8

    def test_flat_kdv_reduction(self):
        # flat data: phi(t, r) = c^2 (q'(s) - q(s)^2) / 2 at s = c r, c = (4/t)^(1/3),
        # the Miura form of the GOE reduction
        hm24 = painleve.hastings_mcleod(L=24.0)
        q_prime = hm24.q.deriv()

        def builder(t, x, r):
            c = np.cbrt(4.0 / t)
            s = c * r
            q = hm24.q_at(s)
            qp = q_prime(np.clip(s, hm24.left, hm24.right))
            phi = c * c * 0.5 * (qp - q * q)
            return np.broadcast_to(phi[None, :], (x.size, r.size)).copy()
        rep = kpsolver.evolve_and_compare(builder, 1.0, 1.1)
        assert rep["sup_error"] < 5e-3

    def test_builder_called_once_per_time(self):
        calls = []

        def builder(t, x, r):
            calls.append(t)
            return np.exp(-r[None, :] ** 2) * np.ones((x.size, 1))

        rep = kpsolver.evolve_and_compare(builder, 1.0, 1.01)
        assert calls == [1.0, 1.01]
        assert (rep["n_x"], rep["n_r"], rep["n_steps"]) == (64, 512, 2)
        assert rep["dt"] == (1.01 - 1.0) / 2

    def test_target_is_built_on_the_interior_only(self):
        # the t1 builder call gets only the compared points: x in [-1.8, 1.8],
        # r in [-5.2, 3.2], each row and column of the report's table
        grids = []

        def builder(t, x, r):
            grids.append((x, r))
            return np.exp(-r[None, :] ** 2) * np.ones((x.size, 1))

        rep = kpsolver.evolve_and_compare(builder, 1.0, 1.01)
        (x0, r0), (x1, r1) = grids
        assert (x0.size, r0.size) == (64, 512)
        assert np.min(x1) >= -1.8 and np.max(x1) <= 1.8
        assert np.min(r1) >= -5.2 and np.max(r1) <= 3.2
        table = np.array(rep["fields"])
        assert np.array_equal(np.unique(table[:, 0]), x1)
        assert np.array_equal(np.unique(table[:, 1]), r1)

    def test_horizon_guard(self):
        with pytest.raises(ValueError):
            kpsolver.evolve_and_compare(fields.phi_window_narrow_wedge, 1.0, 1.5)

    def test_backward_horizon_is_refused(self):
        # t1 < t0 would be a negative step count and a field never evolved
        with pytest.raises(ValueError, match="t1 - t0"):
            kpsolver.evolve_and_compare(
                lambda t, x, r: np.exp(-r[None, :] ** 2) * np.ones((x.size, 1)), 1.0, 0.9)

    def test_closure_table_is_even_in_x(self, closure):
        # the stepper keeps the even half, so phi_evolved at x is the one at -x
        table = np.array(closure["fields"])
        grid = table.reshape(np.unique(table[:, 0]).size, -1, 5)
        assert np.array_equal(grid[:, 0, 0], -grid[::-1, 0, 0])
        assert np.array_equal(grid[:, :, 2], grid[::-1, :, 2])
