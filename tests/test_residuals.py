import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kpdet import fields, painleve, residuals


def reading(values):
    """Evaluator reading the whole-lattice array values at index triples."""
    return lambda points: np.array([values[p] for p in points])


def similarity_field(h, base=(1.0, 0.2, 0.5), dims=(5, 5, 7)):
    """(log F evaluator, steps, dims) of the GUE similarity solution on a
    lattice centred at base."""
    corner = tuple(c - (n // 2) * h for c, n in zip(base, dims))
    steps = (h, h, h)
    return (lambda points: fields.similarity_gue_log_f(corner, steps, points),
            steps, dims)


def hirota(value, steps, dims):
    """Hirota residual of F = exp(value)."""
    return residuals.hirota_residual(lambda points: np.exp(value(points)), steps, dims)


# ----------------------------------------------------------------------
# reference: the whole-lattice pipeline, every derivative on the whole
# array, trimmed to the interior of each identity

def _diff(values, order, axis, h):
    margin, coef = residuals._STENCILS[order]
    n = values.shape[axis]
    out = np.zeros_like(np.take(values, range(margin, n - margin), axis=axis))
    for k, c in enumerate(coef):
        if c == 0.0:
            continue
        sl = np.take(values, range(k, n - 2 * margin + k), axis=axis)
        out = out + c * sl
    return out / h ** order


def _trim(values, axis, margin):
    n = values.shape[axis]
    return np.take(values, range(margin, n - margin), axis=axis)


def _centered(margins):
    def center(arr, *kept):
        for axis, (m, k) in enumerate(zip(margins, kept)):
            arr = _trim(arr, axis, m - k)
        return arr
    return center


def ref_hirota(F, steps):
    ht, hx, hr = steps
    center = _centered((2, 2, 3))
    Ft = center(_diff(F, 1, 0, ht), 1, 0, 0)
    Fr = center(_diff(F, 1, 2, hr), 0, 0, 1)
    Ftr = center(_diff(_diff(F, 1, 0, ht), 1, 2, hr), 1, 0, 1)
    Frr = center(_diff(F, 2, 2, hr), 0, 0, 1)
    Frrr = center(_diff(F, 3, 2, hr), 0, 0, 2)
    Frrrr = center(_diff(F, 4, 2, hr), 0, 0, 2)
    Fxx = center(_diff(F, 2, 1, hx), 0, 1, 0)
    Fx = center(_diff(F, 1, 1, hx), 0, 1, 0)
    F0 = center(F, 0, 0, 0)
    terms = [F0 * Ftr, -Ft * Fr, F0 * Frrrr / 12.0, -Fr * Frrr / 3.0,
             0.25 * Frr ** 2, 0.25 * F0 * Fxx, -0.25 * Fx ** 2]
    return residuals._report("hirota", terms, [], steps)


def ref_kp_scalar(G, steps):
    ht, hx, hr = steps
    center = _centered((1, 1, 3))
    Gtrr = center(_diff(_diff(G, 1, 0, ht), 2, 2, hr), 1, 0, 1)
    Grr = center(_diff(G, 2, 2, hr), 0, 0, 1)
    Grrr = center(_diff(G, 3, 2, hr), 0, 0, 2)
    Grrrrr = center(_diff(G, 5, 2, hr), 0, 0, 3)
    Gxxr = center(_diff(_diff(G, 2, 1, hx), 1, 2, hr), 0, 1, 1)
    terms = [Gtrr, Grr * Grrr, Grrrrr / 12.0, 0.25 * Gxxr]
    return residuals._report("kp_scalar", terms, [], steps)


def ref_cyl_kdv(G, t0, steps):
    ht, _, hr = steps
    center = _centered((1, 0, 3))
    phi_t = center(_diff(_diff(G, 1, 0, ht), 2, 2, hr), 1, 0, 1)
    phi = center(_diff(G, 2, 2, hr), 0, 0, 1)
    phi_r = center(_diff(G, 3, 2, hr), 0, 0, 2)
    phi_rrr = center(_diff(G, 5, 2, hr), 0, 0, 3)
    inv2t = (0.5 / (t0 + ht * np.arange(1, G.shape[0] - 1)))[:, None, None]
    terms = [phi_t, inv2t * phi_r, phi * phi_r, phi_rrr / 12.0, inv2t * phi]
    return residuals._report("cylindrical_kdv", terms, [], steps)


def ref_matrix_kp(Q, steps):
    """Report, sv_ratio and trace residual from hand-written differences at
    the centre of a (3, ny, na) lattice of Q-matrices."""
    ht, hy, ha = steps
    q = (Q[:, :, 2:] - Q[:, :, :-2]) / (2 * ha)
    big = Q[:, :, 1:-1]
    cy, ca = big.shape[1] // 2, big.shape[2] // 2
    dt_q = (q[2, cy, ca] - q[0, cy, ca]) / (2 * ht)
    q0 = q[1, cy, ca]
    da_q = (q[1, cy, ca + 1] - q[1, cy, ca - 1]) / (2 * ha)
    da3_q = (-0.5 * q[1, cy, ca - 2] + q[1, cy, ca - 1] - q[1, cy, ca + 1]
             + 0.5 * q[1, cy, ca + 2]) / ha ** 3
    dy2_Q = (big[1, cy + 1, ca] - 2 * big[1, cy, ca] + big[1, cy - 1, ca]) / hy ** 2
    dy_Q = (big[1, cy + 1, ca] - big[1, cy - 1, ca]) / (2 * hy)
    terms = [dt_q, 0.5 * (q0 @ da_q + da_q @ q0), da3_q / 12.0, 0.25 * dy2_Q,
             0.5 * (q0 @ dy_Q - dy_Q @ q0)]
    rep = residuals._report("matrix_kp", terms, [], steps)
    ratio = rel = 0.0
    if q0.shape[0] > 1:
        sv = np.linalg.svd(q0, compute_uv=False)
        ratio = float(sv[1] / sv[0])
        lhs, rhs = np.trace(q0 @ da_q), np.trace(q0) * np.trace(da_q)
        rel = float(abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300))
    return rep, ratio, rel


def smooth_field(seed, corner, steps, dims, shape=()):
    """A random smooth field (sum of sines plus a quadratic) on the whole lattice."""
    rng = np.random.default_rng(seed)
    axes = [c + h * np.arange(n) for c, h, n in zip(corner, steps, dims)]
    t, x, r = np.meshgrid(*axes, indexing="ij")
    out = np.zeros(tuple(dims) + shape)
    for idx in np.ndindex(*shape):
        w = rng.uniform(-3.0, 3.0, size=(3, 3))
        a = rng.uniform(-1.0, 1.0, size=3)
        phase = rng.uniform(0.0, 2 * np.pi, size=3)
        v = sum(a[m] * np.sin(w[m, 0] * t + w[m, 1] * x + w[m, 2] * r + phase[m])
                for m in range(3))
        out[(...,) + idx] = v + rng.uniform(-1, 1) * r * r + rng.uniform(-1, 1) * t * x
    return out


def lattice_case(least):
    """seed, corner, steps and dims (at or above least) of a random lattice."""
    return st.tuples(
        st.integers(0, 2 ** 32 - 1),
        st.tuples(*[st.floats(0.6, 2.0)] * 3),
        st.tuples(*[st.floats(0.005, 0.1)] * 3),
        st.tuples(*[st.integers(m, m + 3) for m in least]))


def same_report(got, want):
    keys = ("residual_sup", "residual_l2", "normalized_sup", "term_magnitudes", "steps")
    assert [got[k] for k in keys] == [want[k] for k in keys]


class TestAgainstWholeLattice:
    @settings(max_examples=40, deadline=None)
    @given(lattice_case((5, 5, 7)))
    def test_hirota_bitwise(self, case):
        seed, corner, steps, dims = case
        F = smooth_field(seed, corner, steps, dims)
        same_report(residuals.hirota_residual(reading(F), steps, dims), ref_hirota(F, steps))

    @settings(max_examples=40, deadline=None)
    @given(lattice_case((3, 3, 7)))
    def test_kp_scalar_bitwise(self, case):
        seed, corner, steps, dims = case
        G = smooth_field(seed, corner, steps, dims)
        same_report(residuals.kp_scalar_residual(reading(G), steps, dims),
                    ref_kp_scalar(G, steps))

    @settings(max_examples=40, deadline=None)
    @given(lattice_case((3, 1, 7)))
    def test_cylindrical_kdv_bitwise(self, case):
        seed, corner, (ht, _, hr), dims = case
        steps, dims = (ht, 0.0, hr), (dims[0], 1, dims[2])
        G = smooth_field(seed, corner, steps, dims)
        same_report(residuals.cylindrical_kdv_residual(reading(G), corner[0], steps, dims),
                    ref_cyl_kdv(G, corner[0], steps))

    @settings(max_examples=40, deadline=None)
    @given(lattice_case((3, 3, 7)), st.integers(1, 3))
    def test_matrix_kp_to_rounding(self, case, n):
        seed, corner, steps, dims = case
        dims = (3,) + dims[1:]   # the reference differences t at indices 0 and 2
        Q = smooth_field(seed, corner, steps, dims, (n, n))
        got = residuals.matrix_kp_residual(reading(Q), steps, dims)
        want, ratio, rel = ref_matrix_kp(Q, steps)
        # the hand-written D_y^2 Q adds its three terms in the other order,
        # which moves that term by up to 4 eps max|Q| / hy^2; over 20000
        # random cases the differences stay below 0.031 of this bound
        tol = (1e-14 * max(want["term_magnitudes"])
               + 4 * np.finfo(float).eps * np.max(np.abs(Q)) / steps[1] ** 2)
        assert np.max(np.abs(np.subtract(got["term_magnitudes"], want["term_magnitudes"]))) <= tol
        assert abs(got["residual_sup"] - want["residual_sup"]) <= tol
        assert abs(got["residual_l2"] - want["residual_l2"]) <= tol
        assert abs(got["sv_ratio"] - ratio) <= 1e-14
        assert abs(got["trace_identity_rel"] - rel) <= 1e-14


class TestPointsRead:
    @pytest.mark.parametrize("identity, dims, count", [
        (lambda v, dims: residuals.kp_scalar_residual(v, (0.02,) * 3, dims), (3, 3, 7), 17),
        (lambda v, dims: residuals.matrix_kp_residual(v, (0.02,) * 3, dims), (3, 5, 9), 13),
        (lambda v, dims: residuals.cylindrical_kdv_residual(v, 0.98, (0.02, 0.0, 0.02), dims),
         (3, 1, 13), 31),
        (lambda v, dims: residuals.hirota_residual(v, (0.02,) * 3, dims), (5, 5, 7), 13),
    ], ids=["kp_scalar", "matrix_kp", "cylindrical_kdv", "hirota"])
    def test_one_call_for_exactly_the_points_read(self, identity, dims, count):
        # at the acceptance sizes each residual asks once, for the points
        # its stencils read and no other
        calls = []
        rng = np.random.default_rng(1)

        def value(points):
            calls.append(list(points))
            shape = (2, 2) if dims == (3, 5, 9) else ()
            return rng.uniform(0.5, 1.0, size=(len(points),) + shape)

        identity(value, dims)
        assert len(calls) == 1
        points = calls[0]
        assert len(points) == len(set(points)) == count
        assert all(0 <= i < n for p in points for i, n in zip(p, dims))
        assert points == sorted(points)


class TestHirota:
    def test_similarity_solution(self):
        rep = hirota(*similarity_field(0.02))
        assert rep["normalized_sup"] < 1e-3

    def test_step_halving(self):
        r1 = hirota(*similarity_field(0.02))
        r2 = hirota(*similarity_field(0.01))
        assert r1["normalized_sup"] / r2["normalized_sup"] >= 3.0

    def test_constant_field(self):
        rep = residuals.hirota_residual(lambda points: np.full(len(points), 0.7),
                                        (0.02, 0.02, 0.02), (5, 5, 7))
        assert rep["residual_sup"] < 1e-9

    def test_flat_field_kdv_reduction(self):
        # x-independent flat-data field: x-terms vanish identically
        h = 0.02
        t = 1.0 + h * (np.arange(5) - 2)
        r = 0.3 + h * (np.arange(7) - 3)
        s = np.cbrt(4.0 / t)[:, None] * r[None, :]
        lf = painleve.log_f(s.ravel())[1].reshape(5, 7)
        vals = np.broadcast_to(np.exp(lf)[:, None, :], (5, 5, 7)).copy()
        rep = residuals.hirota_residual(reading(vals), (h, h, h), (5, 5, 7))
        assert rep["normalized_sup"] < 1e-3
        assert rep["term_magnitudes"][5] < 1e-12 and rep["term_magnitudes"][6] < 1e-12

    def test_one_two_three_invariance(self):
        # the identity holds at every scale point
        for t0 in (0.5, 1.0, 2.0):
            rep = hirota(*similarity_field(0.02, base=(t0, 0.2, 0.5)))
            assert rep["normalized_sup"] < 2e-3

    def test_report_invariant(self):
        rep = hirota(*similarity_field(0.02))
        assert rep["residual_sup"] <= sum(rep["term_magnitudes"]) + 1e-15

    def test_stencil_error(self):
        with pytest.raises(residuals.StencilError):
            residuals.hirota_residual(reading(np.zeros((3, 5, 7))), (.1, .1, .1), (3, 5, 7))


class TestScalarKP:
    def test_similarity_solution(self):
        rep = residuals.kp_scalar_residual(*similarity_field(0.02, dims=(3, 3, 7)))
        assert rep["normalized_sup"] < 5e-3

    def test_quadratic_in_r_exact(self):
        r = np.arange(7) * 0.02
        g = np.broadcast_to((3 * r * r + 2 * r + 1)[None, None, :], (3, 3, 7)).copy()
        rep = residuals.kp_scalar_residual(reading(g), (0.02, 0.02, 0.02), (3, 3, 7))
        assert rep["residual_sup"] < 1e-9

    def test_stencil_error(self):
        with pytest.raises(residuals.StencilError):
            residuals.kp_scalar_residual(reading(np.zeros((3, 3, 5))), (.1, .1, .1), (3, 3, 5))


class TestMatrixKP:
    def test_one_point_collapse(self):
        # at n = 1 the matrix expression evaluates identically to the scalar
        # one built from the same Q samples (commutator = 0)
        ht = hy = ha = 0.02
        tg = 1.0 + ht * (np.arange(3) - 1)
        yg = hy * (np.arange(3) - 1)
        ag = ha * (np.arange(9) - 4)

        def qfun(t, y, a):
            return np.array([[np.sin(0.3 * t + 0.2 * y + 0.7 * a)
                              + 0.1 * a * a * t]])

        big = np.array([[[qfun(t, y, a) for a in ag] for y in yg] for t in tg])
        rep = residuals.matrix_kp_residual(reading(big), (ht, hy, ha), (3, 3, 9))
        # scalar evaluation with the same samples
        qf = (big[:, :, 2:] - big[:, :, :-2]) / (2 * ha)
        q = qf[:, :, :, 0, 0]
        ca = q.shape[2] // 2
        dt_q = (q[2, 1, ca] - q[0, 1, ca]) / (2 * ht)
        da_q = (q[1, 1, ca + 1] - q[1, 1, ca - 1]) / (2 * ha)
        da3_q = (-0.5 * q[1, 1, ca - 2] + q[1, 1, ca - 1]
                 - q[1, 1, ca + 1] + 0.5 * q[1, 1, ca + 2]) / ha ** 3
        bigq = big[:, :, 1:-1, 0, 0]
        dy2 = (bigq[1, 2, ca] - 2 * bigq[1, 1, ca] + bigq[1, 0, ca]) / hy ** 2
        scalar = dt_q + q[1, 1, ca] * da_q + da3_q / 12 + 0.25 * dy2
        total = rep["residual_sup"]
        assert abs(total - abs(scalar)) < 1e-10
        # commutator term vanishes identically at n = 1
        assert rep["term_magnitudes"][4] == 0.0

    def test_rank_one_trivial_at_n1(self):
        rng = np.random.default_rng(0)
        q = rng.uniform(0.3, 0.5, size=(3, 3, 7, 1, 1))
        rep = residuals.matrix_kp_residual(reading(q), (0.02, 0.02, 0.02), (3, 3, 7))
        assert rep["sv_ratio"] == 0.0 and rep["trace_identity_rel"] == 0.0


class TestCylindricalKdV:
    def test_constant_field_closed_form(self):
        # phi = const: only the phi/(2t) term survives; with G quadratic in r
        r = np.arange(9) * 0.02
        g = np.broadcast_to((0.4 * r * r)[None, None, :], (3, 1, 9)).copy()
        rep = residuals.cylindrical_kdv_residual(reading(g), 1.0 - 0.02, (0.02, 0.0, 0.02),
                                                 (3, 1, 9))
        assert abs(rep["residual_sup"] - 0.8 / 2.0) < 1e-9

    def test_t_range_guard(self):
        with pytest.raises(ValueError):
            residuals.cylindrical_kdv_residual(reading(np.zeros((3, 1, 9))), 0.3,
                                               (.02, 0, .02), (3, 1, 9))


class TestTailFit:
    def test_synthetic_cubic(self):
        r = np.arange(-7.0, -4.9, 0.25)
        slope, r2 = residuals.tail_slope_fit(r, -np.abs(r) ** 3 / 6.0)
        assert abs(slope - 1.0 / 6.0) < 1e-12 and r2 > 1 - 1e-12

    def test_insufficient_range(self):
        with pytest.raises(residuals.InsufficientRangeError):
            residuals.tail_slope_fit(np.array([-3.0, -2.0]), np.array([-1., -0.5]))

    @pytest.mark.parametrize("r", [np.arange(-7.0, -4.9, 0.5), np.array([-7.0])],
                             ids=["two_in_window", "one_point"])
    def test_fewer_than_three_points_in_window(self, r):
        # a line through one or two points fits with r2 = 1 whatever the data
        with pytest.raises(residuals.InsufficientRangeError):
            residuals.tail_slope_fit(r, np.cos(r))


class TestStepHalving:
    def test_scalar_kp_halving(self):
        def at(h):
            return residuals.kp_scalar_residual(*similarity_field(h, dims=(3, 3, 7))
                                                )["normalized_sup"]
        assert at(0.02) / at(0.01) >= 3.0
