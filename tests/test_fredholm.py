import functools
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kpdet import fredholm, kernels, painleve
from kpdet.kernels import BlockKernel, KernelSpec


class RankOneToy:
    """K(u,v) = e^{-u-v} on [0, inf): det(I-K) = 1/2, Q = 2."""

    n_blocks = 1

    class spec:
        t = 1.0
        xs = (0.0,)
        rs = (0.0,)

    def block(self, u, v):
        u, v = np.atleast_1d(u), np.atleast_1d(v)
        return np.exp(-u)[:, None] * np.exp(-v)[None, :]


class ZeroKernel:
    n_blocks = 1

    class spec:
        t = 1.0
        xs = (0.0,)
        rs = (0.0,)

    def block(self, u, v):
        return np.zeros((np.atleast_1d(u).size, np.atleast_1d(v).size))


class TestAssembleAndDet:
    def test_rank_one_toy(self):
        disc = fredholm.assemble(RankOneToy(), 64)
        assert abs(fredholm.det_one_minus(disc) - 0.5) < 1e-10
        sv = np.linalg.svd(disc.matrix, compute_uv=False)
        assert sv[1] < 1e-12

    def test_zero_kernel(self):
        disc = fredholm.assemble(ZeroKernel(), 32)
        assert fredholm.det_one_minus(disc) == 1.0

    def test_quad_doubling_stability(self):
        spec = KernelSpec("nw_fixed_point", 1.0, (0.0,), (0.0,), ((0.0, 0.0),))
        d1 = fredholm.det_one_minus(fredholm.assemble(spec, 64))
        d2 = fredholm.det_one_minus(fredholm.assemble(spec, 128))
        assert abs(d1 - d2) < 1e-10

    def test_block_count(self):
        spec = KernelSpec("nw_fixed_point", 1.0, (-0.3, 0.4), (0.5, 0.8),
                          ((0.0, 0.0),))
        disc = fredholm.assemble(spec, 32)
        assert disc.kernel.n_blocks == 2
        assert disc.matrix.shape == (64, 64)

    def test_cross_oracle_f_gue(self):
        spec = KernelSpec("nw_fixed_point", 1.0, (0.0,), (0.0,), ((0.0, 0.0),))
        det = fredholm.det_one_minus(fredholm.assemble(spec, 64))
        assert abs(det - float(np.exp(painleve.log_f(0.0)[0]))) < 1e-8

    def test_n_quad_range(self):
        with pytest.raises(ValueError):
            fredholm.assemble(RankOneToy(), 4)


class TestBoundaryResolvent:
    def test_rank_one_value(self):
        q = fredholm.boundary_resolvent(fredholm.assemble(RankOneToy(), 64))
        assert abs(q[0, 0] - 2.0) < 1e-10

    def test_zero_kernel(self):
        q = fredholm.boundary_resolvent(fredholm.assemble(ZeroKernel(), 32))
        assert np.all(q == 0.0)

    def test_q_is_log_derivative(self):
        h = 1e-4
        def ld(r):
            spec = KernelSpec("nw_fixed_point", 1.0, (0.0,), (r,), ((0.0, 0.0),))
            return np.log(fredholm.det_one_minus(fredholm.assemble(spec, 64)))
        spec0 = KernelSpec("nw_fixed_point", 1.0, (0.0,), (0.0,), ((0.0, 0.0),))
        q = fredholm.boundary_resolvent(fredholm.assemble(spec0, 64))
        fd = (ld(h) - ld(-h)) / (2 * h)
        assert abs(q[0, 0] - fd) < 1e-5

    def test_trace_identity_two_point(self):
        xs, rs = (-0.3, 0.4), (0.5, 0.8)
        h = 1e-4
        def ld(a):
            spec = KernelSpec("nw_fixed_point", 1.0, xs,
                              tuple(r + a for r in rs), ((0.0, 0.0),))
            return np.log(fredholm.det_one_minus(fredholm.assemble(spec, 64)))
        spec0 = KernelSpec("nw_fixed_point", 1.0, xs, rs, ((0.0, 0.0),))
        q = fredholm.boundary_resolvent(fredholm.assemble(spec0, 64))
        fd = (ld(h) - ld(-h)) / (2 * h)
        assert abs(np.trace(q) - fd) < 1e-4

    def test_resolvent_identity_routes(self):
        # R = K + K(I-K)^{-1}K at the boundary vs (I-M)^{-1}M interpolation
        disc = fredholm.assemble(RankOneToy(), 64)
        q = fredholm.boundary_resolvent(disc)
        rule, nq = disc.rule, disc.rule.n
        sw = np.sqrt(rule.weights)
        kern = disc.kernel
        col = kern.block(rule.nodes, np.zeros(1))[:, 0] * sw
        resolv_nodes = np.linalg.solve(np.eye(nq) - disc.matrix, col)
        # Nystrom interpolation of R(0, 0) = K(0,0) + int K(0,s) R(s,0) ds
        row = kern.block(np.zeros(1), rule.nodes)[0] * sw
        q_interp = kern.block(np.zeros(1), np.zeros(1))[0, 0] + row @ resolv_nodes
        assert abs(q_interp - q[0, 0]) < 1e-10

    def test_two_point_resolvent_matches_direct_blocks(self):
        # reference: the operator evaluated on the nodes and at the boundary
        # point 0 apart, not together as in the assembly
        spec = KernelSpec("nw_fixed_point", 1.0, (-0.3, 0.4), (0.5, 0.8),
                          ((0.0, 0.0),))
        disc = fredholm.assemble(spec, 48)
        q_disc = fredholm.boundary_resolvent(disc)
        nodes, sw, zero = disc.rule.nodes, np.tile(np.sqrt(disc.rule.weights), 2), np.zeros(1)
        kernel = BlockKernel(spec)
        m = sw[:, None] * kernel.block(nodes, nodes) * sw
        row = kernel.block(zero, nodes) * sw
        col = kernel.block(nodes, zero) * sw[:, None]
        k00 = kernel.block(zero, zero)
        q = k00 + row @ np.linalg.solve(np.eye(96) - m, col)
        assert np.max(np.abs(disc.matrix - m)) < 1e-15
        assert np.max(np.abs(q_disc - q)) < 1e-13

    def test_resolvent_reuses_assembly_factors(self, monkeypatch):
        # assembly evaluated the kernel at the boundary point 0 too, so the
        # resolvent needs no new Airy values
        spec = KernelSpec("nw_fixed_point", 1.0, (-0.3, 0.4), (0.5, 0.8),
                          ((0.0, 0.0),))
        disc = fredholm.assemble(spec, 48)
        points = []
        airy_ai_log_abs = kernels.airy_ai_log_abs

        def counting(arg):
            points.append(np.size(arg))
            return airy_ai_log_abs(arg)

        monkeypatch.setattr(kernels, "airy_ai_log_abs", counting)
        fredholm.boundary_resolvent(disc)
        assert points == []

    def test_spiked_resolvent_reuses_assembly_factors(self, monkeypatch):
        # assembly made the factor grids on the nodes and 0 together, so the
        # resolvent makes none, and it is the one of grids made afresh
        spec = KernelSpec("kpz_spiked", 1.0, (0.0,), (0.0,), spikes=(0.0,))
        disc = fredholm.assemble(spec, 32)
        sizes = []
        factor_grid = kernels.SpikedKernel._factor_grid

        def counting(self, pts, which):
            sizes.append((which, pts.size))
            return factor_grid(self, pts, which)

        monkeypatch.setattr(kernels.SpikedKernel, "_factor_grid", counting)
        q = fredholm.boundary_resolvent(disc)
        assert sizes == []
        monkeypatch.setattr(kernels, "_memo", lambda cache, key, make: make())
        assert np.array_equal(fredholm.boundary_resolvent(fredholm.assemble(spec, 32)), q)

    def test_singularity_guard(self):
        class UnitKernel(ZeroKernel):
            def block(self, u, v):
                u, v = np.atleast_1d(u), np.atleast_1d(v)
                return 2.0 * np.exp(-u)[:, None] * np.exp(-v)[None, :]
        # det(I-K) = 1 - 2*1/2 = 0: resolvent must refuse
        with pytest.raises((fredholm.SingularOperatorError, np.linalg.LinAlgError)):
            fredholm.boundary_resolvent(fredholm.assemble(UnitKernel(), 64))

    def test_near_singular_raises_without_warning(self):
        # det(I - K) = 1e-15, below the 1e-14 at which det_one_minus warns:
        # the resolvent refuses with its own error and warns nothing
        disc = fredholm.assemble(RankOneToy(), 32)
        disc.matrix = np.diag([1.0 - 1e-15] + [0.0] * 31)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(fredholm.SingularOperatorError):
                fredholm.boundary_resolvent(disc)


# (levels, wedges) of the narrow-wedge kernels whose blocks come from one
# stacked chain per wedge
STACKED_SPECS = {
    "2pt-1w": KernelSpec("nw_fixed_point", 1.0, (-0.3, 0.4), (0.5, 0.8), ((0.0, 0.0),)),
    "3pt-1w": KernelSpec("nw_fixed_point", 1.0, (-0.5, 0.1, 0.6), (0.2, 0.9, -0.3),
                         ((0.0, 0.0),)),
    "2pt-2w": KernelSpec("nw_fixed_point", 1.0, (-0.3, 0.4), (0.5, 0.8),
                         ((-0.6, 0.1), (0.5, -0.2))),
    "3pt-2w": KernelSpec("nw_fixed_point", 1.0, (-0.5, 0.1, 0.6), (0.2, 0.9, -0.3),
                         ((-0.6, 0.1), (0.5, -0.2))),
}


class TestOneEvaluationPerAssembly:
    @pytest.mark.parametrize("spec", STACKED_SPECS.values(), ids=STACKED_SPECS.keys())
    def test_stacked_matrix_equals_per_block_chains(self, spec):
        # every Nystrom entry equals its block's own chain: each row and
        # column of the stack keeps its own scale.  Only the BLAS summation
        # order may differ, since it depends on the product's shape (with 2
        # levels the entries here are bitwise equal, with 3 a few differ by
        # an ulp)
        disc = fredholm.assemble(spec, 16)
        nodes, sw = disc.rule.nodes, np.sqrt(disc.rule.weights)
        n = len(spec.xs)
        ref = np.empty_like(disc.matrix)
        for a in range(n):
            for b in range(n):
                u, v = nodes + spec.rs[a], nodes + spec.rs[b]
                blk = kernels.scattering_part_logmat(spec, a, b, u, v).to_linear()
                if a < b:
                    blk = blk - kernels.heat_kernel(spec.xs[b] - spec.xs[a],
                                                    u[:, None], v[None, :])
                ref[a * 16:(a + 1) * 16, b * 16:(b + 1) * 16] = sw[:, None] * blk * sw[None, :]
        assert np.max(np.abs(disc.matrix - ref)) <= 1e-15 * np.max(np.abs(ref))

    def test_one_log_matmul_for_assembly_and_resolvent(self, monkeypatch):
        # two levels, one wedge: one product A R^T for all four blocks on
        # the nodes and 0
        calls = []
        log_matmul = kernels.log_matmul

        def counted(a, b):
            calls.append(a.logabs.shape[0])
            return log_matmul(a, b)

        monkeypatch.setattr(kernels, "log_matmul", counted)
        fredholm.boundary_resolvent(fredholm.assemble(STACKED_SPECS["2pt-1w"], 16))
        assert calls == [2 * 17]

    def test_one_kernel_call_per_assembly(self, monkeypatch):
        # the whole two-level operator, on the nodes and 0, in one call
        calls = []
        block = BlockKernel.block

        def spy(self, u, v):
            calls.append((u.size, v.size))
            return block(self, u, v)

        monkeypatch.setattr(BlockKernel, "block", spy)
        disc = fredholm.assemble(STACKED_SPECS["2pt-1w"], 16)
        assert calls == [(17, 17)]
        assert disc.matrix.shape == (32, 32)

    @pytest.mark.parametrize("spec", [
        STACKED_SPECS["2pt-2w"],
        KernelSpec("flat_fixed_point", 1.0, (0.0,), (-1.0,)),
        KernelSpec("kpz_narrow_wedge", 1.0, (0.1,), (1.0,)),
        KernelSpec("kpz_spiked", 1.0, (0.0,), (0.0,), spikes=(0.0,)),
    ], ids=["nw", "flat", "kpz", "spiked"])
    def test_boundary_entries_are_the_kernel_at_zero(self, spec):
        # the stored row, column and corner against each block evaluated
        # at the boundary point 0 by a kernel of its own
        disc = fredholm.assemble(spec, 16)
        nodes, sw, zero = disc.rule.nodes, np.sqrt(disc.rule.weights), np.zeros(1)
        kernel = BlockKernel(spec)
        n = kernel.n_blocks
        row = kernel.block(zero, nodes) * np.tile(sw, n)
        col = kernel.block(nodes, zero) * np.tile(sw, n)[:, None]
        corner = kernel.block(zero, zero)
        scale = np.max(np.abs(np.concatenate((row.ravel(), col.ravel(), corner.ravel()))))
        assert scale > 1e-2
        for got, ref in ((disc.row, row), (disc.col, col), (disc.corner, corner)):
            assert np.max(np.abs(got - ref)) <= 1e-14 * scale


class TestBracketIdentity:
    @staticmethod
    def _gaussian_blocks(coef):
        """Whole-operator callables of the n x n block kernel with blocks
        coef_ab exp(-u^2 - v^2), and of its partials in u and in v."""
        def make(du, dv):
            def side(w, d):
                return -2 * w * np.exp(-w * w) if d else np.exp(-w * w)
            return lambda u, v: np.kron(coef, side(u, du)[:, None] * side(v, dv)[None, :])
        return make(False, False), make(True, False), make(False, True)

    def test_gaussian_pair(self):
        blocks, d1, d2 = self._gaussian_blocks([[1.0]])
        res = fredholm.boundary_bracket_product_check(blocks, d2, blocks, d1, 96)
        assert res < 1e-8

    def test_zero_kernel(self):
        zero, zd1, zd2 = self._gaussian_blocks([[0.0]])
        blocks, d1, d2 = self._gaussian_blocks([[1.0]])
        res = fredholm.boundary_bracket_product_check(zero, zd2, blocks, d1, 48)
        assert res == 0.0

    def test_two_block_upper_triangular(self):
        coef = [[1.0, 0.7], [0.0, 0.4]]
        blocks, d1, d2 = self._gaussian_blocks(coef)
        res = fredholm.boundary_bracket_product_check(blocks, d2, blocks, d1, 96)
        assert res < 1e-7

    def test_two_block_full(self):
        # every block of both factors feeds every entry of the products
        blocks, d1, d2 = self._gaussian_blocks([[1.0, -0.6], [0.3, 0.8]])
        other, od1, _ = self._gaussian_blocks([[0.5, 0.9], [-1.2, 0.2]])
        res = fredholm.boundary_bracket_product_check(blocks, d2, other, od1, 96)
        assert res < 1e-7


class TestQuadratureStability:
    @pytest.mark.parametrize("spec", [
        KernelSpec("nw_fixed_point", 1.0, (0.5,), (0.0,), ((0.0, 0.0),)),
        KernelSpec("flat_fixed_point", 1.0, (0.0,), (-1.0,)),
        KernelSpec("kpz_narrow_wedge", 1.0, (0.1,), (1.0,)),
        KernelSpec("nw_fixed_point", 1.0, (-0.3, 0.4), (0.5, 0.8),
                   ((0.0, 0.0),)),
        KernelSpec("kpz_spiked", 1.0, (0.0,), (0.0,), spikes=(0.0,)),
    ], ids=["nw", "flat", "kpz", "2pt", "spiked"])
    def test_doubling(self, spec):
        d1 = fredholm.det_one_minus(fredholm.assemble(spec, 64))
        d2 = fredholm.det_one_minus(fredholm.assemble(spec, 128))
        assert abs(d1 - d2) < 1e-9


class TestScaledFormEquivalence:
    def test_symmetric_scaling_preserves_det(self):
        # 3x3 toy: det(I - sqrt(w) K sqrt(w)) equals det(I - K w) exactly
        rng = np.random.default_rng(2)
        k = rng.normal(size=(3, 3)) * 0.2
        w = np.array([0.4, 0.9, 1.7])
        unscaled = np.eye(3) - k * w[None, :]
        scaled = np.eye(3) - np.sqrt(w)[:, None] * k * np.sqrt(w)[None, :]
        assert abs(np.linalg.det(unscaled) - np.linalg.det(scaled)) < 1e-14


def _flat_mp(t, x, r):
    """Flat kernel c Ai(c (u + v + 2r)), c = 2^(-1/3) t^(-1/3), in mpmath."""
    c = mpmath.cbrt(mpmath.mpf(1) / (2 * t))
    ai = functools.lru_cache(maxsize=None)(mpmath.airyai)
    return lambda u, v: c * ai(c * (u + v + 2 * r))


def _nw_mp(t, x, r):
    """Narrow-wedge kernel at level r in mpmath: e^{(v - u) x / t} t^(-1/3)
    K_Ai(t^(-1/3) (u + r) + c, t^(-1/3) (v + r) + c), c = t^(-4/3) x^2."""
    s, c = mpmath.cbrt(t), x * x / mpmath.cbrt(t ** 4)
    airy = functools.lru_cache(maxsize=None)(
        lambda a: (mpmath.airyai(a), mpmath.airyai(a, derivative=1)))

    def kernel(u, v):
        a, b = (u + r) / s + c, (v + r) / s + c
        (ai_a, aip_a), (ai_b, aip_b) = airy(a), airy(b)
        k_ai = (aip_a ** 2 - a * ai_a ** 2 if u == v
                else (ai_a * aip_b - aip_a * ai_b) / (a - b))
        return mpmath.exp((v - u) * x / t) * k_ai / s
    return kernel


@pytest.mark.parametrize("family, kernel, points", [
    ("flat_fixed_point", _flat_mp, [(1.0, 0.0, -1.0), (1.0, 0.0, 0.5), (2.0, 0.0, -0.5)]),
    ("nw_fixed_point", _nw_mp, [(1.0, 0.0, -1.0), (1.0, 0.5, 0.0), (2.0, 0.3, 0.5)]),
], ids=["flat", "nw"])
def test_nystrom_determinant_matches_mpmath(family, kernel, points):
    # the n = 16 Nystrom matrix rebuilt at 30 digits from assemble's own
    # nodes and weights and the closed-form kernel pins the double-precision
    # path (kernel factors, scaling, LU) without Painleve; the largest
    # difference measured at these points is 3.3e-16 (flat, t = 1, r = 0.5)
    with mpmath.workdps(30):
        for t, x, r in points:
            disc = fredholm.assemble(KernelSpec(family, t, (x,), (r,)), 16)
            nodes = [mpmath.mpf(float(u)) for u in disc.rule.nodes]
            sw = [mpmath.sqrt(mpmath.mpf(float(w))) for w in disc.rule.weights]
            k = kernel(mpmath.mpf(t), mpmath.mpf(x), mpmath.mpf(r))
            m = mpmath.matrix(16, 16)
            for i, u in enumerate(nodes):
                for j, v in enumerate(nodes):
                    m[i, j] = (i == j) - sw[i] * k(u, v) * sw[j]
            want = mpmath.det(m)
            assert abs(fredholm.det_one_minus(disc) - float(want)) <= 1e-15


# the families whose one-point determinant is a distribution function in r
NON_SPIKED = ("nw_fixed_point", "flat_fixed_point", "kpz_narrow_wedge")
TIMES = st.floats(0.5, 2.0)
POSITIONS = st.floats(-1.0, 1.0)
LEVELS = st.floats(-3.0, 3.0)


def one_point_det(family, t, x, r, n=32):
    xs = {} if family == "flat_fixed_point" else {"xs": (x,)}
    spec = KernelSpec(family, t, rs=(r,), **xs)
    return fredholm.det_one_minus(fredholm.assemble(spec, n))


class TestDeterminantProperties:
    @pytest.mark.parametrize("family", NON_SPIKED)
    @settings(max_examples=15, deadline=None)
    @given(t=TIMES, x=POSITIONS,
           rs=st.lists(LEVELS, min_size=2, max_size=4, unique=True).map(sorted))
    def test_probability_nondecreasing_in_r(self, family, t, x, rs):
        d = np.array([one_point_det(family, t, x, r) for r in rs])
        assert np.all(d >= -1e-12) and np.all(d <= 1.0 + 1e-12)
        assert np.all(np.diff(d) >= -1e-12)

    @settings(max_examples=30, deadline=None)
    @given(t=TIMES, x=POSITIONS, r=LEVELS)
    def test_narrow_wedge_depends_on_r_plus_x2_over_t(self, t, x, r):
        # F(t, x, r) = F_GUE(t^(-1/3) (r + x^2 / t)); the x-dependence of the
        # kernel is a conjugation, so the Nystrom matrices are similar
        shifted = one_point_det("nw_fixed_point", t, 0.0, r + x * x / t)
        assert abs(one_point_det("nw_fixed_point", t, x, r) - shifted) <= 1e-12
