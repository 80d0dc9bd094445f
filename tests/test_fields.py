import numpy as np

from kpdet import fields, fredholm
from kpdet.kernels import KernelSpec

# the lattice of the c13 spiked KP stencil: (t, x, r) around (1, 0.2, 0.3)
H = 0.02
C13 = dict(t0=1.0 - H, x0=0.2 - H, r0=0.3 - 3 * H)


def c13_specs(dims=(3, 3, 7)):
    return [KernelSpec("kpz_spiked", float(t), (float(x),), (float(r),), spikes=(0.0,))
            for t in C13["t0"] + H * np.arange(dims[0])
            for x in C13["x0"] + H * np.arange(dims[1])
            for r in C13["r0"] + H * np.arange(dims[2])]


def own_logdet(spec, n):
    """log det(I - K) of spec's kernel assembled alone, with its own rules."""
    sign, logdet = fredholm.log_det_one_minus(fredholm.assemble(spec, n))
    assert sign > 0
    return logdet


def test_spiked_sweep_matches_per_point_rules():
    # one rule set sized for the worst point against rules of each point's
    # own: the log F stencil agrees to rounding
    n = 16
    swept = fields.sweep(c13_specs(), n)
    per_point = np.array([own_logdet(s, n) for s in c13_specs()])
    assert np.max(np.abs(swept - per_point)) <= 1e-13


def test_sweep_mixes_families_and_contour_groups():
    # points of other families and a second contour group keep their own
    # kernels; values follow the order of the specs
    specs = [KernelSpec("kpz_spiked", 1.0, (0.0,), (0.0,), spikes=(0.0,)),
             KernelSpec("nw_fixed_point", 1.0, (0.2,), (0.5,)),
             KernelSpec("kpz_spiked", 1.0, (0.0,), (0.0,), spikes=(0.0,),
                        contour_anchor=0.35),
             KernelSpec("kpz_spiked", 1.0, (0.0,), (1.0,), spikes=(0.0,))]
    got = fields.sweep(specs, 16)
    want = [own_logdet(s, 16) for s in specs]
    assert np.max(np.abs(got - want)) <= 1e-13
