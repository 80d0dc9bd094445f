import pathlib

import numpy as np
import pytest

from kpdet import cli, fields, fredholm, kernels, painleve
from kpdet.kernels import KernelSpec, SpikedRules, sweep_rules

CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "configs" / "acceptance"

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
             KernelSpec("kpz_narrow_wedge", 1.0, (0.2,), (0.5,)),
             KernelSpec("kpz_spiked", 1.0, (0.0,), (0.0,), spikes=(0.0,),
                        contour_anchor=0.35),
             KernelSpec("kpz_spiked", 1.0, (0.0,), (1.0,), spikes=(0.0,))]
    got = fields.sweep(specs, 16)
    want = [own_logdet(s, 16) for s in specs]
    assert np.max(np.abs(got - want)) <= 1e-13


def acceptance_sweeps(monkeypatch, tmp_path, config):
    """The spec lists of the sweeps one acceptance config asks for, in order."""
    seen = []
    sweep = fields.sweep

    def spy(specs, *args, **kwargs):
        seen.append(list(specs))
        return sweep(seen[-1], *args, **kwargs)

    monkeypatch.setattr(fields, "sweep", spy)
    assert cli.main(["--config", str(CONFIG_DIR / f"{config}.cfg"),
                     "--out", str(tmp_path)]) == 0
    monkeypatch.setattr(fields, "sweep", sweep)
    return seen


@pytest.mark.parametrize("config, most", [("c04b_kp_kpz", 256), ("c07_cyl_kdv", 256),
                                          ("c13_spiked", 600)])
def test_acceptance_sweeps_share_one_y_rule(tmp_path, monkeypatch, config, most):
    # the points of each sweep's group (one family, one spikes and anchor)
    # share one rules object, whose y-rule has at most `most` nodes and
    # resolves every point: a kpz_narrow_wedge point's own y-rule (in
    # y - r - x^2/t) lies inside it and has no more nodes per panel
    seen = acceptance_sweeps(monkeypatch, tmp_path, config)
    for specs in seen:
        used = []
        fields.sweep(specs, 8, lambda disc: used.append((disc.kernel.spec, disc.kernel.rules)) or 0.0)
        groups: dict = {}
        for s, r in used:
            groups.setdefault((s.family, s.spikes, s.contour_anchor), set()).add(id(r))
        assert all(len(ids) == 1 for ids in groups.values())
        for s, r in used:
            if isinstance(r, SpikedRules):
                assert r.fermi_nodes.size <= most
            else:
                own = sweep_rules([s])
                assert r.y.size <= most
                assert own.y0[0] >= r.y0[0] and own.loc.size <= r.loc.size
                hi, own_hi = (q.y0[-1] + (q.y0[1] - q.y0[0]) for q in (r, own))
                assert own_hi <= hi + 1e-12
    if config == "c04b_kp_kpz":
        assert [len(specs) for specs in seen] == [17]


def test_kpz_sweep_evaluates_one_airy_grid_per_t(tmp_path, monkeypatch):
    # the 17 points of c04b's stencil share 3 values of t: (x, r) enter
    # only the Fermi weight, so the sweep evaluates Ai once per t
    specs, = acceptance_sweeps(monkeypatch, tmp_path, "c04b_kp_kpz")
    calls = []
    airy = kernels.airy_ai
    monkeypatch.setattr(kernels, "airy_ai", lambda z: calls.append(z.shape) or airy(z))
    fields.sweep(specs, 64)
    assert len(specs) == 17 and len({s.t for s in specs}) == 3
    assert len(calls) == 3


def test_spiked_sweeps_build_one_grid_pair_per_t_x(tmp_path, monkeypatch):
    # c13's two sweeps evaluate 20 points at 7 distinct (t, x) per rules
    # object: r enters only the Fermi weight, so each rules object builds
    # one F and one G grid per (t, x) and keeps it for its other points
    seen = acceptance_sweeps(monkeypatch, tmp_path, "c13_spiked")
    grids = []
    for specs in seen:
        used = {}
        fields.sweep(specs, 64, lambda disc: used.setdefault(id(disc.kernel.rules),
                                                             disc.kernel.rules) and 0.0)
        # one entry per grid built: a sweep's map runs its points one by one
        grids += [key[0] for rules in used.values() for key, tx in rules.grids.items()
                  for _ in tx]
    distinct = sum(len({(SpikedRules.group_key(s), s.t, s.xs) for s in specs}) for specs in seen)
    assert sum(map(len, seen)) == 20 and distinct == 7
    assert grids.count("f") == grids.count("g") == 7 and len(grids) == 14


def test_spiked_mixed_sweep_matches_one_point_sweeps():
    # every point of a sweep over three t and spread (x, r) is its one-point
    # sweep's value: the union rules move it only by rounding (1.9e-14 here,
    # at (t, x, r) = (2, 0.3, -2))
    specs = [KernelSpec("kpz_spiked", t, (x,), (r,), spikes=(0.0,))
             for t in (0.9, 1.2, 2.0) for x, r in ((0.0, 0.5), (0.3, -2.0), (0.6, 1.5))]
    got = fields.sweep(specs, 64)
    want = [fields.sweep([s], 64)[0] for s in specs]
    assert np.max(np.abs(got - want)) <= 5e-14


def test_spiked_mixed_r_pair_matches_one_point_sweeps():
    # the pair (r, r + 0.5) at (t, x, r) = (0.85, 0.765, -3) was 5.2e-11 off
    # its one-point sweeps while the xi rays did not resolve G below about
    # -30, where the pair's union y'-rule reaches; now 7e-15
    specs = [KernelSpec("kpz_spiked", 0.85, (0.765,), (r,), spikes=(0.0,)) for r in (-3.0, -2.5)]
    got = fields.sweep(specs, 64)
    want = [fields.sweep([s], 64)[0] for s in specs]
    assert np.max(np.abs(got - want)) <= 5e-14


def test_kpz_mixed_t_sweep_matches_one_point_sweeps():
    # every point of a sweep over three t and spread (x, r) is its
    # one-point sweep's value: the union y-rule changes only the rounding
    specs = [KernelSpec("kpz_narrow_wedge", t, (x,), (r,))
             for t in (0.5, 1.0, 2.0) for x, r in ((0.0, 0.5), (0.3, -2.0), (-0.6, 1.5))]
    got = fields.sweep(specs, 64)
    want = [fields.sweep([s], 64)[0] for s in specs]
    assert np.max(np.abs(got - want)) <= 1e-15


@pytest.mark.parametrize("t", [1.0, 1.1])
@pytest.mark.parametrize("x_grid, distinct", [
    (-4.5 + 9.0 * np.arange(64) / 64, 33),     # the solve-kp closure grid
    (np.linspace(-1.3, 2.9, 17), 17),          # no +-x pairs
], ids=["closure", "unpaired"])
def test_phi_window_matches_per_point_formula(t, x_grid, distinct):
    # the window is evaluated once per distinct x^2 and expanded to the rows
    assert len(set(x_grid ** 2)) == distinct
    hm = painleve.hastings_mcleod()
    r = -14.0 + 23.5 * np.arange(512) / 512
    q = hm.q_at(r[None, :] / np.cbrt(t) + x_grid[:, None] ** 2 / np.cbrt(t ** 4))
    got = fields.phi_window_narrow_wedge(t, x_grid, r)
    assert np.array_equal(got, -q * q / np.cbrt(t * t))
