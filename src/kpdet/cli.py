"""Batch experiment runner: parses a config, runs one named check, emits
a CSV data file plus a JSON report, and exits 0/1/2.

Config format: plain ``key = value`` lines under ``[section]`` headers.
Sections: [run] (command, out, seed, tolerance, threads, quad_n),
[kernel] (family, t, x/xs, r/rs, wedges "a:b,a:b", spikes, anchor),
[grid] (the lattice keys of the command: t0, x0, r0, ht, hx, hy, hr, ha,
h, nt, nx, nr, r_min, r_max, r_step).  seed, threads and quad_n are
integers and tolerance a number.  A [run] key not listed here, or a
[kernel] or [grid] key the command does not read, is a config error, so no
key is silently ignored.

``COMMANDS`` maps each command name to a private function of the config
that returns its CSV header and rows, its report entries, ``worst`` (the
number held against the tolerance) and the Nystrom size ``quad_n`` it
used; ``run`` then writes the CSV and the JSON report.  Exit codes: 0
pass, 1 ``worst`` above tolerance, 2 usage/config error (including
parameters outside a kernel's domain) or numerical failure (an unresolved
quadrature tail, a singular or non-finite operator); nothing is written
when a run exits 2.  The JSON report records the ``quad_n`` actually used
(null for commands that assemble no determinant).  Non-finite floats in
the JSON report are written as the strings "inf", "-inf" and "nan".
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import fields, fredholm, kpsolver, painleve, residuals, scattering
from .fredholm import SingularOperatorError
from .kernels import KernelDomainError, KernelSpec, QuadratureFailure
from .residuals import GridField

__all__ = ["ExperimentConfig", "ConfigError", "parse_config", "run", "main"]

_RUN_KEYS = ("command", "out", "seed", "tolerance", "threads", "quad_n")

# [kernel] keys the kernel of each family reads besides family; x / xs and
# r / rs place its points
_FAMILY_KEYS = {
    "nw_fixed_point": ("t", "x", "xs", "r", "rs", "wedges"),
    "flat_fixed_point": ("t", "r", "rs"),
    "multiwedge_extended": ("t", "x", "xs", "r", "rs", "wedges"),
    "kpz_narrow_wedge": ("t", "x", "xs", "r", "rs"),
    "kpz_spiked": ("t", "x", "xs", "r", "rs", "spikes", "anchor"),
}


class ConfigError(ValueError):
    """Malformed config; message carries the offending line number."""


@dataclass
class ExperimentConfig:
    command: str
    out: str = "."
    seed: int = 0
    tolerance: float = float("inf")
    threads: int = 0
    quad_n: int | None = None   # None: the command's own default (_quad_n)
    kernel: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)

    def to_text(self) -> str:
        lines = ["[run]",
                 f"command = {self.command}",
                 f"out = {self.out}",
                 f"seed = {self.seed}",
                 f"tolerance = {self.tolerance!r}",
                 f"threads = {self.threads}"]
        if self.quad_n is not None:
            lines.append(f"quad_n = {self.quad_n}")
        for name, sect in (("kernel", self.kernel), ("grid", self.grid)):
            if sect:
                lines.append(f"[{name}]")
                lines.extend(f"{k} = {_fmt(v)}" for k, v in sect.items())
        return "\n".join(lines) + "\n"


def _fmt(v):
    if isinstance(v, (list, tuple)):
        return ",".join(_fmt(x) for x in v)
    return repr(v) if isinstance(v, float) else str(v)


def _parse_value(raw: str):
    raw = raw.strip()
    if "," in raw or ":" in raw:
        parts = [p for p in raw.split(",") if p.strip()]
        out = []
        for p in parts:
            if ":" in p:
                out.append(tuple(float(q) for q in p.split(":")))
            else:
                out.append(_parse_value(p))
        return tuple(out)
    for cast in (int, float):
        try:
            return cast(raw)
        except ValueError:
            pass
    return raw


def parse_config(text: str) -> ExperimentConfig:
    section = None
    data: dict = {"run": {}, "kernel": {}, "grid": {}}
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in data:
                raise ConfigError(f"line {ln}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected key = value")
        if section is None:
            raise ConfigError(f"line {ln}: key outside any section")
        key, raw = (part.strip() for part in line.split("=", 1))
        value = _parse_value(raw)
        if section == "run":
            if key not in _RUN_KEYS:
                raise ConfigError(f"line {ln}: [run] has no key {key!r}; its keys are "
                                  + ", ".join(_RUN_KEYS))
            if key in ("seed", "threads", "quad_n") and not isinstance(value, int):
                raise ConfigError(f"line {ln}: {key} = {raw} is not an integer")
            if key == "tolerance" and not isinstance(value, (int, float)):
                raise ConfigError(f"line {ln}: tolerance = {raw} is not a number")
        data[section][key] = value
    run = data["run"]
    if "command" not in run:
        raise ConfigError("missing command in [run]")
    cmd = str(run["command"])
    if cmd not in COMMANDS:
        raise ConfigError(f"unknown command {cmd!r}; the commands are "
                          + ", ".join(COMMANDS))
    return ExperimentConfig(
        command=cmd,
        out=str(run.get("out", ".")),
        seed=run.get("seed", 0),
        tolerance=float(run.get("tolerance", float("inf"))),
        threads=run.get("threads", 0),
        quad_n=run.get("quad_n"),
        kernel=data["kernel"],
        grid=data["grid"],
    )


def _write_csv(path, header, rows):
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in row) + "\n")


def _shape_kwargs(k: dict) -> dict:
    """KernelSpec keywords of a [kernel] section other than t, xs and rs."""
    wedges = k.get("wedges", ((0.0, 0.0),))
    if wedges and not isinstance(wedges[0], tuple):
        wedges = (tuple(wedges),)
    kw = {"wedges": tuple(tuple(w) for w in wedges)}
    if "spikes" in k:
        kw["spikes"] = tuple(np.atleast_1d(k["spikes"]).astype(float))
    if "anchor" in k:
        kw["contour_anchor"] = float(k["anchor"])
    return kw


def _kernel_spec(cfg: ExperimentConfig, **overrides) -> KernelSpec:
    k = dict(cfg.kernel)
    # an x / r override replaces the configured xs / rs as well
    for one, many in (("x", "xs"), ("r", "rs")):
        if one in overrides:
            k.pop(many, None)
    k.update(overrides)
    family = str(k.get("family", "nw_fixed_point"))
    xs = k.get("xs", k.get("x", 0.0))
    rs = k.get("rs", k.get("r", 0.0))
    xs = tuple(np.atleast_1d(xs).astype(float))
    rs = tuple(np.atleast_1d(rs).astype(float))
    return KernelSpec(family, float(k.get("t", 1.0)), xs, rs, **_shape_kwargs(k))


def _family_keys(cfg, families, placed):
    """family and the [kernel] keys its kernel reads, less those placed.

    families lists the families the command evaluates, the first being its
    default; placed lists the keys the command sets itself.
    """
    family = str(cfg.kernel.get("family", families[0]))
    if family not in families:
        raise ConfigError(f"{cfg.command} does not take family {family!r}; it takes "
                          + ", ".join(families))
    return ("family", *(key for key in _FAMILY_KEYS[family] if key not in placed))


def _check_kernel(cfg, reads):
    """Raise ConfigError for a [kernel] key the command does not read.

    reads lists the keys it reads; x and r are not read where xs and rs
    are set, which replace them.  Called before the command computes or
    writes anything, like _grid_params.
    """
    k = cfg.kernel
    reads = [key for key in reads
             if not (key in ("x", "r") and key + "s" in k and key + "s" in reads)]
    unread = [key for key in k if key not in reads]
    if unread:
        raise ConfigError(f"{cfg.command} does not read [kernel] {', '.join(unread)}; "
                          f"it reads {', '.join(reads) or 'no [kernel] keys'}")


def _grid_params(cfg, defaults):
    """The command's [grid] defaults overridden by the config's [grid].

    defaults lists every [grid] key the command reads; any other key is a
    ConfigError, raised before the command computes or writes anything.
    """
    unread = [key for key in cfg.grid if key not in defaults]
    if unread:
        reads = ", ".join(defaults) if defaults else "no [grid] keys"
        raise ConfigError(f"{cfg.command} does not read [grid] {', '.join(unread)}; "
                          f"it reads {reads}")
    return {**defaults, **cfg.grid}


def _quad_n(cfg: ExperimentConfig, default: int = 64) -> int:
    """The configured Nystrom size, or the command's default if unset."""
    return default if cfg.quad_n is None else cfg.quad_n


def _field_from_cfg(cfg: ExperimentConfig) -> GridField:
    g = _grid_params(cfg, {"t0": 0.98, "x0": 0.18, "r0": 0.44,
                           "ht": 0.02, "hx": 0.02, "hr": 0.02,
                           "nt": 3, "nx": 3, "nr": 7})
    family = str(cfg.kernel.get("family", "nw_fixed_point"))
    return fields.det_field(family, g["t0"], g["x0"], g["r0"],
                            g["ht"], g["hx"], g["hr"],
                            (int(g["nt"]), int(g["nx"]), int(g["nr"])),
                            n_quad=_quad_n(cfg),
                            spec_kw=_shape_kwargs(cfg.kernel))


def _json_safe(v):
    """Report value with non-finite floats replaced by "inf" / "-inf" / "nan"."""
    if isinstance(v, dict):
        return {k: _json_safe(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_safe(x) for x in v]
    if isinstance(v, float) and not math.isfinite(v):
        return "nan" if math.isnan(v) else ("inf" if v > 0 else "-inf")
    return v


def _term_table(rep):
    """CSV header and rows of a residual report's term magnitudes."""
    return ["term", "magnitude"], list(zip(rep.extra["term_names"], rep.term_magnitudes))


def _tw_table(cfg):
    _check_kernel(cfg, ())
    g = _grid_params(cfg, {"r_min": -6.0, "r_max": 4.0, "r_step": 0.1})
    hm = painleve.hastings_mcleod()
    r = np.arange(g["r_min"], g["r_max"] + 1e-12, g["r_step"])
    fgue = painleve.f_gue(r, hm)
    fgoe = painleve.f_goe(r, hm)
    monotone = bool(np.all(np.diff(fgue) > 0) and np.all(np.diff(fgoe) > 0))
    return (["r", "f_gue", "f_goe"],
            list(zip(r.tolist(), fgue.tolist(), fgoe.tolist())),
            {"rows": int(r.size), "monotone": monotone},
            0.0 if monotone else 1.0, None)


def _det_eval(cfg):
    _check_kernel(cfg, _family_keys(cfg, tuple(_FAMILY_KEYS), ("r", "rs")))
    g = _grid_params(cfg, {"r0": -2.0, "hr": 0.5, "nr": 9})
    rvals = g["r0"] + g["hr"] * np.arange(int(g["nr"]))
    spec0 = _kernel_spec(cfg)
    quad_n = _quad_n(cfg)
    with ThreadPoolExecutor(max_workers=cfg.threads or (os.cpu_count() or 1)) as ex:
        dets = fields.sweep([_kernel_spec(cfg, r=float(rv)) for rv in rvals],
                            quad_n, fredholm.det_one_minus, ex.map).tolist()
    report = {"values": dets}
    # the similarity families carry a Painleve reference for comparison
    if spec0.family == "nw_fixed_point" and spec0.wedges == ((0.0, 0.0),):
        x = spec0.xs[0]
        s = (rvals / np.cbrt(spec0.t)
             + x * x / np.cbrt(spec0.t ** 4))
        refs = painleve.f_gue(s, painleve.hastings_mcleod())
    elif spec0.family == "flat_fixed_point":
        refs = painleve.f_goe(np.cbrt(4.0 / spec0.t) * rvals, painleve.hastings_mcleod())
    else:
        worst = 0.0 if all(0.0 <= d <= 1.0 + 1e-9 for d in dets) else 1.0
        return ["r", "det"], list(zip(rvals.tolist(), dets)), report, worst, quad_n
    errs = np.abs(np.asarray(dets) - refs)
    report["max_abs_err"] = worst = float(np.max(errs))
    return (["r", "det", "reference", "abs_err"],
            list(zip(rvals.tolist(), dets, refs.tolist(), errs.tolist())),
            report, worst, quad_n)


def _hirota_residual(cfg):
    _check_kernel(cfg, ())
    g = _grid_params(cfg, {"t0": 1.0, "x0": 0.2, "r0": 0.5, "h": 0.02})
    hm = painleve.hastings_mcleod()

    def at(h):
        fld = fields.similarity_gue_field(
            hm, g["t0"] - 2 * h, g["x0"] - 2 * h, g["r0"] - 3 * h,
            h, h, h, (5, 5, 7))
        return residuals.hirota_residual(fld)
    rep = at(g["h"])
    ratio = rep.normalized_sup / max(at(g["h"] / 2.0).normalized_sup, 1e-300)
    worst = rep.normalized_sup if ratio >= 3.0 else float("inf")
    return (*_term_table(rep), dict(rep.to_dict(), halving_factor=ratio), worst, None)


def _kp_residual(cfg):
    quad_n = _quad_n(cfg)
    family = str(cfg.kernel.get("family", "nw_fixed_point"))
    # the lattice is placed by [grid]; a kernel point would be ignored
    if family == "airy_process":
        placed_by = {"t": "[grid] t0", "x": "[kernel] xs", "r": "[kernel] rs"}
    else:
        placed_by = {"t": "[grid] t0", "x": "[grid] x0", "r": "[grid] r0",
                     "xs": "[grid] x0", "rs": "[grid] r0"}
    for key, use in placed_by.items():
        if key in cfg.kernel:
            raise ConfigError(f"kp-residual does not read [kernel] {key}; "
                              f"set {use} instead")
    if family == "airy_process":
        _check_kernel(cfg, ("family", "xs", "rs"))
        # two-point distribution as a function of (t, y, a)
        g = _grid_params(cfg, {"t0": 0.98, "ht": 0.02, "hy": 0.02, "ha": 0.02})
        xs = tuple(np.atleast_1d(cfg.kernel.get("xs", (-0.3, 0.4))).astype(float))
        rs = tuple(np.atleast_1d(cfg.kernel.get("rs", (0.5, 0.8))).astype(float))
        specs = [fields.airy_two_point_spec(g["t0"] + g["ht"] * i, xs, rs,
                                            (j - 1) * g["hy"], (k - 3) * g["ha"])
                 for i in range(3) for j in range(3) for k in range(7)]
        vals = fields.sweep(specs, quad_n).reshape(3, 3, 7)
        fld = GridField(g["t0"], -g["hy"], -3 * g["ha"],
                        g["ht"], g["hy"], g["ha"], vals)
    else:
        _check_kernel(cfg, _family_keys(cfg, tuple(_FAMILY_KEYS), tuple(placed_by)))
        fld = _field_from_cfg(cfg)
    rep = residuals.kp_scalar_residual(fld)
    return (*_term_table(rep), rep.to_dict(), rep.normalized_sup, quad_n)


def _matrix_kp(cfg):
    _check_kernel(cfg, _family_keys(cfg, ("multiwedge_extended",), ("wedges",)))
    g = _grid_params(cfg, {"ht": 0.02, "hy": 0.02, "ha": 0.02})
    ht, hy, ha = g["ht"], g["hy"], g["ha"]
    spec = _kernel_spec(cfg)
    quad_n = _quad_n(cfg)
    q_big = fields.q_stencil(spec.t - ht, spec.xs, spec.rs, ht, hy, ha,
                             (3, 5, 9), n_quad=quad_n)
    qf = (q_big[:, :, 2:] - q_big[:, :, :-2]) / (2 * ha)
    rep = residuals.matrix_kp_residual(qf, q_big[:, :, 1:-1], ht, hy, ha)
    ratio, tr_rel = residuals.rank_one_and_trace_check(qf[1, 2], ha)
    worst = (rep.normalized_sup if (ratio < 1e-4 and tr_rel < 1e-4)
             else float("inf"))
    return (["quantity", "value"],
            [("normalized_sup", rep.normalized_sup),
             ("sv_ratio", ratio), ("trace_identity_rel", tr_rel)],
            dict(rep.to_dict(), sv_ratio=ratio, trace_identity_rel=tr_rel),
            worst, quad_n)


def _cyl_kdv(cfg):
    _check_kernel(cfg, _family_keys(cfg, ("kpz_narrow_wedge",), ("t", "x", "xs", "r", "rs")))
    g = _grid_params(cfg, {"t0": 0.98, "r0": 0.88, "ht": 0.02,
                           "hr": 0.02, "nt": 3, "nr": 13})
    quad_n = _quad_n(cfg)
    tg = g["t0"] + g["ht"] * np.arange(int(g["nt"]))
    rg = g["r0"] + g["hr"] * np.arange(int(g["nr"]))
    shift = np.log(np.sqrt(np.pi))
    specs = [KernelSpec("kpz_narrow_wedge", float(t), (0.0,),
                        (float(r - np.log(np.sqrt(np.pi * t))),))
             for t in tg for r in rg]
    # and the two points at t = 1 of the x-independence check
    specs += [KernelSpec("kpz_narrow_wedge", 1.0, (0.0,), (1.0 - shift,)),
              KernelSpec("kpz_narrow_wedge", 1.0, (0.5,), (0.75 - shift,))]
    *lf, xa, xb = fields.sweep(specs, quad_n).tolist()
    vals = np.reshape(lf, (tg.size, 1, rg.size))
    rep = residuals.cylindrical_kdv_residual(
        GridField(tg[0], 0.0, rg[0], g["ht"], 0.0, g["hr"], vals))
    x_indep = abs(xa - xb)
    worst = rep.normalized_sup if x_indep < 1e-4 else float("inf")
    return (*_term_table(rep), dict(rep.to_dict(), x_independence=x_indep),
            worst, quad_n)


def _tail_fit(cfg):
    _check_kernel(cfg, _family_keys(cfg, tuple(_FAMILY_KEYS), ("r", "rs")))
    g = _grid_params(cfg, {"r_min": -7.0, "r_max": -5.0, "r_step": 0.25})
    r = np.arange(g["r_min"], g["r_max"] + 1e-12, g["r_step"])
    spec0 = _kernel_spec(cfg)
    quad_n = _quad_n(cfg, 96)
    lf = fields.sweep([_kernel_spec(cfg, r=float(rv)) for rv in r], quad_n)
    slope, r2 = residuals.tail_slope_fit(r, lf)
    expect = 1.0 / 6.0 if spec0.family == "flat_fixed_point" else 1.0 / 12.0
    rel_dev = abs(slope / expect - 1.0)
    return (["r", "log_f"], list(zip(r.tolist(), lf.tolist())),
            {"slope": slope, "r2": r2, "expected": expect, "rel_dev": rel_dev},
            rel_dev, quad_n)


def _scattering_limit(cfg):
    _check_kernel(cfg, ())
    _grid_params(cfg, {})
    quad_n = _quad_n(cfg)
    cfgw = scattering.WedgeConfig(((0.0, 0.0),), (-1.0, 1.0), (1.0, 1.2))
    rows = scattering.rk_limit_check(cfgw, (0.1, 0.05, 0.02, 0.01),
                                     n_quad=quad_n)
    table = [(rw["t"], f"({i + 1},{j + 1})", float(q), float(rw["target"][i, j]),
              float(abs(q - rw["target"][i, j])))
             for rw in rows for (i, j), q in np.ndenumerate(rw["q"])]
    errors = [rw["max_err"] for rw in rows]
    c_fit, r2 = scattering.t0_kernel_decay_check(2.0, 0.0, -1.0, 1.0)
    d_one = scattering.initial_data_determinant(cfgw, quad_n)
    cfg0 = scattering.WedgeConfig(((0.0, 0.5),), (-1.0, 0.0, 1.0),
                                  (1.0, -0.2, 1.2))
    d_zero = scattering.initial_data_determinant(cfg0, quad_n)
    report = {"errors": errors,
              "monotone_decrease": bool(all(np.diff(errors) < 0)),
              "decay_c": c_fit, "decay_r2": r2,
              "initial_data_errs": [abs(d_one - 1.0), abs(d_zero)]}
    ok = (report["monotone_decrease"] and c_fit > 0 and r2 > 0.99
          and max(report["initial_data_errs"]) < 1e-8)
    return (["t", "entry", "fredholm_value", "oracle_value", "abs_err"], table,
            report, errors[-1] if ok else float("inf"), quad_n)


def _path_integral_check(cfg):
    _check_kernel(cfg, ())
    _grid_params(cfg, {})
    quad_n = _quad_n(cfg)
    rows = []
    for xs, rs, t in [((-0.3, 0.4), (0.5, 0.8), 1.0),
                      ((-0.5, 0.2), (0.0, 0.3), 1.0),
                      ((0.1, 0.9), (1.0, 0.6), 2.0)]:
        fp = scattering.path_integral_determinant(t, xs, rs)
        spec = KernelSpec("multiwedge_extended", t, xs, rs, ((0.0, 0.0),))
        fe = fredholm.det_one_minus(fredholm.assemble(spec, quad_n))
        rows.append((t, str(xs), str(rs), fp, fe, abs(fp - fe)))
    worst = max(rw[-1] for rw in rows)
    return (["t", "xs", "rs", "path_integral", "extended", "abs_err"], rows,
            {"max_err": worst}, worst, quad_n)


def _solve_kp(cfg):
    _check_kernel(cfg, ())
    _grid_params(cfg, {})
    # line-soliton accuracy plus the determinant-field closure test
    c, big_t, dt, n_r, n_x = 0.5, 2.0, 5e-3, 512, 4
    n_steps = int(big_t / dt)
    solver = kpsolver.KPSolver((-20, 20), (-0.5, 0.5), n_r, n_x, dt)
    phi0 = np.broadcast_to(
        kpsolver.soliton_profile(solver.r, c)[None, :], (n_x, n_r)).copy()
    out = solver.evolve(phi0, n_steps)
    ref = kpsolver.soliton_profile(
        (solver.r - c * big_t + 20.0) % 40.0 - 20.0, c)
    soliton_err = float(np.max(np.abs(out - ref[None, :])))
    hm = painleve.hastings_mcleod(L=16.0, R=10.0, n=4001)
    report = kpsolver.evolve_and_compare(
        lambda t, x, r: fields.phi_window_narrow_wedge(hm, t, x, r), 1.0, 1.1)
    grid = report.pop("fields")
    worst = report["sup_error"] if soliton_err < 1e-6 else float("inf")
    report.update({"soliton_sup_error": soliton_err, "soliton_n_x": n_x,
                   "soliton_n_r": n_r, "soliton_n_steps": n_steps,
                   "soliton_dt": dt})
    table = [(float(xv), float(rv), float(pe), float(pt), float(abs(pe - pt)))
             for (xv, rv, pe, pt) in grid]
    return (["x", "r", "phi_evolved", "phi_target", "abs_err"], table,
            report, worst, None)


def _gaussian(d_u=False, d_v=False):
    """The separable kernel exp(-u^2 - v^2), differentiated in u and/or v."""
    def side(w, d):
        w = np.atleast_1d(w)
        return -2 * w * np.exp(-w * w) if d else np.exp(-w * w)
    return lambda u, v: side(u, d_u)[:, None] * side(v, d_v)[None, :]


def _bracket_check(cfg):
    _check_kernel(cfg, ())
    _grid_params(cfg, {})
    quad_n = _quad_n(cfg, 96)
    res = fredholm.boundary_bracket_product_check(
        [[_gaussian()]], [[_gaussian(d_v=True)]], [[_gaussian()]],
        [[_gaussian(d_u=True)]], quad_n)
    return ["quantity", "value"], [("residual", res)], {"residual": res}, res, quad_n


def _spiked_check(cfg):
    _check_kernel(cfg, _family_keys(cfg, ("kpz_spiked",), ("xs", "r", "rs")))
    _grid_params(cfg, {})
    k = cfg.kernel
    t, x = float(k.get("t", 1.0)), float(k.get("x", 0.0))
    anchor = float(k.get("anchor", 0.25))
    spikes = tuple(np.atleast_1d(k.get("spikes", (0.0,))).astype(float))
    quad_n = _quad_n(cfg)
    d0, d1, d0_moved = fields.sweep(
        [KernelSpec("kpz_spiked", t, (x,), (r,), spikes=spikes,
                    contour_anchor=anc)
         for r, anc in ((0.0, anchor), (1.0, anchor), (0.0, anchor + 0.1))],
        quad_n, fredholm.det_one_minus).tolist()
    anchor_dev = abs(d0 - d0_moved)
    h = 0.02
    fld = fields.det_field("kpz_spiked", t - h, x + 0.2 - h, 0.3 - 3 * h,
                           h, h, h, (3, 3, 7), n_quad=quad_n,
                           spec_kw={"spikes": spikes, "contour_anchor": anchor})
    res = residuals.kp_scalar_residual(fld).normalized_sup
    report = {"det_r0": d0, "det_r1": d1, "anchor_dev": anchor_dev,
              "imag_part": 0.0, "kp_residual": res}
    ok = (0.0 < d0 < d1 < 1.0) and anchor_dev < 1e-8
    return (["quantity", "value"], list(report.items()), report,
            res if ok else float("inf"), quad_n)


# command name -> function of the config returning (CSV header, CSV rows,
# report entries, worst, quad_n); quad_n is None for a command that
# assembles no determinant
COMMANDS = {
    "tw-table": _tw_table,
    "det-eval": _det_eval,
    "kp-residual": _kp_residual,
    "hirota-residual": _hirota_residual,
    "matrix-kp": _matrix_kp,
    "cyl-kdv": _cyl_kdv,
    "tail-fit": _tail_fit,
    "scattering-limit": _scattering_limit,
    "path-integral-check": _path_integral_check,
    "solve-kp": _solve_kp,
    "bracket-check": _bracket_check,
    "spiked-check": _spiked_check,
}


def run(cfg: ExperimentConfig):
    """Execute one experiment; returns (exit_code, artifact paths).

    Raises ConfigError for quad_n outside [8, 512], threads < 0, or a
    [kernel] or [grid] key the command does not read, KernelDomainError
    for kernel parameters outside their domain, and QuadratureFailure,
    SingularOperatorError or FloatingPointError when the numerics fail.
    Nothing is written unless the command completes.
    """
    if cfg.quad_n is not None and not 8 <= cfg.quad_n <= 512:
        raise ConfigError(f"quad_n = {cfg.quad_n} outside [8, 512]")
    if cfg.threads < 0:
        raise ConfigError(f"threads = {cfg.threads} is negative; use 0 for one "
                          "thread per CPU")
    header, rows, entries, worst, quad_n = COMMANDS[cfg.command](cfg)
    csv_path = os.path.join(cfg.out, f"{cfg.command}.csv")
    json_path = os.path.join(cfg.out, f"{cfg.command}.json")
    _write_csv(csv_path, header, rows)
    report = {"command": cfg.command, "seed": cfg.seed, **entries,
              "quad_n": quad_n, "worst": float(worst), "tolerance": cfg.tolerance,
              "passed": bool(worst <= cfg.tolerance)}
    with open(json_path, "w") as fh:
        json.dump(_json_safe(report), fh, indent=2, sort_keys=True,
                  default=str, allow_nan=False)
    return (0 if report["passed"] else 1), (csv_path, json_path)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="kpdet", description=__doc__)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", default=None)
    ap.add_argument("--threads", type=int, default=None)
    ap.add_argument("--quad-n", type=int, default=None)
    ap.add_argument("--tolerance", type=float, default=None)
    try:
        args = ap.parse_args(argv)
    except SystemExit:
        return 2
    try:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.out is not None:
        cfg.out = args.out
    if args.threads is not None:
        cfg.threads = args.threads
    if args.quad_n is not None:
        cfg.quad_n = args.quad_n
    if args.tolerance is not None:
        cfg.tolerance = args.tolerance
    try:
        code, paths = run(cfg)
    except (ConfigError, KernelDomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureFailure, SingularOperatorError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    status = "pass" if code == 0 else "FAIL"
    print(f"{cfg.command}: {status}; artifacts: {paths[0]}, {paths[1]}")
    return code


if __name__ == "__main__":
    sys.exit(main())
