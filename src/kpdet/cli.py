"""Batch experiment runner: parses a config, runs one named check, emits
a CSV data file plus a JSON report, and exits 0/1/2.

Config format: plain ``key = value`` lines under ``[section]`` headers.
Sections: [run] (command, out, tolerance, quad_n),
[kernel] (family, t, x/xs, r/rs, wedges "a:b,a:b", spikes, anchor),
[grid] (the lattice keys of the command: t0, x0, r0, ht, hx, hy, hr, ha,
h, nt, nx, nr, r_min, r_max, r_step).  ``_KINDS`` gives each key the one
kind its value is parsed by: integer, number (finite or positive where
the key needs it), string, number list or list of a:b pairs.
A key outside its section's table or set twice, a section opened twice,
a value not of its key's kind, or a [kernel] or [grid] key the command
does not read is a config error, so no key is silently ignored.

``COMMANDS`` maps each command name to a private function of the config
that returns its CSV header and rows, its report entries, ``worst`` (the
number held against the tolerance) and the Nystrom size ``quad_n`` it
used; ``run`` then writes the CSV and the JSON report.  Exit codes: 0
pass or ``--help``, 1 ``worst`` above tolerance, 2 usage/config error
(including parameters outside a computation's domain,
``kpdet.DomainError``, and an ``out`` that cannot be written) or
numerical failure (an unresolved quadrature tail, a singular or
non-finite operator); nothing is written when a run exits 2.  The JSON
report records the ``quad_n`` actually used (null for commands that
assemble no determinant) and ``warnings``, the number of Python warnings
(numpy's floating-point RuntimeWarnings among them) the command raised;
no warning is printed, so an exit-2 run writes only its one stderr line.
Non-finite floats in the JSON report are written as the strings "inf",
"-inf" and "nan".
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, field, replace
from itertools import chain, groupby

import numpy as np

from . import DomainError, fields, fredholm, kpsolver, painleve, residuals, scattering
from .fredholm import SingularOperatorError
from .kernels import KernelSpec, QuadratureFailure

__all__ = ["ExperimentConfig", "ConfigError", "parse_config", "run", "main"]


def _checked(cast, ok):
    """cast, raising ValueError where ok(value) fails."""
    def parse(raw):
        value = cast(raw)
        if not ok(value):
            raise ValueError(raw)
        return value
    return parse


_finite = _checked(float, math.isfinite)


def _pair(raw):
    a, b = raw.split(":")
    return _finite(a), _finite(b)


# the kinds of config value, as (name, parse); parse raises ValueError on a
# value not of the kind
_INT = ("an integer", int)
_COUNT = ("a positive integer", _checked(int, lambda v: v > 0))
_NUM = ("a number", _checked(float, lambda v: not math.isnan(v)))
_FINITE = ("a finite number", _finite)
_STEP = ("a positive number", _checked(float, lambda v: 0 < v < math.inf))
_STR = ("a string", str)
_NUMS = ("a list of numbers", lambda raw: tuple(map(_finite, raw.split(","))))
_PAIRS = ("a list of a:b pairs", lambda raw: tuple(map(_pair, raw.split(","))))

# section -> key -> kind: every key a config can set
_KINDS = {
    "run": {"command": _STR, "out": _STR, "tolerance": _NUM, "quad_n": _INT},
    "kernel": {"family": _STR, "t": _FINITE, "x": _FINITE, "xs": _NUMS, "r": _FINITE,
               "rs": _NUMS, "wedges": _PAIRS, "spikes": _NUMS, "anchor": _FINITE},
    "grid": {"t0": _FINITE, "x0": _FINITE, "r0": _FINITE, "ht": _STEP, "hx": _STEP,
             "hy": _STEP, "hr": _STEP, "ha": _STEP, "h": _STEP, "nt": _COUNT,
             "nx": _COUNT, "nr": _COUNT, "r_min": _FINITE, "r_max": _FINITE,
             "r_step": _STEP},
}

# [kernel] keys each family reads besides family; x / xs and r / rs place
# its points
_FAMILY_KEYS = {
    "nw_fixed_point": ("t", "x", "xs", "r", "rs", "wedges"),
    "flat_fixed_point": ("t", "r", "rs"),
    "kpz_narrow_wedge": ("t", "x", "xs", "r", "rs"),
    "kpz_spiked": ("t", "x", "xs", "r", "rs", "spikes", "anchor"),
    # kp-residual only: the two-point distribution on its (t, y, a) lattice
    "airy_process": ("xs", "rs"),
}
# the families with a KernelSpec, which det-eval evaluates
_SPEC_FAMILIES = tuple(f for f in _FAMILY_KEYS if f != "airy_process")

# the most points a command's [grid] may ask for: its lattice (the product
# of nt, nx and nr) or its r range; a hundred times tw-table's 101 rows
MAX_POINTS = 10_000


class ConfigError(ValueError):
    """Malformed config; message carries the offending line number."""


@dataclass
class ExperimentConfig:
    command: str
    out: str = "."
    tolerance: float = float("inf")
    quad_n: int | None = None   # None: the command's own default (_quad_n)
    kernel: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)


def parse_config(text: str) -> ExperimentConfig:
    section, opened = None, set()
    data: dict = {name: {} for name in _KINDS}
    for ln, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in data:
                raise ConfigError(f"line {ln}: unknown section [{section}]")
            if section in opened:
                raise ConfigError(f"line {ln}: section [{section}] opened twice")
            opened.add(section)
            continue
        if "=" not in line:
            raise ConfigError(f"line {ln}: expected key = value")
        if section is None:
            raise ConfigError(f"line {ln}: key outside any section")
        key, raw = (part.strip() for part in line.split("=", 1))
        kinds = _KINDS[section]
        if key not in kinds:
            raise ConfigError(f"line {ln}: [{section}] has no key {key!r}; its keys are "
                              + ", ".join(kinds))
        if key in data[section]:
            raise ConfigError(f"line {ln}: {key} set twice in [{section}]")
        try:
            data[section][key] = kinds[key][1](raw)
        except ValueError:
            raise ConfigError(f"line {ln}: {key} = {raw} is not {kinds[key][0]}") from None
    run = data["run"]
    if "command" not in run:
        raise ConfigError("missing command in [run]")
    if run["command"] not in COMMANDS:
        raise ConfigError(f"unknown command {run['command']!r}; the commands are "
                          + ", ".join(COMMANDS))
    return ExperimentConfig(**run, kernel=data["kernel"], grid=data["grid"])


def _csv_chunks(header, rows):
    yield ",".join(header) + "\n"
    # one % per run of consecutive rows whose values are of the same kinds
    for kinds, run in groupby(rows, lambda row: [isinstance(v, float) for v in row]):
        run = list(run)
        yield ((",".join("%.17g" if f else "%s" for f in kinds) + "\n") * len(run)
               % tuple(chain.from_iterable(run)))


def _write_all(out, texts):
    """Write each {file name: text chunks} into the directory out, all or
    none: the texts go to temporary names, renamed into place once all are
    written.  On an OSError it removes what it made and raises ConfigError."""
    made, head = [], os.path.abspath(out)
    while not os.path.lexists(head):    # the directories to make, outermost first
        made[:0], head = [head], os.path.dirname(head)
    try:
        for d in made:
            os.mkdir(d)
        for name, chunks in texts.items():
            with open(os.path.join(out, "." + name), "w") as fh:
                made.append(fh.name)
                fh.writelines(chunks)
        for name in texts:
            os.replace(os.path.join(out, "." + name), os.path.join(out, name))
            made.append(os.path.join(out, name))
    except OSError as exc:
        for path in reversed(made):     # a renamed temporary is gone already
            with contextlib.suppress(OSError):
                (os.rmdir if os.path.isdir(path) else os.remove)(path)
        raise ConfigError(f"out = {out} cannot be written: {exc}") from None


def _kernel_spec(cfg: ExperimentConfig, family: str, **placed) -> KernelSpec:
    """The spec of the [kernel] section, its family defaulting to family:
    t = 1, xs = (x,) and rs = (r,) with x = r = 0 unless set, and wedges,
    spikes and anchor only where set; placed sets the spec's fields the
    command places itself."""
    k = cfg.kernel
    read = {"family": k.get("family", family), "t": k.get("t", 1.0),
            "xs": k.get("xs", (k.get("x", 0.0),)), "rs": k.get("rs", (k.get("r", 0.0),))}
    read.update((name, k[key]) for key, name in (("wedges", "wedges"), ("spikes", "spikes"),
                                                 ("anchor", "contour_anchor")) if key in k)
    return KernelSpec(**{**read, **placed})


def _checked_grid(cfg, defaults, families, placed):
    """The command's [grid] defaults overridden by the config's [grid].

    Raises ConfigError, before anything is computed, for a key the command
    does not read: a [grid] key not in defaults, a family not in families
    (its default first; none: no [kernel] key is read), or a [kernel] key
    not in the family's _FAMILY_KEYS, in placed (which maps each key the
    command places itself to the key to set instead, or None), or x / r
    where xs / rs is set; and for a grid of no points or more than
    MAX_POINTS points.
    """
    k, reads = cfg.kernel, ()
    if families:
        family = k.get("family", families[0])
        if family not in families:
            raise ConfigError(f"{cfg.command} does not take family {family!r}; "
                              "it takes " + ", ".join(families))
        reads = [key for key in _FAMILY_KEYS[family] if key not in placed]
        reads = ["family", *(key for key in reads
                             if not (key in ("x", "r") and key + "s" in k
                                     and key + "s" in reads))]
    for key in k:
        if placed.get(key):
            raise ConfigError(f"{cfg.command} does not read [kernel] {key}; "
                              f"set {placed[key]} instead")
    for sect, keys in (("kernel", reads), ("grid", defaults)):
        unread = [key for key in getattr(cfg, sect) if key not in keys]
        if unread:
            raise ConfigError(f"{cfg.command} does not read [{sect}] {', '.join(unread)}; "
                              f"it reads {', '.join(keys) or f'no [{sect}] keys'}")
    g = {**defaults, **cfg.grid}
    if "r_step" in g:
        # floor of a non-finite quotient is not finite, so over the limit
        points = np.floor((g["r_max"] - g["r_min"]) / g["r_step"]) + 1
    else:
        points = math.prod(g[key] for key in ("nt", "nx", "nr") if key in g)
    if not 1 <= points <= MAX_POINTS:
        raise ConfigError(f"{cfg.command} would evaluate {points:.6g} points; "
                          f"1 to {MAX_POINTS} are allowed")
    return g


def _quad_n(cfg: ExperimentConfig, default: int = 64) -> int:
    """The configured Nystrom size, or the command's default if unset."""
    return default if cfg.quad_n is None else cfg.quad_n


def _lattice(spec_at, corner, steps, quad_n, value=fields._logdet, head=()):
    """Evaluator at lattice index triples: one ``fields.sweep`` of the specs
    head, then spec_at(t, x, r) at the points corner + step * index, with
    the given value (by default log det(I - K))."""
    return lambda points: fields.sweep(
        [*head, *(spec_at(*(c + h * i for c, h, i in zip(corner, steps, p))) for p in points)],
        quad_n, value)


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
    return ["term", "magnitude"], list(zip(rep["term_names"], rep["term_magnitudes"]))


def _tw_table(cfg):
    g = _checked_grid(cfg, {"r_min": -6.0, "r_max": 4.0, "r_step": 0.1}, (), {})
    r = np.arange(g["r_min"], g["r_max"] + 1e-12, g["r_step"])
    fgue, fgoe = np.exp(painleve.log_f(r))
    monotone = bool(np.all(np.diff(fgue) > 0) and np.all(np.diff(fgoe) > 0))
    return (["r", "f_gue", "f_goe"],
            list(zip(r.tolist(), fgue.tolist(), fgoe.tolist())),
            {"rows": int(r.size), "monotone": monotone},
            0.0 if monotone else 1.0, None)


def _det_eval(cfg):
    g = _checked_grid(cfg, {"r0": -2.0, "hr": 0.5, "nr": 9}, _SPEC_FAMILIES,
                      {"r": "[grid] r0", "rs": "[grid] r0"})
    rvals = g["r0"] + g["hr"] * np.arange(g["nr"])
    specs = [_kernel_spec(cfg, "nw_fixed_point", rs=(rv,)) for rv in rvals.tolist()]
    spec0 = specs[0]
    # the similarity families carry a Painleve reference for comparison,
    # taken first so that an r outside its interval computes nothing
    refs = None
    if spec0.family == "nw_fixed_point" and spec0.wedges == ((0.0, 0.0),):
        x = spec0.xs[0]
        s = rvals / np.cbrt(spec0.t) + x * x / np.cbrt(spec0.t ** 4)
        refs = np.exp(painleve.log_f(s)[0])
    elif spec0.family == "flat_fixed_point":
        refs = np.exp(painleve.log_f(np.cbrt(4.0 / spec0.t) * rvals)[1])
    quad_n = _quad_n(cfg)
    # imported here: concurrent.futures pulls in logging, which no other
    # command needs
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(max_workers=os.cpu_count() or 1) as ex:
        dets = fields.sweep(specs, quad_n, fredholm.det_one_minus, ex.map).tolist()
    report = {"values": dets}
    if refs is None:
        worst = 0.0 if all(0.0 <= d <= 1.0 + 1e-9 for d in dets) else 1.0
        return ["r", "det"], list(zip(rvals.tolist(), dets)), report, worst, quad_n
    errs = np.abs(np.asarray(dets) - refs)
    report["max_abs_err"] = worst = float(np.max(errs))
    return (["r", "det", "reference", "abs_err"],
            list(zip(rvals.tolist(), dets, refs.tolist(), errs.tolist())),
            report, worst, quad_n)


def _hirota_residual(cfg):
    g = _checked_grid(cfg, {"t0": 1.0, "x0": 0.2, "r0": 0.5, "h": 0.02}, (), {})

    def at(h):
        corner = (g["t0"] - 2 * h, g["x0"] - 2 * h, g["r0"] - 3 * h)
        return residuals.hirota_residual(
            lambda points: np.exp(fields.similarity_gue_log_f(corner, (h, h, h), points)),
            (h, h, h), (5, 5, 7))
    rep = at(g["h"])
    ratio = rep["normalized_sup"] / max(at(g["h"] / 2.0)["normalized_sup"], 1e-300)
    worst = rep["normalized_sup"] if ratio >= 3.0 else float("inf")
    return (*_term_table(rep), dict(rep, halving_factor=ratio), worst, None)


def _kp_residual(cfg):
    quad_n = _quad_n(cfg)
    # the lattice is placed by [grid]; a kernel point would be ignored
    if cfg.kernel.get("family") == "airy_process":
        # two-point distribution as a function of (t, y, a)
        g = _checked_grid(cfg, {"t0": 0.98, "ht": 0.02, "hy": 0.02, "ha": 0.02},
                          tuple(_FAMILY_KEYS),
                          {"t": "[grid] t0", "x": "[kernel] xs", "r": "[kernel] rs"})
        xs = cfg.kernel.get("xs", (-0.3, 0.4))
        rs = cfg.kernel.get("rs", (0.5, 0.8))
        steps, dims = (g["ht"], g["hy"], g["ha"]), (3, 3, 7)
        value = _lattice(lambda t, y, a: fields.airy_two_point_spec(t, xs, rs, y, a),
                         (g["t0"], -g["hy"], -3 * g["ha"]), steps, quad_n)
    else:
        g = _checked_grid(cfg, {"t0": 0.98, "x0": 0.18, "r0": 0.44, "ht": 0.02,
                                "hx": 0.02, "hr": 0.02, "nt": 3, "nx": 3, "nr": 7},
                          tuple(_FAMILY_KEYS),
                          {"t": "[grid] t0", "x": "[grid] x0", "xs": "[grid] x0",
                           "r": "[grid] r0", "rs": "[grid] r0"})
        base = _kernel_spec(cfg, "nw_fixed_point")
        steps, dims = (g["ht"], g["hx"], g["hr"]), (g["nt"], g["nx"], g["nr"])
        value = _lattice(lambda t, x, r: replace(base, t=t, xs=(x,), rs=(r,)),
                         (g["t0"], g["x0"], g["r0"]), steps, quad_n)
    rep = residuals.kp_scalar_residual(value, steps, dims)
    return (*_term_table(rep), rep, rep["normalized_sup"], quad_n)


def _matrix_kp(cfg):
    g = _checked_grid(cfg, {"ht": 0.02, "hy": 0.02, "ha": 0.02},
                      ("nw_fixed_point",), {"wedges": None})
    steps = ht, hy, ha = g["ht"], g["hy"], g["ha"]
    spec, quad_n = _kernel_spec(cfg, "nw_fixed_point"), _quad_n(cfg)
    # the (t, y, a) lattice (3, 5, 9) centred on (t, 0, 0)
    rep = residuals.matrix_kp_residual(
        _lattice(lambda t, y, a: fields.airy_two_point_spec(t, spec.xs, spec.rs, y, a),
                 (spec.t - ht, -(hy * 2), -(ha * 4)), steps, quad_n,
                 fredholm.boundary_resolvent),
        steps, (3, 5, 9))
    ratio, tr_rel = rep["sv_ratio"], rep["trace_identity_rel"]
    worst = (rep["normalized_sup"] if (ratio < 1e-4 and tr_rel < 1e-4)
             else float("inf"))
    return (["quantity", "value"],
            [("normalized_sup", rep["normalized_sup"]),
             ("sv_ratio", ratio), ("trace_identity_rel", tr_rel)],
            rep, worst, quad_n)


def _cyl_kdv(cfg):
    g = _checked_grid(cfg, {"t0": 0.98, "r0": 0.88, "ht": 0.02,
                            "hr": 0.02, "nt": 3, "nr": 13},
                      ("kpz_narrow_wedge",), {"t": "[grid] t0", "x": None, "xs": None,
                                              "r": "[grid] r0", "rs": "[grid] r0"})
    quad_n, base = _quad_n(cfg), _kernel_spec(cfg, "kpz_narrow_wedge")
    steps = (g["ht"], 0.0, g["hr"])
    rep = residuals.cylindrical_kdv_residual(
        _lattice(lambda t, _, r: replace(base, t=t, rs=(float(r - np.log(np.sqrt(np.pi * t))),)),
                 (g["t0"], 0.0, g["r0"]), steps, quad_n),
        g["t0"], steps, (g["nt"], 1, g["nr"]))
    # the two points at t = 1 of the x-independence check
    shift = np.log(np.sqrt(np.pi))
    xa, xb = fields.sweep([replace(base, rs=(1.0 - shift,)),
                           replace(base, xs=(0.5,), rs=(0.75 - shift,))], quad_n).tolist()
    x_indep = abs(xa - xb)
    worst = rep["normalized_sup"] if x_indep < 1e-4 else float("inf")
    return (*_term_table(rep), dict(rep, x_independence=x_indep), worst, quad_n)


def _tail_fit(cfg):
    g = _checked_grid(cfg, {"r_min": -7.0, "r_max": -5.0, "r_step": 0.25},
                      ("nw_fixed_point", "flat_fixed_point"),
                      {"r": "[grid] r_min", "rs": "[grid] r_min"})
    r = np.arange(g["r_min"], g["r_max"] + 1e-12, g["r_step"])
    quad_n = _quad_n(cfg, 96)
    spec = _kernel_spec(cfg, "nw_fixed_point", rs=(g["r_min"],))
    lf = fields.sweep([replace(spec, rs=(rv,)) for rv in r.tolist()], quad_n)
    # log F ~ -|s|^3/12 at s = t^(-1/3) (r - b + (x - a)^2/t) for a wedge (a, b)
    # (of several the smallest shift leads), -|s|^3/24 at s = 4^(1/3) t^(-1/3) r flat
    t, flat = spec.t, spec.family == "flat_fixed_point"
    shift = 0.0 if flat else min((spec.xs[0] - a) ** 2 / t - b for a, b in spec.wedges)
    slope, r2 = residuals.tail_slope_fit(r + shift, lf)
    expect = 1.0 / (6.0 * t) if flat else 1.0 / (12.0 * t)
    rel_dev = abs(slope / expect - 1.0)
    return (["r", "log_f"], list(zip(r.tolist(), lf.tolist())),
            {"slope": slope, "r2": r2, "expected": expect, "rel_dev": rel_dev},
            rel_dev, quad_n)


def _scattering_limit(cfg):
    _checked_grid(cfg, {}, (), {})
    quad_n = _quad_n(cfg)
    spec = KernelSpec("nw_fixed_point", 1e-3, (-1.0, 1.0), (1.0, 1.2), ((0.0, 0.0),))
    rows = scattering.rk_limit_check(spec, (0.1, 0.05, 0.02, 0.01), n_quad=quad_n)
    table = [(rw["t"], f"({i + 1},{j + 1})", float(q), float(rw["target"][i, j]),
              float(abs(q - rw["target"][i, j])))
             for rw in rows for (i, j), q in np.ndenumerate(rw["q"])]
    errors = [rw["max_err"] for rw in rows]
    c_fit, r2 = scattering.t0_kernel_decay_check(2.0, 0.0, -1.0, 1.0)
    # near t = 0 the determinant reads the initial data prod 1{r_i >= h0(x_i)}:
    # 1 for spec, whose levels lie above the profile, and for r = -0.2 under
    # the wedge (0, 0.5) F_GUE(t^(-1/3) (r - b)) = F_GUE(-7), 2.6e-13 at t = 1e-3
    d_one, d_zero = fields.sweep(
        [spec, KernelSpec("nw_fixed_point", 1e-3, (-1.0, 0.0, 1.0), (1.0, -0.2, 1.2),
                          ((0.0, 0.5),))],
        quad_n, fredholm.det_one_minus).tolist()
    report = {"errors": errors,
              "monotone_decrease": bool(all(np.diff(errors) < 0)),
              "decay_c": c_fit, "decay_r2": r2,
              "initial_data_errs": [abs(d_one - 1.0), abs(d_zero)]}
    ok = (report["monotone_decrease"] and c_fit > 0 and r2 > 0.99
          and max(report["initial_data_errs"]) < 1e-8)
    return (["t", "entry", "fredholm_value", "oracle_value", "abs_err"], table,
            report, errors[-1] if ok else float("inf"), quad_n)


def _path_integral_check(cfg):
    _checked_grid(cfg, {}, (), {})
    quad_n = _quad_n(cfg)
    rows = []
    for xs, rs, t in [((-0.3, 0.4), (0.5, 0.8), 1.0),
                      ((-0.5, 0.2), (0.0, 0.3), 1.0),
                      ((0.1, 0.9), (1.0, 0.6), 2.0)]:
        fp = scattering.path_integral_determinant(t, xs, rs)
        spec = KernelSpec("nw_fixed_point", t, xs, rs, ((0.0, 0.0),))
        fe = fredholm.det_one_minus(fredholm.assemble(spec, quad_n))
        rows.append((t, str(xs), str(rs), fp, fe, abs(fp - fe)))
    worst = max(rw[-1] for rw in rows)
    return (["t", "xs", "rs", "path_integral", "extended", "abs_err"], rows,
            {"max_err": worst}, worst, quad_n)


def _solve_kp(cfg):
    _checked_grid(cfg, {}, (), {})
    # line soliton at dt and 2 dt, whose error ratio checks the order
    # (2^4 = 16; measured 16.04), plus the determinant-field closure test
    big_t, dt = 2.0, 1e-2
    err, coarse_err = (kpsolver.soliton_sup_error(h, big_t) for h in (dt, 2 * dt))
    report = kpsolver.evolve_and_compare(fields.phi_window_narrow_wedge, 1.0, 1.1)
    table = report.pop("fields")
    report.update({"soliton_sup_error": err, "soliton_order_ratio": coarse_err / err,
                   "soliton_n_x": 1, "soliton_n_r": 512,
                   "soliton_n_steps": round(big_t / dt), "soliton_dt": dt})
    ok = err < 1e-6 and 15.5 <= report["soliton_order_ratio"] <= 16.5
    return (["x", "r", "phi_evolved", "phi_target", "abs_err"], table,
            report, report["sup_error"] if ok else float("inf"), None)


def _gaussian(d_u=False, d_v=False):
    """The separable kernel exp(-u^2 - v^2), differentiated in u and/or v."""
    def side(w, d):
        w = np.atleast_1d(w)
        return -2 * w * np.exp(-w * w) if d else np.exp(-w * w)
    return lambda u, v: side(u, d_u)[:, None] * side(v, d_v)[None, :]


def _bracket_check(cfg):
    _checked_grid(cfg, {}, (), {})
    quad_n = _quad_n(cfg, 96)
    res = fredholm.boundary_bracket_product_check(
        _gaussian(), _gaussian(d_v=True), _gaussian(), _gaussian(d_u=True), quad_n)
    return ["quantity", "value"], [("residual", res)], {"residual": res}, res, quad_n


def _spiked_check(cfg):
    _checked_grid(cfg, {}, ("kpz_spiked",), {"xs": "[kernel] x", "r": None, "rs": None})
    # the one spike at 0 unless spikes is set
    base = _kernel_spec(cfg, "kpz_spiked", spikes=cfg.kernel.get("spikes", (0.0,)))
    quad_n, h = _quad_n(cfg), 0.02
    # the moved anchor needs rules of its own: a one-point sweep, run first
    (d0_moved,) = fields.sweep([replace(base, rs=(0.0,), contour_anchor=base.contour_anchor + 0.1)],
                               quad_n, fredholm.det_one_minus)
    lattice = _lattice(lambda t, x, r: replace(base, t=t, xs=(x,), rs=(r,)),
                       (base.t - h, base.xs[0] + 0.2 - h, 0.3 - 3 * h), (h, h, h), quad_n,
                       head=[replace(base, rs=(r,)) for r in (0.0, 1.0)])
    logs = []

    def stencil(points):
        # r = 0 and 1 join the points the stencil reads: one sweep, one set of rules
        logs[:] = lattice(points)
        return logs[2:]
    res = residuals.kp_scalar_residual(stencil, (h, h, h), (3, 3, 7))["normalized_sup"]
    d0, d1 = np.exp(logs[:2]).tolist()
    anchor_dev = abs(d0 - d0_moved)
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

    Raises ConfigError for quad_n outside [8, 512], a [kernel] or [grid]
    key the command does not read, or an out that cannot be written,
    DomainError for parameters outside a computation's domain, and
    QuadratureFailure, SingularOperatorError or an ArithmeticError (a
    non-finite operator, a division by zero, an overflow) when the
    numerics fail.  Nothing is written unless the command completes and
    both its files can be; its warnings are counted in the report, not shown.
    """
    if cfg.quad_n is not None and not 8 <= cfg.quad_n <= 512:
        raise ConfigError(f"quad_n = {cfg.quad_n} outside [8, 512]")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        header, rows, entries, worst, quad_n = COMMANDS[cfg.command](cfg)
    report = {"command": cfg.command, **entries,
              "quad_n": quad_n, "worst": float(worst), "tolerance": cfg.tolerance,
              "passed": bool(worst <= cfg.tolerance), "warnings": len(caught)}
    texts = {f"{cfg.command}.csv": _csv_chunks(header, rows),
             f"{cfg.command}.json": [json.dumps(_json_safe(report), indent=2, sort_keys=True,
                                                default=str, allow_nan=False)]}
    _write_all(cfg.out, texts)
    return (0 if report["passed"] else 1), tuple(os.path.join(cfg.out, n) for n in texts)


def main(argv=None) -> int:
    import argparse     # only main parses argv; run and the library never do
    ap = argparse.ArgumentParser(prog="kpdet", description=__doc__)
    ap.add_argument("--config", required=True)
    flags = ("out", "quad_n", "tolerance")
    for key in flags:
        ap.add_argument("--" + key.replace("_", "-"))

    def usage_error(message):   # one config error line, not argparse's usage
        raise ConfigError(message)
    ap.error = usage_error
    try:
        args = ap.parse_args(argv)
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
        for key in flags:   # each overrides its [run] key, parsed by its kind
            kind, parse = _KINDS["run"][key]
            raw = getattr(args, key)
            try:
                if raw is not None:
                    setattr(cfg, key, parse(raw))
            except ValueError:
                raise ConfigError(f"--{key.replace('_', '-')} {raw} is not {kind}") from None
        code, paths = run(cfg)
    except SystemExit:  # --help, printed; a usage error is a ConfigError
        return 0
    except (OSError, ConfigError, DomainError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureFailure, SingularOperatorError, ArithmeticError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2
    status = "pass" if code == 0 else "FAIL"
    print(f"{cfg.command}: {status}; artifacts: {paths[0]}, {paths[1]}")
    return code


if __name__ == "__main__":
    sys.exit(main())
