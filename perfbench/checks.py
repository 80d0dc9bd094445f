"""Output checks behind the benchmark's ``attempted`` / ``failed`` counts.

Every config run through ``kpdet.cli.run`` gets these checks:

* ``exit``: the run returned exit code 0 (an exception counts as a failure);
* ``report``: the JSON report says ``passed`` and its ``worst`` is finite;
* ``rows``: the CSV has as many data rows as the config's lattice asks for;
* ``swept``: for commands that sweep a parameter, each swept value column
  is not the same on every row (a sweep the program ignored reads flat).
"""

from __future__ import annotations

import csv
import json
import math

# Data rows of the CSV for commands whose row count does not come from the
# config: residual term tables and fixed check lists.
FIXED_ROWS = {
    "hirota-residual": 7,
    "kp-residual": 4,
    "cyl-kdv": 5,
    "matrix-kp": 3,
    "scattering-limit": 16,
    "path-integral-check": 3,
    "bracket-check": 1,
    "spiked-check": 5,
    "solve-kp": 4575,
}

# Columns that carry the swept values of each sweeping command.
SWEPT = {
    "det-eval": ("det",),
    "tail-fit": ("log_f",),
    "scattering-limit": ("fredholm_value",),
    "path-integral-check": ("path_integral", "extended"),
    "solve-kp": ("phi_evolved",),
}


def expected_rows(cfg) -> int:
    """Row count the config's lattice implies, with the CLI's grid defaults."""
    g = cfg.grid
    if cfg.command == "det-eval":
        return int(g.get("nr", 9))
    if cfg.command == "tail-fit":
        lo, hi = float(g.get("r_min", -7.0)), float(g.get("r_max", -5.0))
        step = float(g.get("r_step", 0.25))
        return int(math.floor((hi - lo + 1e-12) / step)) + 1
    return FIXED_ROWS[cfg.command]


def check_run(cfg, code, csv_path, json_path) -> tuple[dict, float]:
    """Return ({check: ok}, worst / tolerance) for one finished run.

    ``code`` is None when the run raised.  The ratio is NaN when the report
    is missing or its ``worst`` is not finite.
    """
    out = {"exit": code == 0}
    ratio = float("nan")
    try:
        with open(json_path) as fh:
            rep = json.load(fh)
        worst, tol = float(rep["worst"]), float(rep["tolerance"])
        out["report"] = bool(rep["passed"]) and math.isfinite(worst)
        if math.isfinite(worst) and tol > 0:
            ratio = worst / tol
    except (OSError, ValueError, KeyError, TypeError):
        out["report"] = False
    try:
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError:
        rows = None
    out["rows"] = rows is not None and len(rows) == expected_rows(cfg)
    if cfg.command in SWEPT:
        out["swept"] = bool(rows) and all(
            col in rows[0] and len({r[col] for r in rows}) > 1
            for col in SWEPT[cfg.command])
    return out, ratio
