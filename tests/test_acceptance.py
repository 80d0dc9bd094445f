"""Acceptance suite: every committed acceptance config through ``cli.run``.

Each case runs one config of ``configs/acceptance`` (plus the x = 0 row of
criterion 1, which no committed config covers) in process and asserts
that it exits 0 with ``passed``, i.e. ``worst`` is within the config's
tolerance, that every sub-check the command folds into ``worst`` holds
in its report, and that it raised no warning.  An assertion message
carries the criterion's label.
"""

import json
import pathlib

import pytest

from kpdet import cli

CONFIG_DIR = pathlib.Path(__file__).resolve().parents[1] / "configs" / "acceptance"

CASES = {path.stem: path.read_text() for path in sorted(CONFIG_DIR.glob("*.cfg"))}
CASES["c01_gue_x0"] = """\
# criterion 1, x = 0 row: narrow-wedge determinant equals F_GUE(r), tol 1e-6
[run]
command = det-eval
tolerance = 1e-6
quad_n = 64
[kernel]
family = nw_fixed_point
t = 1.0
x = 0.0
wedges = 0:0
[grid]
r0 = -2.0
hr = 2.0
nr = 3
"""

# label of the number each case holds against its tolerance (``worst``)
WORST_LABELS = {
    "c01_gue": "1 GUE similarity (x = 0.5, 3 points)",
    "c01_gue_x0": "1 GUE similarity (x = 0, 3 points)",
    "c02_goe": "2 GOE similarity (3 points)",
    "c03_hirota": "3 Hirota residual @ h=0.02",
    "c04a_kp_fixed_point": "4a scalar KP (fixed point, determinants)",
    "c04b_kp_kpz": "4b scalar KP (KPZ generating function)",
    "c05_matrix_kp": "5 matrix KP residual (n=2)",
    "c06_airy_process": "6 two-point KP in (t, y, a)",
    "c07_cyl_kdv": "7 cylindrical KdV residual",
    "c08a_tail_flat": "8 flat tail slope deviation",
    "c08b_tail_nw": "8 narrow-wedge tail slope deviation",
    "c09_scattering": "9 rk-limit final error (t=0.01)",
    "c10_path_integral": "10 path-integral vs extended (3 configs)",
    "c11_bracket": "11 bracket identity residual",
    "c12_solve_kp": "12 closure: evolved vs determinant field",
    "c13_spiked": "13 spiked scalar KP residual",
}

# the sub-checks each command folds into worst: (label, test on the report)
SUB_CHECKS = {
    "hirota-residual": [
        ("3 Hirota halving factor >= 3", lambda r: r["halving_factor"] >= 3.0),
    ],
    "matrix-kp": [
        ("5 rank-one sigma2/sigma1 < 1e-4", lambda r: r["sv_ratio"] < 1e-4),
        ("5 trace identity (relative) < 1e-4", lambda r: r["trace_identity_rel"] < 1e-4),
    ],
    "cyl-kdv": [
        ("7 x-independence of shifted field < 1e-4", lambda r: r["x_independence"] < 1e-4),
    ],
    "scattering-limit": [
        ("9 rk-limit errors decrease", lambda r: r["monotone_decrease"]),
        ("9 decay fit: c > 0, r2 > 0.99",
         lambda r: r["decay_c"] > 0 and r["decay_r2"] > 0.99),
        ("9 initial-data determinant |1 - det| < 1e-8",
         lambda r: r["initial_data_errs"][0] < 1e-8),
        ("9 initial-data determinant |det| < 1e-8",
         lambda r: r["initial_data_errs"][1] < 1e-8),
    ],
    "solve-kp": [
        ("12 line-soliton sup error (t=2) < 1e-6", lambda r: r["soliton_sup_error"] < 1e-6),
        ("12 line-soliton order ratio err(2 dt)/err(dt) in [15.5, 16.5]",
         lambda r: 15.5 <= r["soliton_order_ratio"] <= 16.5),
    ],
    "spiked-check": [
        ("13 determinant imaginary part", lambda r: r["imag_part"] == 0.0),
        ("13 anchor independence < 1e-8", lambda r: r["anchor_dev"] < 1e-8),
        ("13 determinant a probability, monotone in r: 0 < det(r=0) < det(r=1) < 1",
         lambda r: 0.0 < r["det_r0"] < r["det_r1"] < 1.0),
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_acceptance_config(name, tmp_path):
    cfg = cli.parse_config(CASES[name])
    cfg.out = str(tmp_path)
    code, (_, json_path) = cli.run(cfg)
    report = json.loads(pathlib.Path(json_path).read_text())
    label = WORST_LABELS.get(name, name)
    assert code == 0 and report["passed"] is True, (
        f"[FAIL] {label}: {report['worst']} !<= {report['tolerance']}")
    assert report["warnings"] == 0, f"[FAIL] {label}: {report['warnings']} warnings"
    for label, ok in SUB_CHECKS.get(cfg.command, []):
        assert ok(report), f"[FAIL] {label}: {report}"
