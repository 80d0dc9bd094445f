"""Workloads of the benchmark and the seeded config generator.

Each workload is a group of the acceptance configs under
``configs/acceptance``.  Seed 0 returns the committed config bytes
unchanged.  Any other seed moves each config's evaluation point (the keys
in ``MOVES``) by a uniform amount inside the half-widths given there; keys
not listed, and configs that have none of the listed keys, are left as they
are.  The program only sees the generated text.
"""

from __future__ import annotations

import os
import random
import re

CONFIG_DIR = os.path.join("configs", "acceptance")

WORKLOADS = {
    "spiked": ("c13_spiked",),
    "multipoint": ("c05_matrix_kp", "c06_airy_process", "c10_path_integral"),
    "onepoint": ("c01_gue", "c02_goe", "c03_hirota", "c04a_kp_fixed_point",
                 "c04b_kp_kpz", "c07_cyl_kdv", "c08a_tail_flat", "c08b_tail_nw",
                 "c09_scattering", "c11_bracket", "c12_solve_kp"),
}

# Half-width of the uniform move of each evaluation-point key for seed != 0.
# Comma lists (xs, rs, spikes) move each entry independently; the xs moves
# are small against the 0.7 gap, so positions stay increasing, and the
# spike moves keep every spike left of the default contour anchor 0.25.
# The xs / rs moves are kept small because the two-point KP residual of
# c06, which sets the multipoint err_ratio, changes fast with them.
MOVES = {
    "t0": 0.01,
    "x0": 0.02,
    "r0": 0.05,
    "x": 0.05,
    "xs": 0.01,
    "rs": 0.015,
    "spikes": 0.05,
}

_KEY_LINE = re.compile(r"^(\s*)(\w+)(\s*=\s*)([^#\r\n]*?)(\s*(?:#.*)?)$")


def config_path(root: str, name: str) -> str:
    return os.path.join(root, CONFIG_DIR, name + ".cfg")


def _move_line(line: str, rng: random.Random) -> str:
    m = _KEY_LINE.match(line)
    if m is None or m.group(2) not in MOVES:
        return line
    half = MOVES[m.group(2)]
    values = [float(v) + rng.uniform(-half, half)
              for v in m.group(4).split(",")]
    text = ",".join(repr(round(v, 6)) for v in values)
    return m.group(1) + m.group(2) + m.group(3) + text + m.group(5)


def generate(root: str, name: str, seed: int) -> bytes:
    """Config bytes for ``name`` under ``seed``; seed 0 is the committed file."""
    with open(config_path(root, name), "rb") as fh:
        raw = fh.read()
    if seed == 0:
        return raw
    rng = random.Random(f"{seed}/{name}")
    lines = raw.decode("utf-8").split("\n")
    return "\n".join(_move_line(ln, rng) for ln in lines).encode("utf-8")


def write_configs(root: str, workload: str, seed: int, dest: str) -> list[str]:
    """Write the workload's generated configs into ``dest``; returns paths."""
    os.makedirs(dest, exist_ok=True)
    paths = []
    for name in WORKLOADS[workload]:
        path = os.path.join(dest, name + ".cfg")
        with open(path, "wb") as fh:
            fh.write(generate(root, name, seed))
        paths.append(path)
    return paths
