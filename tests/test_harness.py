"""The benchmark harness's own self-test, run as a tier-1 test, and the
benchmark's moved configs run through the library.

``perfbench/selftest.py`` checks what the benchmark relies on in the
library: the names its tracer wraps (``fields.assemble`` re-bound from
``fredholm``, public methods such as ``SpikedKernel.matrix`` and
``KPSolver.step``, private helpers such as ``kernels._chain_logmat`` left
alone) and a traced pass whose ``det-eval`` sweep runs on a thread pool.
A library change that breaks one of these fails here, not first in a
benchmark run.  The benchmark also runs its configs with their evaluation
points moved by a seed (``perfbench/workloads.generate``); a seed whose
configs fail ``perfbench/checks.check_run`` fails here too.
"""

import importlib.util
import json
import pathlib
import subprocess
import sys

import pytest

from kpdet import cli

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _perfbench(name):
    """The module perfbench/<name>.py, loaded without adding perfbench to sys.path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("seed", [1, 7])
def test_moved_workload_configs_pass_their_checks(seed, tmp_path):
    workloads, checks = _perfbench("workloads"), _perfbench("checks")
    failed = {}
    for names in workloads.WORKLOADS.values():
        for name in names:
            cfg = cli.parse_config(workloads.generate(str(ROOT), name, seed).decode())
            cfg.out = str(tmp_path / name)
            code, paths = cli.run(cfg)
            result, _ = checks.check_run(cfg, code, *paths)
            with open(paths[1]) as fh:
                result["no warnings"] = json.load(fh)["warnings"] == 0
            if not all(result.values()):
                failed[name] = result
    assert not failed
