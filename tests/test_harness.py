"""The benchmark harness's own self-test, run as a tier-1 test.

``perfbench/selftest.py`` checks what the benchmark relies on in the
library: the names its tracer wraps (``fields.assemble`` re-bound from
``fredholm``, public methods such as ``SpikedKernel.matrix`` and
``KPSolver.step``, private helpers such as ``kernels._chain_logmat`` left
alone) and a traced pass whose ``det-eval`` sweep runs on a thread pool.
A library change that breaks one of these fails here, not first in a
benchmark run.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
