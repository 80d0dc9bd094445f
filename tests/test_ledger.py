"""Count ledger: the traced counts of each benchmark workload at seed 0.

The benchmark's per-layer counts (special-function points, kernel blocks
and entries, assemblies, factorizations, resolvents, quadrature rules, KP
steps) depend only on the program, not on the machine, so a change that
moves one shows here as a test failure instead of first in a benchmark
run.  Each workload runs once in a fresh process, as one traced pass of
the benchmark does, through the benchmark's own code: ``tracer.Tracer``,
``worker._run_pass`` and ``workloads.generate``.  ``tests/ledger.json``
holds the counts; after a deliberate change,

    python tests/test_ledger.py --write

prints the counts that moved and rewrites the file.
"""

import json
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
LEDGER = ROOT / "tests" / "ledger.json"
WORKLOADS = ("spiked", "multipoint", "onepoint")
COUNTS = ("specfun.points", "kernels.block_calls", "kernels.entries",
          "kernels.log_matmul_calls", "fredholm.assembles", "fredholm.factorizations",
          "fredholm.resolvents", "quadrature.rules", "kpsolver.steps")

# one traced pass of a workload's seed-0 configs; prints its counts and the
# errors of configs that did not run
_PASS = """
import json, os, sys, tempfile
root, workload, counts = sys.argv[1], sys.argv[2], sys.argv[3:]
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
import tracer, worker, workloads
from kpdet import cli
with tempfile.TemporaryDirectory() as out:
    jobs = []
    for name in workloads.WORKLOADS[workload]:
        cfg = cli.parse_config(workloads.generate(root, name, 0).decode())
        cfg.out = os.path.join(out, name)
        jobs.append((name, cfg, None))
    with tracer.Tracer() as tr:
        wall, records = worker._run_pass(cli, jobs)
metrics = tr.summary(wall)["metrics"]
print(json.dumps({"counts": {k: metrics[k] for k in counts},
                  "errors": [r["error"] for r in records if r["error"]]}))
"""


def measure():
    """{workload: {count: value}} of one traced pass per workload, the
    passes in parallel fresh processes."""
    procs = {w: subprocess.Popen([sys.executable, "-c", _PASS, str(ROOT), w, *COUNTS],
                                 stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
             for w in WORKLOADS}
    got = {}
    for w, proc in procs.items():
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        result = json.loads(out)
        assert not result["errors"], f"{w}: {result['errors']}"
        got[w] = {k: int(v) if v == int(v) else v for k, v in result["counts"].items()}
    return got


def moved(old, new):
    """Lines 'workload count: old -> new' of each count that differs."""
    return [f"{w} {k}: {old.get(w, {}).get(k)} -> {v}"
            for w in new for k, v in new[w].items() if old.get(w, {}).get(k) != v]


@pytest.fixture(scope="module")
def measured():
    return measure()


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_counts_match_the_ledger(measured, workload):
    ledger = json.loads(LEDGER.read_text())
    assert not moved(ledger, {workload: measured[workload]})


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: python {sys.argv[0]} --write")
    new = measure()
    old = json.loads(LEDGER.read_text()) if LEDGER.exists() else {}
    print("\n".join(moved(old, new)) or "no count moved")
    LEDGER.write_text(json.dumps(new, indent=1) + "\n")
