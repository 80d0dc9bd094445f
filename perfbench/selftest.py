"""Self-test of the benchmark harness; run from the root of a checkout.

    python3 perfbench/selftest.py

Checks that seed 0 gives the committed configs byte for byte and other
seeds move only evaluation-point keys; that the tracer wraps re-bound names
and puts every original object back; that on a small traced pass (which
uses the CLI's sweep pool) the layer self times add up to no more than the
traced wall time, the remainder being reported as unattributed; and that
BENCHMARK.json names the workloads and metrics this harness reports.
Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import glob
import importlib
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run as bench  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
from workloads import MOVES, WORKLOADS, config_path, generate  # noqa: E402

FAILURES: list[str] = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        FAILURES.append(what)


def test_generator(cli):
    names = [n for group in WORKLOADS.values() for n in group]
    committed = sorted(os.path.basename(p)[:-4] for p in
                       glob.glob(os.path.join(ROOT, "configs", "acceptance", "*.cfg")))
    check(sorted(names) == committed, "every acceptance config is in exactly one workload")
    for name in names:
        with open(config_path(ROOT, name), "rb") as fh:
            check(generate(ROOT, name, 0) == fh.read(), f"seed 0 gives committed {name}")
    for name in names:
        base = generate(ROOT, name, 0).decode().split("\n")
        for seed in (1, 7, 123456789):
            text = generate(ROOT, name, seed)
            ok = text == generate(ROOT, name, seed)
            lines = text.decode().split("\n")
            ok &= len(lines) == len(base)
            for a, b in zip(base, lines):
                key = a.split("=", 1)[0].strip()
                ok &= a == b or key in MOVES
            cli.parse_config(text.decode())
            check(ok, f"seed {seed} of {name} is repeatable and moves only {sorted(MOVES)}")


def _snapshot():
    snap = {}
    for layer in tracing.LAYERS:
        mod = importlib.import_module(f"kpdet.{layer}")
        for attr, obj in vars(mod).items():
            snap[(mod.__name__, attr)] = obj
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                for cattr, cobj in vars(obj).items():
                    snap[(mod.__name__, attr, cattr)] = cobj
    return snap


def test_wrappers():
    from kpdet import fields, fredholm, kernels, kpsolver, specfun
    before = _snapshot()
    tr = tracing.Tracer()
    with tr:
        check(kernels.airy_ai_log_abs is specfun.airy_ai_log_abs
              and hasattr(kernels.airy_ai_log_abs, "__wrapped__"),
              "kernels.airy_ai_log_abs is re-bound to the specfun wrapper")
        check(fields.assemble is fredholm.assemble
              and hasattr(fields.assemble, "__wrapped__"),
              "fields.assemble is re-bound to the fredholm wrapper")
        check(hasattr(vars(kernels.SpikedKernel)["matrix"], "__wrapped__")
              and hasattr(vars(kpsolver.KPSolver)["step"], "__wrapped__"),
              "public methods are wrapped")
        check(not hasattr(vars(kernels)["_chain_logmat"], "__wrapped__"),
              "private functions are not wrapped")
    after = _snapshot()
    changed = [k for k in before if after.get(k) is not before[k]]
    check(not changed and before.keys() == after.keys() and not tr.patches,
          f"uninstall restores all {len(before)} module and class attributes"
          + (f" (changed: {changed[:5]})" if changed else ""))


def test_self_times(cli, checks):
    names = ("c01_gue", "c02_goe", "c03_hirota", "c09_scattering", "c11_bracket")
    work = os.path.join(ROOT, bench.WORK_DIR, f"selftest-{os.getpid()}")
    try:
        paths = []
        for name in names:
            os.makedirs(work, exist_ok=True)
            path = os.path.join(work, name + ".cfg")
            with open(path, "wb") as fh:
                fh.write(generate(ROOT, name, 0))
            paths.append(path)
        jobs = worker._load(cli, paths, os.path.join(work, "out"))
        tr = tracing.Tracer()
        with tr:
            wall, records = worker._run_pass(cli, jobs)
        worker._check(checks, records)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    summary = tr.summary(wall)["metrics"]
    layer_sum = sum(summary[f"{layer}.self_s"] for layer in tracing.LAYERS)
    check(all(all(r["checks"].values()) for r in records), "traced pass outputs check out")
    threads = {s.thread for s in tr.spans}
    check(len(threads) > 1, f"traced pass ran spans on {len(threads)} threads")
    check(layer_sum <= wall and summary["unattributed_s"] >= 0,
          f"layer self times {layer_sum:.4f} s <= traced wall {wall:.4f} s, "
          f"unattributed {summary['unattributed_s']:.4f} s")
    check(len(tr.cli_runs()) == len(names), "one top-level cli.run span per config")


def test_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
          "BENCHMARK.json workloads match workloads.py")
    check({m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END,
          "BENCHMARK.json end-to-end metrics match run.py")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER,
          "BENCHMARK.json per-layer metrics match run.py")


def main() -> int:
    import checks
    cli = importlib.import_module("kpdet.cli")
    test_generator(cli)
    test_wrappers()
    test_self_times(cli, checks)
    test_benchmark_json()
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
