"""Benchmark of the kpdet acceptance configs, run from the root of a checkout.

    python3 perfbench/run.py --workload {spiked,multipoint,onepoint,all}
                             [--seed N] [--seconds S] [--trace 0|1]

A run writes the workload's configs for ``--seed`` (see workloads.py), does
one untimed warm-up import, then starts fresh worker processes, one pass of
all the configs each, to fill ``--seconds`` (at least one pass; see
``Runner.passes``).  With ``--trace 0`` it reports the end-to-end metrics:

  wall_s       median seconds of a pass through ``kpdet.cli.run``
  setup_s      median seconds of ``import kpdet`` and its layer modules in a
               fresh process, over the passes plus extra import probes so
               that there are at least seven samples
  peak_rss_mb  median peak resident memory of a worker process
  err_ratio    largest worst / tolerance over the JSON reports whose
               worst is finite (a non-finite worst fails a check)

With ``--trace 1`` the first half of ``--seconds`` goes to untraced passes
and the second half to traced ones (at least one of each), and it reports
the per-layer metrics of tracer.py (medians over traced passes) plus
``trace_overhead_s``, traced minus untraced median pass time.

Every config's outputs are checked (checks.py); ``attempted`` and
``failed`` count those checks and fail_frac = failed / attempted.  The last
line of stdout is one JSON object; the lines before it are a readable table
and the run metadata.  Working files go under ``.perfbench-work/`` in the
checkout; the per-run result file (with per-config times and, when traced,
per-config ``cli.run`` spans) stays there, the rest is removed.  Exits 2
without a result when the checkout lacks ``src/kpdet`` or the configs, and
1 when a worker process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import CONFIG_DIR, WORKLOADS, write_configs  # noqa: E402

# Thread pins for the benchmark's own processes; the CLI's sweep pool keeps
# its default of os.cpu_count() threads.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
SETUP_SAMPLES = 7
RUN_LIMIT_S = 170.0
WORK_DIR = ".perfbench-work"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "err_ratio": "ratio"}
PER_LAYER = {
    "specfun.self_s": "s", "specfun.points": "count",
    "specfun.ns_per_point": "ns", "specfun.repeat_frac": "ratio",
    "quadrature.self_s": "s", "quadrature.rules": "count",
    "kernels.self_s": "s", "kernels.block_calls": "count",
    "kernels.entries": "count", "kernels.spiked_matrix_s": "s",
    "kernels.log_matmul_calls": "count", "kernels.log_matmul_s": "s",
    "fredholm.self_s": "s", "fredholm.assembles": "count",
    "fredholm.factorizations": "count", "fredholm.resolvents": "count",
    "fredholm.lu_gflop": "Gflop-computed",
    "painleve.self_s": "s", "painleve.hm_solves": "count",
    "scattering.self_s": "s", "residuals.self_s": "s",
    "fields.self_s": "s", "fields.points": "count",
    "kpsolver.self_s": "s", "kpsolver.steps": "count",
    "kpsolver.ms_per_step": "ms", "kpsolver.init_s": "s",
    "cli.self_s": "s",
    "trace_overhead_s": "s", "traced_wall_s": "s", "unattributed_s": "s",
}


class BenchError(RuntimeError):
    """A worker process failed or the run went over its time limit."""


def _env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.update(THREAD_ENV)
    return env


def _machine(root) -> dict:
    commit = None
    if os.path.exists(os.path.join(root, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "nproc": os.cpu_count(), "cpu": cpu,
            "thread_env": THREAD_ENV}


class Runner:
    """Starts worker processes for one benchmark run, inside a time limit."""

    def __init__(self, root, run_dir):
        self.root, self.run_dir = root, run_dir
        self.env = _env(root)
        self.t_start = time.monotonic()
        self.count = 0

    def _call(self, args):
        left = RUN_LIMIT_S - (time.monotonic() - self.t_start)
        if left <= 0:
            raise BenchError("run time limit reached")
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), *args],
                cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=left)
        except subprocess.TimeoutExpired as exc:
            raise BenchError("worker went over the run time limit") from exc
        if proc.returncode != 0:
            raise BenchError(f"worker exited {proc.returncode}:\n"
                             f"{proc.stderr.strip()[-2000:]}")
        return proc.stdout

    def one_pass(self, cfg_dir, trace):
        self.count += 1
        out = os.path.join(self.run_dir, f"out{self.count}")
        result = os.path.join(self.run_dir, f"pass{self.count}.json")
        args = ["--configs", cfg_dir, "--out", out, "--result", result]
        self._call(args + (["--trace"] if trace else []))
        with open(result) as fh:
            res = json.load(fh)
        shutil.rmtree(out, ignore_errors=True)
        return res

    def passes(self, cfg_dir, seconds, trace):
        """Passes, one per fresh worker, filling ``seconds`` (at least one).

        A further pass starts only while it would end less than half a pass
        after ``seconds``, judged by the median pass so far, so that a run
        overshoots by at most about half a pass."""
        t0 = time.monotonic()
        out, took = [], []
        while not out or (time.monotonic() - t0
                          + statistics.median(took) / 2 < seconds):
            t1 = time.monotonic()
            out.append(self.one_pass(cfg_dir, trace))
            took.append(time.monotonic() - t1)
        return out

    def import_probe(self):
        return json.loads(self._call(["--probe"]).strip().splitlines()[-1])["import_s"]


def run_workload(root, workload, seed, seconds, trace) -> dict:
    run_dir = os.path.join(root, WORK_DIR, f"{workload}-seed{seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        cfg_dir = os.path.join(run_dir, "configs")
        write_configs(root, workload, seed, cfg_dir)
        runner = Runner(root, run_dir)
        runner.import_probe()   # warm-up: bytecode and file caches, untimed
        share = seconds / 2 if trace else seconds
        plain = runner.passes(cfg_dir, share, trace=False)
        traced = runner.passes(cfg_dir, share, trace=True) if trace else []
        setup = [p["import_s"] for p in plain]
        while not trace and len(setup) < SETUP_SAMPLES:
            setup.append(runner.import_probe())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    checks = [ok for p in plain + traced for rec in p["records"]
              for ok in rec["checks"].values()]
    ratios = [rec["err_ratio"] for p in plain + traced for rec in p["records"]
              if rec["err_ratio"] is not None]
    wall = statistics.median(p["wall_s"] for p in plain)
    if trace:
        names = [n for n in PER_LAYER if n != "trace_overhead_s"]
        values = {n: statistics.median(p["trace"]["metrics"][n] for p in traced)
                  for n in names}
        values["trace_overhead_s"] = values["traced_wall_s"] - wall
        units = PER_LAYER
    else:
        values = {"wall_s": wall,
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
                  "err_ratio": max(ratios, default=0.0)}
        units = END_TO_END
    res = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "attempted": len(checks), "failed": checks.count(False),
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
        "meta": {**_machine(root), **plain[0]["meta"]},
        "setup_samples_s": setup if not trace else None,
        "passes": [{"traced": "trace" in p, "wall_s": p["wall_s"],
                    "peak_rss_mb": p["peak_rss_mb"], "records": p["records"],
                    "trace": p.get("trace")} for p in plain + traced],
    }
    path = os.path.join(root, WORK_DIR,
                        f"result-{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as fh:
        json.dump(res, fh, indent=1)
    return res


def _table(res) -> list[str]:
    fail_frac = res["failed"] / res["attempted"] if res["attempted"] else 1.0
    npass = len(res["passes"])
    lines = [f"# {res['workload']} seed={res['seed']} trace={res['trace']}: "
             f"{npass} pass(es), {res['attempted']} checks, {res['failed']} failed"]
    for name, m in res["metrics"].items():
        lines.append(f"#   {name:26s} {m['value']:>14.6g} {m['unit']}")
    lines.append(f"#   {'fail_frac':26s} {fail_frac:>14.6g} ratio")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    need = [os.path.join("src", "kpdet", "cli.py"), CONFIG_DIR]
    missing = [p for p in need if not os.path.exists(os.path.join(root, p))]
    if missing:
        print(f"perfbench: not a kpdet checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [run_workload(root, w, args.seed, args.seconds, bool(args.trace))
                   for w in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    print("# meta " + json.dumps(results[0]["meta"], sort_keys=True))
    for res in results:
        print("\n".join(_table(res)))
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{n}": m for r in results
                   for n, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
