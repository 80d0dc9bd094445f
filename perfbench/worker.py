"""One pass of a workload in a fresh process.

    python3 perfbench/worker.py --configs DIR --out DIR --result FILE [--trace]
    python3 perfbench/worker.py --probe

Times ``import kpdet`` with all of its layer modules (this builds the
``specfun`` tables), then runs every ``*.cfg`` in ``--configs`` through
``kpdet.cli.run`` in name order, checks each run's outputs, and writes one
JSON result.  ``--trace`` installs the span tracer for the pass and adds its
per-layer summary.  ``--probe`` only times the import and prints it.
Expects ``src`` on ``PYTHONPATH``.
"""

import argparse
import importlib
import json
import os
import resource
import sys
import time

def _import_kpdet() -> float:
    t0 = time.perf_counter()
    pkg = importlib.import_module("kpdet")
    for name in pkg.__all__:
        importlib.import_module(f"kpdet.{name}")
    return time.perf_counter() - t0


def _metadata() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version")}
    except (TypeError, KeyError):
        blas = None
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas}


def _load(cli, cfg_paths, out_dir):
    """Parse every config; a config that does not parse becomes a failed job."""
    jobs = []
    for path in cfg_paths:
        name = os.path.splitext(os.path.basename(path))[0]
        with open(path) as fh:
            text = fh.read()
        try:
            cfg = cli.parse_config(text)
        except cli.ConfigError as exc:
            jobs.append((name, None, repr(exc)))
            continue
        cfg.out = os.path.join(out_dir, name)
        jobs.append((name, cfg, None))
    return jobs


def _run_pass(cli, jobs):
    """Run every parsed config once; returns (wall seconds, run records)."""
    records = []
    wall0 = time.perf_counter()
    for name, cfg, err in jobs:
        code, paths, seconds = None, None, 0.0
        if cfg is not None:
            t0 = time.perf_counter()
            try:
                code, paths = cli.run(cfg)
            except Exception as exc:   # a crashing config is a failed check
                err = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
        records.append({"config": name, "cfg": cfg, "code": code,
                        "paths": paths, "seconds": seconds, "error": err})
    return time.perf_counter() - wall0, records


def _check(checks, records):
    """Replace each record's config and paths by its check results."""
    for rec in records:
        cfg = rec.pop("cfg")
        paths = rec.pop("paths")
        if cfg is None:
            rec["checks"], rec["err_ratio"] = {"parse": False}, None
            continue
        if paths is None:
            stem = os.path.join(cfg.out, cfg.command)
            paths = (stem + ".csv", stem + ".json")
        result, ratio = checks.check_run(cfg, rec["code"], *paths)
        rec["checks"] = result
        rec["err_ratio"] = ratio if ratio == ratio else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--configs")
    ap.add_argument("--out")
    ap.add_argument("--result")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    import_s = _import_kpdet()
    if args.probe:
        print(json.dumps({"import_s": import_s}))
        return 0
    if not (args.configs and args.out and args.result):
        ap.error("--configs, --out and --result are required")

    import checks   # after the timed import, which must load kpdet alone
    import tracer as tracing
    cli = importlib.import_module("kpdet.cli")

    cfg_paths = sorted(os.path.join(args.configs, f)
                       for f in os.listdir(args.configs) if f.endswith(".cfg"))
    jobs = _load(cli, cfg_paths, args.out)
    result = {"import_s": import_s, "meta": _metadata()}
    if args.trace:
        tr = tracing.Tracer()
        with tr:
            wall, records = _run_pass(cli, jobs)
        result["trace"] = tr.summary(wall)
        ran = [rec for rec in records if rec["cfg"] is not None]
        for rec, seconds in zip(ran, tr.cli_runs()):
            rec["cli_run_span_s"] = seconds
    else:
        wall, records = _run_pass(cli, jobs)
    _check(checks, records)
    result.update({
        "wall_s": wall,
        "records": records,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
