"""Span tracer for the traced benchmark run.

``Tracer.install()`` replaces every public function and method of the
``kpdet`` layer modules with a wrapper that records a span (layer, name,
parent, thread, start, end).  A function re-bound into another module by
``from ... import`` is replaced there too, by the same wrapper, and keeps
the layer of the module that defines it.  ``uninstall()`` puts every
original object back.  Spans stay in memory until ``summary()``.

Self time is measured on the wall clock: at each instant the running leaf
spans (open spans with no open child) share the instant equally.  On one
thread that is span time minus child-span time; spans of the CLI's sweep
pool threads count as children of the main thread's open span.  So the
layer self times never add up to more than the traced wall time.

Sizes are counted at the same boundaries by small hooks; their cost is
kept in spans of the pseudo-layer ``tracer``, never in a layer's self time.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import itertools
import threading
import time

LAYERS = ("specfun", "quadrature", "kernels", "fredholm", "painleve",
          "scattering", "residuals", "fields", "kpsolver", "cli")
PACKAGE = "kpdet"

_SPECFUN_EVALS = {"specfun.airy_ai", "specfun.airy_ai_prime",
                  "specfun.airy_ai_log_abs", "specfun.log_gamma"}
_FACTORIZATIONS = {"fredholm.det_one_minus", "fredholm.log_det_one_minus",
                   "fredholm.boundary_resolvent"}


class Span:
    __slots__ = ("layer", "name", "parent", "thread", "seq", "t0", "t1", "size")

    def __init__(self, layer, name, parent, thread, seq):
        self.layer, self.name, self.parent = layer, name, parent
        self.thread, self.seq = thread, seq
        self.t0 = self.t1 = 0.0
        self.size = 0.0

    @property
    def seconds(self):
        return self.t1 - self.t0


def _outermost(span):
    return span.parent is None or span.parent.layer != span.layer


class Tracer:
    """Wraps the layer modules of one process; one install at a time."""

    def __init__(self):
        self.spans: list[Span] = []
        self.patches: list[tuple[object, str, object]] = []
        self._stacks: dict[int, list[Span]] = {}
        self._seq = itertools.count()
        self._seen: set = set()
        self._repeat_points = 0
        self._seen_lock = threading.Lock()   # sweep-pool threads share _seen
        self._main = threading.main_thread().ident

    # ------------------------------------------------------------------
    # install / uninstall

    def install(self):
        modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
                   for layer in LAYERS}
        wrappers: dict[int, object] = {}   # id(original) -> wrapper

        def wrapper_for(fn, layer, name):
            if id(fn) not in wrappers:
                wrappers[id(fn)] = self._wrap(fn, layer, name)
            return wrappers[id(fn)]

        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    if not issubclass(obj, BaseException):
                        self._wrap_class(obj, layer, wrapper_for)
                elif callable(obj):
                    self._patch(mod, attr, wrapper_for(obj, layer, f"{layer}.{attr}"))
        # names re-bound into other layer modules by "from ... import"
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                w = wrappers.get(id(obj))
                if w is not None and w is not obj:
                    self._patch(mod, attr, w)
        return self

    def _wrap_class(self, cls, layer, wrapper_for):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                new = staticmethod(wrapper_for(raw.__func__, layer, name))
            elif isinstance(raw, classmethod):
                new = classmethod(wrapper_for(raw.__func__, layer, name))
            elif callable(raw) and not isinstance(raw, type):
                new = wrapper_for(raw, layer, name)
            else:
                continue   # properties and plain attributes stay as they are
            self._patch(cls, attr, new)

    def _patch(self, owner, attr, new):
        self.patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # ------------------------------------------------------------------
    # spans

    def _open(self, layer, name):
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        parent = stack[-1] if stack else None
        if parent is None and tid != self._main:
            main = self._stacks.get(self._main)
            try:
                parent = main[-1] if main else None
            except IndexError:
                parent = None
        span = Span(layer, name, parent, tid, next(self._seq))
        stack.append(span)
        return span, stack

    def _wrap(self, fn, layer, name):
        hook = _hook_for(name)
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span, stack = self._open(layer, name)
            span.t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.t1 = time.perf_counter()
                stack.pop()
                spans.append(span)
            if hook is not None:
                book, bstack = self._open("tracer", name + ":hook")
                book.t0 = time.perf_counter()
                try:
                    hook(self, span, args, result)
                finally:
                    book.t1 = time.perf_counter()
                    bstack.pop()
                    spans.append(book)
            return result

        return traced

    # ------------------------------------------------------------------
    # summary

    def self_times(self):
        """(self seconds per layer, self seconds per span name)."""
        events = []
        for s in self.spans:
            events.append((s.t0, 1, s.seq, s))
            events.append((s.t1, 0, -s.seq, s))
        events.sort(key=lambda e: e[:3])
        by_layer: dict[str, float] = {}
        by_name: dict[str, float] = {}
        stacks: dict[int, list[Span]] = {}
        prev = None
        for t, kind, _, span in events:
            if prev is not None and t > prev:
                leaves = _leaves(stacks)
                if leaves:
                    share = (t - prev) / len(leaves)
                    for leaf in leaves:
                        by_layer[leaf.layer] = by_layer.get(leaf.layer, 0.0) + share
                        by_name[leaf.name] = by_name.get(leaf.name, 0.0) + share
            prev = t
            stack = stacks.setdefault(span.thread, [])
            if kind == 1:
                stack.append(span)
            elif stack and stack[-1] is span:
                stack.pop()
            else:
                stack.remove(span)
        return by_layer, by_name

    def summary(self, wall_s: float) -> dict:
        """Per-layer metrics of the recorded spans, for a pass of ``wall_s``."""
        by_layer, by_name = self.self_times()
        calls: dict[str, int] = {}
        incl: dict[str, float] = {}
        size: dict[str, float] = {}
        for s in self.spans:
            calls[s.name] = calls.get(s.name, 0) + 1
            size[s.name] = size.get(s.name, 0.0) + s.size
            if s.parent is None or s.parent.name != s.name:
                incl[s.name] = incl.get(s.name, 0.0) + s.seconds

        def total(names, table):
            return sum(table.get(n, 0) for n in names)

        m = {f"{layer}.self_s": by_layer.get(layer, 0.0) for layer in LAYERS}
        points = total(_SPECFUN_EVALS, size)
        m["specfun.points"] = points
        m["specfun.ns_per_point"] = (1e9 * m["specfun.self_s"] / points
                                     if points else 0.0)
        m["specfun.repeat_frac"] = self._repeat_points / points if points else 0.0
        m["quadrature.rules"] = sum(v for k, v in size.items()
                                    if k.startswith("quadrature."))
        m["kernels.block_calls"] = calls.get("kernels.BlockKernel.block", 0)
        m["kernels.entries"] = size.get("kernels.BlockKernel.block", 0.0)
        m["kernels.spiked_matrix_s"] = incl.get("kernels.SpikedKernel.matrix", 0.0)
        m["kernels.log_matmul_calls"] = calls.get("kernels.log_matmul", 0)
        m["kernels.log_matmul_s"] = incl.get("kernels.log_matmul", 0.0)
        m["fredholm.assembles"] = calls.get("fredholm.assemble", 0)
        m["fredholm.factorizations"] = total(_FACTORIZATIONS, calls)
        m["fredholm.resolvents"] = calls.get("fredholm.boundary_resolvent", 0)
        m["fredholm.lu_gflop"] = total(_FACTORIZATIONS, size) / 1e9
        m["painleve.hm_solves"] = calls.get("painleve.hastings_mcleod", 0)
        m["fields.points"] = sum(v for k, v in size.items() if k.startswith("fields."))
        steps = calls.get("kpsolver.KPSolver.step", 0)
        m["kpsolver.steps"] = steps
        m["kpsolver.ms_per_step"] = (1e3 * incl.get("kpsolver.KPSolver.step", 0.0) / steps
                                     if steps else 0.0)
        m["kpsolver.init_s"] = incl.get("kpsolver.KPSolver.__init__", 0.0)
        attributed = sum(by_layer.get(layer, 0.0) for layer in LAYERS)
        m["traced_wall_s"] = wall_s
        m["unattributed_s"] = wall_s - attributed
        top = sorted(by_name.items(), key=lambda kv: -kv[1])[:25]
        return {"metrics": m, "tracer_s": by_layer.get("tracer", 0.0),
                "spans": len(self.spans), "top_self_s": dict(top)}

    def cli_runs(self):
        """Seconds of each top-level ``cli.run`` span, in call order."""
        runs = [s for s in self.spans if s.name == "cli.run" and s.parent is None]
        return [s.seconds for s in sorted(runs, key=lambda s: s.t0)]


def _leaves(stacks):
    tops = [st[-1] for st in stacks.values() if st]
    if len(tops) <= 1:
        return tops
    ancestors = set()
    for top in tops:
        p = top.parent
        while p is not None:
            ancestors.add(id(p))
            p = p.parent
    return [t for t in tops if id(t) not in ancestors]


# ----------------------------------------------------------------------
# size hooks: each sets span.size, run after the span has closed

def _specfun_hook(tracer, span, args, result):
    if not _outermost(span) or not args:
        return
    import numpy as np
    x = np.ascontiguousarray(args[0])
    span.size = float(x.size)
    key = (span.name, x.dtype.str, x.shape,
           hashlib.blake2b(x.view(np.uint8).reshape(-1), digest_size=16).digest())
    with tracer._seen_lock:
        if key in tracer._seen:
            tracer._repeat_points += x.size
        else:
            tracer._seen.add(key)


def _rule_hook(tracer, span, args, result):
    # a rule counts once where it leaves the layer: returned by a quadrature
    # function, or built by another layer through the QuadRule constructor
    if _outermost(span) and (type(result).__name__ == "QuadRule"
                             or span.name == "quadrature.QuadRule.__init__"):
        span.size = 1.0


def _entries_hook(tracer, span, args, result):
    span.size = float(getattr(result, "size", 0))


def _lu_hook(tracer, span, args, result):
    # computed, not measured: 2/3 N^3 flops per LU of the N x N system
    n = args[0].matrix.shape[0]
    span.size = 2.0 * n ** 3 / 3.0


def _field_hook(tracer, span, args, result):
    if not _outermost(span):
        return
    name = span.name.rsplit(".", 1)[-1]
    if name == "q_stencil":
        span.size = float(result.size // (result.shape[-1] * result.shape[-2]))
    elif dataclasses.is_dataclass(result) and hasattr(result, "values"):
        span.size = float(result.values.size)
    else:
        span.size = float(getattr(result, "size", 1))


def _hook_for(name):
    if name in _SPECFUN_EVALS:
        return _specfun_hook
    if name in _FACTORIZATIONS:
        return _lu_hook
    if name == "kernels.BlockKernel.block":
        return _entries_hook
    layer = name.split(".", 1)[0]
    if layer == "quadrature":
        return _rule_hook
    if layer == "fields" and name.count(".") == 1:
        return _field_hook
    return None
