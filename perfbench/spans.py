"""Span recording around slabatten's public callables, and per-layer metrics.

The tracer replaces each timed callable wherever its callers look it up:
every ``slabatten.*`` module attribute bound to the original function (the
CLI imports names into its own namespace, so patching only the defining
module would miss its calls), and the class attributes of ``FieldSampler``.
Nothing inside ``src/`` is edited.  Spans are kept in memory as
(name, start, end, parent, thread, attrs) and handed back at the end.

``layer_metrics`` turns one traced call's spans into the per-layer numbers.
"""

from __future__ import annotations

import functools
import sys
import threading
import time

# Span name -> (defining module, attribute).  Callers that imported the name
# into their own namespace are found by identity at install time.
FUNCTIONS = {
    "cli.main": ("slabatten.cli", "main"),
    "grf.covariance_matrix": ("slabatten.grf", "covariance_matrix"),
    "montecarlo.run_ensemble": ("slabatten.montecarlo", "run_ensemble"),
    "montecarlo.lognormal_oracle": ("slabatten.montecarlo", "lognormal_oracle"),
    "quadrature.ordered": ("slabatten.quadrature", "ordered_double_integral"),
    "quadrature.square": ("slabatten.quadrature", "square_double_integral"),
    "averaged.averaged_intensity": ("slabatten.averaged", "averaged_intensity"),
    "medium.mfp_series": ("slabatten.medium", "mfp_series"),
    "medium.mfp_mc_estimate": ("slabatten.medium", "mfp_mc_estimate"),
}
# Span name -> (module, class, method).
METHODS = {
    "grf.factor": ("slabatten.grf", "FieldSampler", "__init__"),
    "grf.sample_block": ("slabatten.grf", "FieldSampler", "sample_block"),
}


def _shape(value):
    shape = getattr(value, "shape", None)
    return tuple(int(d) for d in shape) if shape is not None else None


def _attrs(name, args, result):
    """Work counts read from a call's result (or, for a constructor, self)."""
    if name == "grf.sample_block":
        shape = _shape(result)
        return {"rows": shape[0], "n": shape[1]} if shape and len(shape) == 2 else {}
    if name == "grf.covariance_matrix":
        shape = _shape(result)
        return {"n": shape[0]} if shape else {}
    if name == "grf.factor":
        sampler = args[0]
        shape = _shape(getattr(sampler, "factor", None))
        out = {"jitter": getattr(sampler, "jitter", None)}
        if shape:
            out["n"] = shape[0]
        return out
    if name == "montecarlo.run_ensemble":
        return {"paths": getattr(result, "n_paths", 0)}
    return {}


class Tracer:
    """Records one span per call of every wrapped callable."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, thread, attrs]
        self.missing = []
        self._lock = threading.Lock()
        self._stacks = {}  # thread id -> indices of open spans
        self._main = threading.main_thread().ident

    def _open(self, name):
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            # A pool thread's span was caused by whatever the main thread
            # has open (run_ensemble submitting chunks).
            main = self._stacks.get(self._main)
            parent = main[-1] if main else None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, tid, {}])
        stack.append(index)
        return index

    def _close(self, index, attrs):
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[5] = attrs
        self._stacks[span[4]].pop()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(index, _attrs(name, args, result))

        return traced

    def install(self):
        """Patch every lookup site of the callables in FUNCTIONS and METHODS."""
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "slabatten" or k.startswith("slabatten."))]
        for name, (module_name, attr) in FUNCTIONS.items():
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        for name, (module_name, cls_name, attr) in METHODS.items():
            cls = getattr(sys.modules.get(module_name), cls_name, None)
            original = getattr(cls, attr, None) if cls is not None else None
            if original is None:
                self.missing.append(name)
                continue
            setattr(cls, attr, self.wrap(name, original))


# ---------------------------------------------------------------------------
# Analysis of the spans of one traced call.


def _union(intervals):
    total, end = 0.0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times(spans):
    """Per-span duration minus the part of it covered by its child spans."""
    children = {}
    for span in spans:
        if span[3] is not None:
            children.setdefault(span[3], []).append(span)
    out = []
    for i, span in enumerate(spans):
        lo, hi = span[1], span[2]
        covered = _union([(max(c[1], lo), min(c[2], hi))
                          for c in children.get(i, []) if c[2] > lo and c[1] < hi])
        out.append(hi - lo - covered)
    return out


def _by_name(spans, name):
    return [s for s in spans if s[0] == name]


def _busy(spans, name):
    return sum(s[2] - s[1] for s in _by_name(spans, name))


def layer_metrics(spans):
    """Per-layer numbers of one traced call.

    ``.s`` sums span durations over all threads (busy time), so with two
    workers it can exceed the wall time; ``grf.sample_block.wall_s`` is the
    union of those spans.  Flop and byte counts are computed from array
    shapes, not measured.
    """
    selfs = self_times(spans)
    m = {}
    for name in list(FUNCTIONS) + list(METHODS):
        m[name + ".calls"] = len(_by_name(spans, name))
        m[name + ".s"] = _busy(spans, name)

    blocks = _by_name(spans, "grf.sample_block")
    rows = sum(s[5].get("rows", 0) for s in blocks)
    transform = sum(2.0 * s[5].get("n", 0) ** 2 * s[5].get("rows", 0) for s in blocks)
    busy = m["grf.sample_block.s"]
    m["grf.sample_block.paths"] = rows
    m["grf.sample_block.wall_s"] = _union([(s[1], s[2]) for s in blocks])
    m["grf.sample_block.us_per_path"] = 1e6 * busy / rows if rows else 0.0
    m["grf.transform.flops"] = transform
    m["grf.sample_block.gflops"] = transform / busy / 1e9 if busy > 0 else 0.0

    covs = _by_name(spans, "grf.covariance_matrix")
    m["grf.covariance.bytes"] = sum(8.0 * s[5].get("n", 0) ** 2 for s in covs)

    factors = [(s, selfs[i]) for i, s in enumerate(spans) if s[0] == "grf.factor"]
    ns = [s[5].get("n", 0) for s, _ in factors]
    jitters = [s[5].get("jitter") or 0.0 for s, _ in factors]
    m["grf.factor.s"] = sum(t for _, t in factors)
    m["grf.factor.max_n"] = max(ns, default=0)
    m["grf.factor.jitter"] = max(jitters, default=0.0)
    m["grf.factor.flops"] = sum(n**3 / 3.0 for n in ns)
    m["grf.factor.gflops"] = (
        m["grf.factor.flops"] / m["grf.factor.s"] / 1e9 if m["grf.factor.s"] > 0 else 0.0
    )

    ensembles = [(s, selfs[i]) for i, s in enumerate(spans)
                 if s[0] == "montecarlo.run_ensemble"]
    paths = sum(s[5].get("paths", 0) for s, _ in ensembles)
    m["montecarlo.reduce.s"] = sum(t for _, t in ensembles)
    m["montecarlo.reduce.us_per_path"] = (
        1e6 * m["montecarlo.reduce.s"] / paths if paths else 0.0
    )

    mains = [(s, selfs[i]) for i, s in enumerate(spans) if s[0] == "cli.main"]
    m["cli.self.s"] = sum(t for _, t in mains)
    m["trace.spans"] = len(spans)
    return m
