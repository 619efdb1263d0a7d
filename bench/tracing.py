"""Spans and call counts around the library's layers, from outside the library.

``Tracer`` wraps chosen functions of the ``gmacdist`` modules.  A wrapper is
installed on every module attribute that holds the function, because callers
look functions up in their own module's namespace (``region`` calls the
``in_rate_region`` it imported, not ``vq_analytic.in_rate_region``).
Wrappers are installed only while a traced step runs and the original
attributes are restored afterwards.

Timed functions record a span (name, start, end, parent, op id, CPU time);
hot scalar functions, called about 10^5 times per analytic study, are only
counted, so their time stays in their caller's self time.  Spans are kept in
memory and written out by the caller when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from contextlib import contextmanager

import gmacdist

# the package's layers; acceptance only composes them
LAYERS = ("cli", "region", "rd_bounds", "vq_analytic", "uncoded", "vq_sim", "model")

TIMED = (
    "cli.main",
    "region.verdict",
    "region.best_vq_for_targets",
    "region.trace_region_boundary",
    "rd_bounds.waterfill_oracle_rate",
    "vq_analytic.solve_symmetric_rate",
    "vq_sim.simulate_vq",
    "vq_sim.generate_codebook",
    "vq_sim.encode",
    "vq_sim.decode",
    "model.sample_source_and_noise",
    "uncoded.simulate_uncoded",
)

COUNTED = (
    "vq_analytic.in_rate_region",
    "vq_analytic.vq_distortions",
    "vq_analytic.make_rate_pair",
    "rd_bounds.rd_rate",
)

OP_SPAN = "op"


def _modules():
    mods = [gmacdist]
    for name in (*LAYERS, "acceptance"):
        mods.append(importlib.import_module(f"gmacdist.{name}"))
    return mods


class Tracer:
    """Records spans and counts while installed; one per traced run."""

    def __init__(self):
        self.spans = []          # (id, name, start, end, parent, op, cpu_s)
        self._ids = itertools.count()
        self._counts = {name: itertools.count() for name in COUNTED}
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self.op = None
        self._patches = []
        for mod in _modules():
            for qual in (*TIMED, *COUNTED):
                layer, fname = qual.split(".")
                orig = getattr(getattr(gmacdist, layer), fname)
                for attr, value in vars(mod).items():
                    if value is orig:
                        self._patches.append((mod, attr, orig, self._wrap(qual, orig)))

    def _stack(self):
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # a pool worker's outermost span belongs to the span that the main
        # thread is blocked in
        return self._main_stack[-1] if self._main_stack else None

    @contextmanager
    def span(self, name):
        stack = self._stack()
        sid = next(self._ids)
        parent = self._parent(stack)
        stack.append(sid)
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            c1 = time.process_time()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent, self.op, c1 - c0))

    def _wrap(self, qual, fn):
        if qual in COUNTED:
            # itertools.count is advanced atomically, so pool threads may call
            counter = self._counts[qual]

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                next(counter)
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            with self.span(qual):
                return fn(*args, **kwargs)
        return timed

    @contextmanager
    def installed(self, op):
        """Wrap the library for one op, recorded as its own span."""
        self.op = op
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        try:
            with self.span(OP_SPAN):
                yield
        finally:
            for mod, attr, orig, _ in self._patches:
                setattr(mod, attr, orig)
            self.op = None

    def counts(self) -> dict:
        """Calls of each counted function; read once, when the run ends
        (reading advances each counter)."""
        return {name: next(c) for name, c in self._counts.items()}


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of the intervals."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def summarize(spans):
    """Per span name: total seconds, self seconds, CPU seconds and count.

    Self time is a span's duration minus the part of it covered by its
    child spans (children in pool threads may overlap one another).
    """
    children = {}
    for sid, _, t0, t1, parent, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    out = {}
    for sid, name, t0, t1, _, _, cpu in spans:
        rec = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "cpu_s": 0.0, "n": 0})
        rec["s"] += t1 - t0
        rec["self_s"] += (t1 - t0) - _covered(children.get(sid, ()), t0, t1)
        rec["cpu_s"] += cpu
        rec["n"] += 1
    return out
