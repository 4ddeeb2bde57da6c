"""Spans for the traced run, recorded from outside the program.

``install`` wraps the public functions of each ``ctrect`` module by
rebinding their names in every ``ctrect.*`` namespace that holds them, so
calls between modules go through the wrappers too.  Each call records one
span: name, start, end and parent.  Spans are kept in flat arrays, about 24
bytes each, and summarized when the run ends.  ``Filling.entry`` and the
other methods are not wrapped; ``Filling`` constructions are counted.

A span's self time is its duration minus the durations of its child spans.
Spans nest strictly (one thread, wrappers around whole calls), so the self
times of all spans add up to the duration of the root span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

MODULES = ("tableaux", "bijection", "jeu_de_taquin", "ct_rectify", "polynomials", "verify", "cli")

# Several functions report under one span name.
SPAN_NAMES = {
    "enumerate_ssyt": "polynomials.enumerate",
    "enumerate_rssyt": "polynomials.enumerate",
    "enumerate_ct": "polynomials.enumerate",
    "schur_expand": "polynomials.expand",
    "monomial_sym_expand": "polynomials.expand",
    "monomial_qsym_expand": "polynomials.expand",
}


class Recorder:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = defaultdict(int)

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn):
        # The same bookkeeping as ``span``, inlined: this runs on every call.
        nid = self._name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, clock = self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        i = len(self.name)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(self.clock())
        try:
            yield
        finally:
            self.end[i] = self.clock()
            self._stack.pop()


def self_times(parent, start, end) -> list[float]:
    """Per span: duration minus the durations of its direct children."""
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


class Summary:
    """Per span name: call count and total self time."""

    def __init__(self, rec: Recorder):
        self._rec = rec
        own = self_times(rec.parent, rec.start, rec.end)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.roots_s = 0.0
        for i, nid in enumerate(rec.name):
            name = rec.names[nid]
            self.calls[name] += 1
            self.self_s[name] += own[i]
            if rec.parent[i] < 0:
                self.roots_s += rec.end[i] - rec.start[i]
        self.counts = dict(rec.counts)

    def durations(self, name: str) -> list[float]:
        """Inclusive duration of every span with this name."""
        rec = self._rec
        nid = rec._ids.get(name)
        return [rec.end[i] - rec.start[i] for i, n in enumerate(rec.name) if n == nid]

    def prefix_self_s(self, prefix: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(prefix + "."))


def _count_fillings(rec: Recorder, filling_cls):
    original = filling_cls.__post_init__
    counts = rec.counts

    def __post_init__(self):
        counts["tableaux.Filling.constructed"] += 1
        original(self)

    filling_cls.__post_init__ = __post_init__
    return lambda: setattr(filling_cls, "__post_init__", original)


def _count_enumeration(rec: Recorder, fn):
    # Tableaux enumerated on cache misses, and cache hits against misses.
    counts = rec.counts

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        misses = fn.cache_info().misses
        result = fn(*args, **kwargs)
        if fn.cache_info().misses != misses:
            counts["polynomials.enumerate.misses"] += 1
            counts["polynomials.enumerate.tableaux"] += len(result)
        else:
            counts["polynomials.enumerate.hits"] += 1
        return result

    return counted


def install(rec: Recorder):
    """Wrap every public function of the ctrect modules; return a function
    that puts the originals back."""
    package = importlib.import_module("ctrect")
    modules = {short: importlib.import_module(f"ctrect.{short}") for short in MODULES}
    namespaces = [package, *modules.values()]
    undo = [_count_fillings(rec, modules["tableaux"].Filling)]
    for short, module in modules.items():
        for attr, fn in list(vars(module).items()):
            public = not attr.startswith("_") and getattr(fn, "__module__", None) == module.__name__
            if not public or not (inspect.isfunction(fn) or hasattr(fn, "cache_info")):
                continue
            inner = _count_enumeration(rec, fn) if hasattr(fn, "cache_info") else fn
            wrapper = rec.wrap(SPAN_NAMES.get(attr, f"{short}.{attr}"), inner)
            for ns in namespaces:
                for name, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, name, wrapper)
                        undo.append(functools.partial(setattr, ns, name, fn))

    def uninstall():
        for step in reversed(undo):
            step()

    return uninstall
