"""Per-layer tracing by wrapping the library's public functions.

The wrappers live here, in the benchmark, not in the library: every
public function of the five layer modules is replaced by a timing
wrapper in the namespace of each ``wordgrowth`` module that imported it,
and put back afterwards.  ``Antidictionary`` is a class, so its
``__init__`` is wrapped instead, which keeps ``isinstance`` working.

A call becomes a span (name, start, end, parent, query id).  The
word-level helpers in ``HOT`` run thousands of times per query; they
feed aggregated counters instead, so the trace stays small and cheap.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from contextlib import contextmanager

LAYERS = ("automaton", "fad", "growth", "powerfree", "circular")

HOT = frozenset({
    "powerfree.is_free",
    "powerfree.exponent",
    "powerfree.violates",
    "powerfree.minimal_period",
    "powerfree.minimal_periods_of_suffixes",
    "circular.least_rotation",
    "circular.circular_is_square_free",
    "fad.parse_word",
    "fad.word_to_str",
    "growth.decimal_lower",
    "growth.decimal_upper",
})

# work done by one call, as counts: traced name -> ((metric, count(args, result)), ...)
SIZES = {
    "powerfree.minimal_powers": (("powerfree.minimal_powers.words", lambda a, r: len(r)),),
    "powerfree.approximation_bounds": (
        ("powerfree.quotient_states", lambda a, r: r.automaton_states),
        ("powerfree.antidictionary_size", lambda a, r: r.antidictionary_size),
    ),
    "fad.Antidictionary": (("fad.Antidictionary.words", lambda a, r: len(a[0].words)),),
    "fad.fad_automaton": (("fad.fad_automaton.states", lambda a, r: r.state_count),),
    "automaton.scc": (("automaton.scc.states", lambda a, r: a[0].state_count),),
    "growth.digraph_index": (("growth.digraph_index.vertices", lambda a, r: len(a[0])),),
    "growth.asymptotic_profile": (("growth.residue_count", lambda a, r: r.residue_count),),
    "circular.minimal_roots": (("circular.minimal_roots.roots", lambda a, r: len(r)),),
    "circular.forbidden_period_scan": (
        ("circular.forbidden_period_scan.periods", lambda a, r: len(r)),
    ),
}


class Tracer:
    """Records spans and counters for calls into the library layers."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, query id, child seconds]
        self.counters = {}  # name -> [calls, seconds]
        self.sizes = {}  # metric -> total count
        self.query = None
        self._stack = []  # open calls: [span index or None, child seconds]
        self._patches = []

    def _call(self, name, fn, args, kwargs):
        hot = name in HOT
        frame = [None, 0.0]
        if not hot:
            frame[0] = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._parent(), self.query, 0.0])
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += end - start
            if hot:
                counter = self.counters.setdefault(name, [0, 0.0])
                counter[0] += 1
                counter[1] += end - start
            else:
                span = self.spans[frame[0]]
                span[1], span[2], span[5] = start, end, frame[1]
        for metric, count in SIZES.get(name, ()):
            self.sizes[metric] = self.sizes.get(metric, 0) + count(args, result)
        return result

    def _parent(self):
        for index, _ in reversed(self._stack):
            if index is not None:
                return index
        return None

    def _wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every public layer function wherever it was imported."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "wordgrowth" or n.startswith("wordgrowth.")]
        try:
            for layer in LAYERS:
                mod = sys.modules["wordgrowth." + layer]
                for name, fn in list(vars(mod).items()):
                    if (name.startswith("_") or not inspect.isfunction(fn)
                            or fn.__module__ != mod.__name__):
                        continue
                    traced = self._wrap(f"{layer}.{name}", fn)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is fn:
                                self._patches.append((m, attr, fn))
                                setattr(m, attr, traced)
            cls = sys.modules["wordgrowth.fad"].Antidictionary
            self._patches.append((cls, "__init__", cls.__init__))
            cls.__init__ = self._wrap("fad.Antidictionary", cls.__init__)
            yield self
        finally:
            for obj, attr, original in reversed(self._patches):
                setattr(obj, attr, original)
            self._patches.clear()

    @contextmanager
    def query_span(self, query_id):
        """Root span of one CLI query; its self time is the CLI's own."""
        self.query = query_id
        index = len(self.spans)
        self.spans.append(["cli", 0.0, 0.0, None, query_id, 0.0])
        frame = [index, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index][1:3] = [start, end]
            self.spans[index][5] = frame[1]
            self.query = None

    def totals(self):
        """Per-name seconds, self seconds and calls, plus the size counts."""
        out = dict(self.sizes)
        for name, (calls, seconds) in self.counters.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = seconds
        for name, start, end, _, _, child in self.spans:
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
            out[f"{name}.s"] = out.get(f"{name}.s", 0.0) + (end - start)
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + (end - start - child)
        return out

    def write(self, path, header):
        """Write spans (times relative to the first span) and counters."""
        origin = self.spans[0][1] if self.spans else 0.0
        doc = {
            **header,
            "spans": [
                {"name": n, "start": s - origin, "end": e - origin,
                 "parent": p, "query": q}
                for n, s, e, p, q, _ in self.spans
            ],
            "counters": {n: {"calls": c, "s": t} for n, (c, t) in self.counters.items()},
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
