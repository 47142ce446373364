"""Spans, self times and name patching for the benchmark's traced runs.

The benchmark never edits the program. It times calls into each layer by
replacing, for the duration of one round, the names that callers look up
(a module global, a class attribute or a registry entry) with a wrapper
that records a span. `Patcher` restores every replaced name afterwards.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict


class Tracer:
    """Spans kept in memory: (name, start, end, parent index, item id)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = defaultdict(float)
        self.maxima = {}
        self.item = None
        self._stack = []

    def span(self, name):
        return _Span(self, name)

    def count(self, name, value=1):
        self.counters[name] += value

    def record_max(self, name, value):
        if name not in self.maxima or value > self.maxima[name]:
            self.maxima[name] = value

    def as_records(self):
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "item": s[4]} for s in self.spans]


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else -1
        self.index = len(t.spans)
        t.spans.append([self.name, t.clock(), None, parent, t.item])
        t._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = t.clock()
        t._stack.pop()
        return False


def self_times(spans):
    """Per span: its duration minus the part of it that its children cover.

    `spans` are (name, start, end, parent, ...) sequences; child intervals
    are merged first, so overlapping children are not subtracted twice.
    """
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(i)
    out = []
    for i, s in enumerate(spans):
        start, end = s[1], s[2]
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted((max(spans[c][1], start), min(spans[c][2], end))
                             for c in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((end - start) - covered)
    return out


def span_totals(spans):
    """{name: (total duration, total self time, count)} over all spans."""
    selfs = self_times(spans)
    acc = defaultdict(lambda: [0.0, 0.0, 0])
    for s, st in zip(spans, selfs):
        a = acc[s[0]]
        a[0] += s[2] - s[1]
        a[1] += st
        a[2] += 1
    return {k: tuple(v) for k, v in acc.items()}


class Patcher:
    """Replace names that callers look up; `restore` puts every one back.

    A target is (owner, name): a module or instance attribute, a class
    attribute (taken from the class dict, so a property is replaced as a
    property) or a key of a dict such as a solver registry.
    """

    def __init__(self):
        self._saved = []

    def patch(self, owner, name, make_wrapper):
        if isinstance(owner, dict):
            original = owner[name]
        elif isinstance(owner, type):
            original = vars(owner)[name]
        else:
            original = getattr(owner, name)
        replacement = make_wrapper(original)
        self._saved.append((owner, name, original))
        _assign(owner, name, replacement)
        return original

    def restore(self):
        while self._saved:
            owner, name, original = self._saved.pop()
            _assign(owner, name, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def _assign(owner, name, value):
    if isinstance(owner, dict):
        owner[name] = value
    else:
        setattr(owner, name, value)


def install(patcher, hooks, log=sys.stderr):
    """Install each hook's wrapper; return the groups whose name is missing.

    A hook is (group, owner_getter, name, make_wrapper). A missing owner or
    name (for example after a refactor) drops the hook's group, and the
    drop is logged; the other hooks are still installed.
    """
    dropped = []
    for group, owner_getter, name, make_wrapper in hooks:
        try:
            patcher.patch(owner_getter(), name, make_wrapper)
        except (AttributeError, KeyError, ImportError) as exc:
            if group not in dropped:
                dropped.append(group)
            print(f"perfbench: cannot trace {group} ({name}: "
                  f"{type(exc).__name__}: {exc}); its metrics are dropped",
                  file=log)
    return dropped


def spanned(tracer, name, after=None):
    """Wrapper factory: run the original inside a span named `name`.

    `after(result, args, kwargs)` runs inside the span and may record
    counters from the call.
    """
    def make(fn):
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args, kwargs)
            return result
        wrapper.__wrapped__ = fn
        return wrapper
    return make
