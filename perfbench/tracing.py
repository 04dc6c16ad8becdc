"""Spans recorded by the benchmark around its own calls into adlocal.

Nothing inside ``src/`` is instrumented: each span brackets one call the
benchmark makes into a public adlocal function (or into a callable it hands
to adlocal, such as an oracle's ``select``).  Spans nest, so a span's self
time is its duration minus the durations of the spans opened inside it.
A disabled tracer calls straight through and records nothing.
"""

from __future__ import annotations

from time import perf_counter

NAME, START, END, PARENT, COUNT = range(5)


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []  # [name, start, end, parent index or -1, count]
        self._open: list = []

    def call(self, name: str, fn, *args, count=None, **kwargs):
        """fn(*args, **kwargs) inside a span; ``count(result)`` is stored
        with the span as the work the call did (pairs checked, entries...)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        span = [name, perf_counter(), 0.0, self._open[-1] if self._open else -1, 0]
        self._open.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = perf_counter()
            self._open.pop()
        if count is not None:
            span[COUNT] = count(result)
        return result

    def wrap(self, name: str, fn):
        """A callable to hand to adlocal in place of ``fn``."""
        if not self.enabled:
            return fn
        return lambda *args: self.call(name, fn, *args)


class SpanStats:
    """Totals over the recorded spans, by span name."""

    def __init__(self, spans: list):
        self.spans = spans
        self._child_time = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                self._child_time[s[PARENT]] += s[END] - s[START]

    def _named(self, name):
        return [i for i, s in enumerate(self.spans) if s[NAME] == name]

    def calls(self, name: str) -> int:
        return len(self._named(name))

    def busy_s(self, name: str) -> float:
        return sum(self.spans[i][END] - self.spans[i][START] for i in self._named(name))

    def self_s(self, name: str) -> float:
        return self.busy_s(name) - sum(self._child_time[i] for i in self._named(name))

    def counts(self, name: str) -> list:
        return [self.spans[i][COUNT] for i in self._named(name)]

    def count(self, name: str) -> int:
        return sum(self.counts(name))

    def children(self, parent: str, child: str) -> int:
        """Spans named ``child`` opened directly inside a ``parent`` span."""
        parents = set(self._named(parent))
        return sum(1 for s in self.spans if s[NAME] == child and s[PARENT] in parents)
