"""Traced-run accounting: benchmark-owned layer spans and self times.

Every layer is timed from outside, by a ``bench.<layer>`` span around
a call into that layer's public functions.  Calls the program makes
internally (a C4.5 fit inside cross-validation, packing inside the
streaming engine) are reached by wrapping the public function for the
duration of the traced pass only (:func:`wrapped`); untraced runs never
see a wrapper.  The program's own spans and counters ride along in the
same trace but are never counted as layers.

A layer's self time is its span time minus the time of benchmark spans
nested directly under it; the ``bench.pass`` root's self time is the
unattributed remainder, so ``trace.coverage`` is one minus its share of
the pass wall.
"""

from __future__ import annotations

import contextlib
import functools
from collections import defaultdict

from repro import observability as obs

__all__ = ["PREFIX", "ROOT", "SpanTotals", "layer", "span_totals", "wrapped"]

PREFIX = "bench."
ROOT = "pass"


def layer(name: str, **attributes):
    """A benchmark layer span (a shared no-op while tracing is off)."""
    return obs.span(PREFIX + name, **attributes)


@contextlib.contextmanager
def wrapped(owner, attribute: str, name):
    """Wrap ``owner.attribute`` in a layer span for the block.

    ``name`` is the layer name, or a callable mapping the call's
    arguments to one.
    """
    original = getattr(owner, attribute)
    owned = attribute in vars(owner)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        label = name(*args, **kwargs) if callable(name) else name
        with obs.span(PREFIX + label):
            return original(*args, **kwargs)

    setattr(owner, attribute, wrapper)
    try:
        yield
    finally:
        if owned:
            setattr(owner, attribute, original)
        else:
            delattr(owner, attribute)


class SpanTotals:
    """Per-layer self seconds, call counts and the root's wall."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.program: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self.wall_s = 0.0

    def get(self, name: str) -> float:
        return self.self_s.get(name, 0.0)

    def per_pass(self, speed: float = 1.0) -> "SpanTotals":
        """Figures of one pass: seconds and calls divided by the number of
        passes, seconds also by the passes' host-speed factor."""
        passes = max(self.calls.get(ROOT, 0), 1)
        scaled = SpanTotals()
        for name, seconds in self.self_s.items():
            scaled.self_s[name] = seconds / passes / speed
        for name, calls in self.calls.items():
            scaled.calls[name] = calls / passes
        for name, seconds in self.program.items():
            scaled.program[name] = seconds / passes / speed
        for name, value in self.counters.items():
            scaled.counters[name] = value / passes
        scaled.wall_s = self.wall_s / passes / speed
        return scaled

    @property
    def coverage(self) -> float:
        if self.wall_s <= 0:
            return 0.0
        return 1.0 - self.self_s.get(ROOT, 0.0) / self.wall_s


def span_totals(spans) -> SpanTotals:
    """Account a trace's benchmark spans into :class:`SpanTotals`.

    Program spans contribute their total durations to ``program`` (by
    name) and their counters to ``counters``.
    """
    by_id = {(r.pid, r.span_id): r for r in spans}

    def bench_parent(record):
        parent = record.parent_id
        while parent is not None:
            above = by_id.get((record.pid, parent))
            if above is None:
                return None
            if above.name.startswith(PREFIX):
                return (above.pid, above.span_id)
            parent = above.parent_id
        return None

    totals = SpanTotals()
    nested: dict[tuple, float] = defaultdict(float)
    bench = [r for r in spans if r.name.startswith(PREFIX)]
    for record in bench:
        owner = bench_parent(record)
        if owner is not None:
            nested[owner] += record.duration_s
    for record in bench:
        name = record.name[len(PREFIX):]
        totals.self_s[name] += record.duration_s - nested[(record.pid, record.span_id)]
        totals.calls[name] += 1
        if name == ROOT:
            totals.wall_s += record.duration_s
    for record in spans:
        if not record.name.startswith(PREFIX):
            totals.program[record.name] += record.duration_s
        for counter, value in record.counters.items():
            totals.counters[counter] += value
    return totals
