"""In-memory span recorder for the traced benchmark run.

Spans are opened and closed around calls into knopf's layers by wrappers that
the benchmark installs from outside the package (module attributes and class
methods are swapped for timing wrappers and swapped back afterwards).  Each
span keeps its name, start, end, the span that caused it and the round it
belongs to.  Nothing is printed while spans are recorded; `dump` writes them
out at the end of the run.

A layer's self time is its span's duration minus the durations of its direct
children.  The process is single-threaded, so children never overlap and the
sum of their durations is the part of the parent's interval they cover.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "round", "counts")

    def __init__(self, sid, name, parent, start, rnd):
        self.id = sid
        self.name = name
        self.parent = parent
        self.start = start
        self.end = None
        self.round = rnd
        self.counts = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {key: getattr(self, key) for key in self.__slots__}


class Tracer:
    """Records nested spans; `install` swaps timing wrappers into knopf."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.round = 0
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.clock(), self.round)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span):
        span.end = self.clock()
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        span = self.open(name)
        try:
            yield span
        finally:
            self.close(span)

    def wrap(self, fn, name: str, counter=None):
        """A wrapper that records `name` around each call of `fn`.

        `counter(args, kwargs, result)` may return a dict of counts for the
        span; it runs after the span is closed, so its cost is not charged to
        the wrapped layer.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return wrapper

    # -- patching ----------------------------------------------------------

    def patch(self, owner, attr: str, name: str, counter=None, also=()) -> bool:
        """Replace `owner.attr` (and the same object in `also`) with a wrapper.

        Returns False when the attribute does not exist, so a layer that a
        later version of the program renames or removes reads as absent
        instead of failing the run.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return False
        wrapper = self.wrap(original, name, counter)
        for target in (owner, *also):
            if target is owner or getattr(target, attr, None) is original:
                self._patches.append((target, attr, getattr(target, attr)))
                setattr(target, attr, wrapper)
        return True

    def unpatch(self):
        while self._patches:
            target, attr, original = self._patches.pop()
            setattr(target, attr, original)

    # -- output ------------------------------------------------------------

    def dump(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return {s.id: s.duration - covered[s.id] for s in spans}


def has_ancestor(span: Span, by_id: dict[int, Span], name: str) -> bool:
    pid = span.parent
    while pid is not None:
        parent = by_id[pid]
        if parent.name == name:
            return True
        pid = parent.parent
    return False


def summarize(spans: list[Span]) -> dict[str, float]:
    """Totals per span name over the given spans.

    `<name>.s` sums only outermost spans of a name (a span nested inside a
    span of the same name is already covered by it); `<name>.self_s` sums
    self times; `<name>.calls` counts every span; `<name>.q_s` sums outermost
    spans flagged with lane "q"; every other count key is summed as
    `<name>.<key>`.
    """
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        outermost = not has_ancestor(s, by_id, s.name)
        out[f"{s.name}.calls"] += 1
        out[f"{s.name}.self_s"] += own[s.id]
        if outermost:
            out[f"{s.name}.s"] += s.duration
        for key, value in (s.counts or {}).items():
            if key == "lane":
                if value == "q" and outermost:
                    out[f"{s.name}.q_s"] += s.duration
            else:
                out[f"{s.name}.{key}"] += value
    return dict(out)
