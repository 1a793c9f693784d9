"""In-memory spans recorded around calls into the program's modules.

A span has a name, a start, an end and the id of the span that was open when
it started (its parent). Spans are kept in a list and written out when the
run ends. Instrumentation replaces a function at the attribute its caller
resolves (``pipeline.find_roots``, ``BAFunction.psi_grid``) with a wrapper
that opens and closes a span, and puts the original back afterwards; the
program's source is never edited.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.id, "parent": self.parent, "name": self.name,
                "start": self.start, "end": self.end, "attrs": self.attrs}


class Tracer:
    """Records nested spans while ``active``; a no-op pass-through otherwise.

    The benchmark runs its operations on one thread, so a plain stack tracks
    the open span.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.active = False
        #: time the wrappers spent outside the spans they opened
        self.overhead_s = 0.0
        self._stack: list[Span] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(id=len(self.spans), parent=parent, name=name, start=self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def wrap(self, fn, name: str, observe=None):
        """``fn`` inside a span; ``observe(args, kwargs, result)`` adds attrs."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            entered = tracer.clock()
            s = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(s)
            if observe is not None:
                s.attrs.update(observe(args, kwargs, result))
            tracer.overhead_s += tracer.clock() - entered - s.duration
            return result

        return traced

    @contextmanager
    def instrumented(self, targets):
        """Wrap each ``(owner, attr, span_name, observe)`` for the block.

        ``owner`` is a module or a class; classmethods stay classmethods.
        """
        saved = []
        try:
            for owner, attr, name, observe in targets:
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(raw.__func__, name, observe))
                else:
                    new = self.wrap(raw, name, observe)
                saved.append((owner, attr, raw))
                setattr(owner, attr, new)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)


def _covered(intervals) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """span id -> its duration minus the part of it its child spans cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end))
                for c in children.get(s.id, ())]
        out[s.id] = s.duration - _covered([k for k in kids if k[1] > k[0]])
    return out


class SpanSet:
    """Queries over a finished list of spans, selected by name predicate."""

    def __init__(self, spans):
        self.spans = list(spans)
        self.by_id = {s.id: s for s in self.spans}
        self.self_s = self_times(self.spans)

    def select(self, match) -> list:
        return [s for s in self.spans if match(s.name)]

    def _outermost(self, match) -> list:
        # a span nested inside another selected span is already counted
        out = []
        for s in self.select(match):
            p = s.parent
            while p is not None and not match(self.by_id[p].name):
                p = self.by_id[p].parent
            if p is None:
                out.append(s)
        return out

    def total(self, match) -> float:
        """Wall time covered by the selected spans, nesting counted once."""
        return sum(s.duration for s in self._outermost(match))

    def self_total(self, match) -> float:
        return sum(self.self_s[s.id] for s in self.select(match))

    def count(self, match) -> int:
        return len(self.select(match))

    def attr_sum(self, match, key) -> float:
        return sum(s.attrs.get(key, 0) for s in self.select(match))

    def attr_max(self, match, key, default=0.0) -> float:
        vals = [s.attrs[key] for s in self.select(match) if key in s.attrs]
        return max(vals) if vals else default


def named(*names):
    """Predicate matching exact span names."""
    wanted = set(names)
    return lambda n: n in wanted


def prefixed(prefix):
    return lambda n: n.startswith(prefix)
