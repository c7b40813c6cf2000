"""Hierarchical span tracing for one campaign process.

A :class:`Tracer` records :class:`Span` intervals against the monotonic
clock (``time.perf_counter``).  Parenting is implicit: ``begin`` pushes
onto a stack, ``end`` pops, so the campaign → week → phase → shard
hierarchy falls out of the call structure without anyone threading
parent ids around.  :meth:`Tracer.adopt` attaches spans built outside
the stack (derived layer intervals) under a chosen parent.

Spans carry a small ``attrs`` dict (shard index, week, event counts)
that is exported into the Chrome trace-event ``args`` field.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from time import perf_counter

__all__ = [
    "Span",
    "Tracer",
]


class Span:
    """One timed interval on the monotonic clock.

    ``duration`` is ``None`` while the span is open; ``end`` stamps it.
    ``parent_id`` is the ``span_id`` of the enclosing span (``None``
    for roots).  ``pid`` records the process that *recorded* the span,
    which the trace export maps to the Chrome trace-event process lane.
    """

    __slots__ = ("name", "category", "start", "duration", "span_id", "parent_id", "pid", "attrs")

    def __init__(self, name, category, start, span_id, parent_id, pid, attrs=None):
        self.name = name
        self.category = category
        self.start = start
        self.duration = None
        self.span_id = span_id
        self.parent_id = parent_id
        self.pid = pid
        self.attrs = attrs

    def __repr__(self):  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, cat={self.category!r}, id={self.span_id}, "
            f"parent={self.parent_id}, dur={self.duration})"
        )


class Tracer:
    """Span recorder with stack-based implicit parenting.

    Finished *and* open spans live in ``spans`` (open ones have
    ``duration is None``; export skips them).  The tracer is
    single-threaded by design, like the campaign runtime it records.
    """

    __slots__ = ("spans", "_stack", "_next_id", "pid")

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 1
        self.pid = os.getpid()

    def begin(self, name: str, category: str = "run", **attrs) -> Span:
        span = Span(
            name,
            category,
            perf_counter(),
            self._next_id,
            self._stack[-1].span_id if self._stack else None,
            self.pid,
            attrs or None,
        )
        self._next_id += 1
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> Span:
        """Close ``span`` (and anything left open beneath it)."""
        now = perf_counter()
        while self._stack:
            top = self._stack.pop()
            top.duration = now - top.start
            if top is span:
                break
        return span

    @contextmanager
    def span(self, name: str, category: str = "run", **attrs):
        span = self.begin(name, category, **attrs)
        try:
            yield span
        finally:
            self.end(span)

    def current(self) -> Span | None:
        return self._stack[-1] if self._stack else None

    def finished_spans(self) -> list[Span]:
        return [span for span in self.spans if span.duration is not None]

    def adopt(self, spans: list[Span], parent: Span | None) -> list[Span]:
        """Attach externally built spans under ``parent``.

        Span ids are remapped into this tracer's id space; spans whose
        parent is not among ``spans`` become children of ``parent``.
        """
        remap: dict[int, int] = {}
        adopted: list[Span] = []
        for span in spans:
            new_id = self._next_id
            self._next_id += 1
            remap[span.span_id] = new_id
            span.span_id = new_id
            if span.parent_id in remap:
                span.parent_id = remap[span.parent_id]
            else:
                span.parent_id = parent.span_id if parent is not None else None
            self.spans.append(span)
            adopted.append(span)
        return adopted
