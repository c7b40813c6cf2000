"""Hierarchical span tracing across the multi-process runtime.

A :class:`Tracer` records :class:`Span` intervals against the monotonic
clock (``time.perf_counter``).  Parenting is implicit: ``begin`` pushes
onto a stack, ``end`` pops, so the campaign → week → phase →
shard/ticket → merge hierarchy falls out of the call structure without
anyone threading parent ids around.

Cross-process spans: shm-pool workers (one span per ticket-week)
record their own tiny tracer, serialise it with
:func:`encode_obs_blob` — varints plus the shard codec's deduplicating
string table, riding inside the CRC-checked ``ECNSTOR4`` frame — and
the parent re-parents the blob's root spans under whatever span
dispatched the work (:meth:`Tracer.ingest`).  On Linux
``perf_counter`` is CLOCK_MONOTONIC, which is shared across forked
processes, so worker timestamps land directly on the parent timeline
with no rebasing.

Spans carry a small ``attrs`` dict (shard index, attempt, week,
``fallback`` tags) that survives the blob round-trip and is exported
into the Chrome trace-event ``args`` field.
"""

from __future__ import annotations

import os
import struct
from contextlib import contextmanager
from time import perf_counter

from repro.quic.varint import decode_varint, encode_varint

__all__ = [
    "OBS_BLOB_VERSION",
    "Span",
    "Tracer",
    "decode_obs_blob",
    "encode_obs_blob",
]

#: Version byte leading every worker obs blob.
OBS_BLOB_VERSION = 1

_DOUBLE = struct.Struct(">d")

_ATTR_INT = 0
_ATTR_STR = 1
_ATTR_TRUE = 2
_ATTR_FALSE = 3
_ATTR_FLOAT = 4


class Span:
    """One timed interval on the monotonic clock.

    ``duration`` is ``None`` while the span is open; ``end`` stamps it.
    ``parent_id`` is the ``span_id`` of the enclosing span (``None``
    for roots).  ``pid`` records the process that *recorded* the span,
    which the trace export maps to Chrome trace-event process lanes.
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
    single-threaded by design — the runtime's concurrency is processes,
    and each process records into its own tracer.
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

    def ingest(self, blob: bytes, parent: Span | None) -> list[Span]:
        """Fold a worker obs blob's spans in under ``parent``.

        Worker span ids are remapped into this tracer's id space;
        blob-root spans (parent id unknown to the blob) are re-parented
        under ``parent`` so every shipped ticket/shard span hangs off
        the span that dispatched it.
        """
        spans, _deltas = decode_obs_blob(blob)
        return self.adopt(spans, parent)

    def adopt(self, spans: list[Span], parent: Span | None) -> list[Span]:
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


# ----------------------------------------------------------------------
# Worker obs blob codec
# ----------------------------------------------------------------------
def _encode_attr_value(value, out: bytearray, table) -> None:
    if value is True:
        out.append(_ATTR_TRUE)
    elif value is False:
        out.append(_ATTR_FALSE)
    elif isinstance(value, int):
        out.append(_ATTR_INT)
        # zig-zag so negative ints (rare, but legal) stay compact
        out += encode_varint((value << 1) ^ (value >> 63) if value < 0 else value << 1)
    elif isinstance(value, float):
        out.append(_ATTR_FLOAT)
        out += _DOUBLE.pack(value)
    else:
        out.append(_ATTR_STR)
        out += encode_varint(table.ref(str(value)))


def _decode_attr_value(buf, offset, strings):
    tag = buf[offset]
    offset += 1
    if tag == _ATTR_TRUE:
        return True, offset
    if tag == _ATTR_FALSE:
        return False, offset
    if tag == _ATTR_INT:
        raw, offset = decode_varint(buf, offset)
        return (raw >> 1) ^ -(raw & 1), offset
    if tag == _ATTR_FLOAT:
        (value,) = _DOUBLE.unpack_from(buf, offset)
        return value, offset + 8
    ref, offset = decode_varint(buf, offset)
    return strings[ref], offset


def encode_obs_blob(spans: list[Span], metric_deltas: dict[str, int] | None = None) -> bytes:
    """Marshal worker spans + counter deltas into one compact buffer.

    The blob rides *inside* the shard result frame, so it inherits the
    frame's CRC and needs no checksum of its own.  Only finished spans
    are shipped; open spans at encode time are a worker bug and are
    silently dropped rather than shipped with a bogus duration.
    """
    # Local import: codec imports broadly (quic/tcp result types); keep
    # the obs package importable on its own for the metrics-only users.
    from repro.store.codec import StringTable, encode_string_table

    table = StringTable()
    body = bytearray()
    finished = [span for span in spans if span.duration is not None]
    body += encode_varint(len(finished))
    for span in finished:
        body += encode_varint(table.ref(span.name))
        body += encode_varint(table.ref(span.category))
        body += _DOUBLE.pack(span.start)
        body += _DOUBLE.pack(span.duration)
        body += encode_varint(span.span_id)
        body += encode_varint(span.parent_id if span.parent_id is not None else 0)
        body += encode_varint(span.pid)
        attrs = span.attrs or {}
        body += encode_varint(len(attrs))
        for key, value in attrs.items():
            body += encode_varint(table.ref(key))
            _encode_attr_value(value, body, table)
    deltas = metric_deltas or {}
    body += encode_varint(len(deltas))
    for name in sorted(deltas):
        body += encode_varint(table.ref(name))
        body += encode_varint(deltas[name])
    out = bytearray((OBS_BLOB_VERSION,))
    out += encode_string_table(table)
    out += body
    return bytes(out)


# repro-lint: skip[REP004] the blob rides *inside* the CRC-verified
# ECNSTOR4 result frame; decode_shard_payload_obs unframes it first.
def decode_obs_blob(blob: bytes) -> tuple[list[Span], dict[str, int]]:
    """Inverse of :func:`encode_obs_blob` → (spans, counter deltas)."""
    from repro.store.codec import decode_string_table

    if not blob:
        return [], {}
    version = blob[0]
    if version != OBS_BLOB_VERSION:
        raise ValueError(f"unknown obs blob version {version}")
    strings, offset = decode_string_table(blob, 1)
    span_count, offset = decode_varint(blob, offset)
    spans: list[Span] = []
    for _ in range(span_count):
        name_ref, offset = decode_varint(blob, offset)
        cat_ref, offset = decode_varint(blob, offset)
        (start,) = _DOUBLE.unpack_from(blob, offset)
        offset += 8
        (duration,) = _DOUBLE.unpack_from(blob, offset)
        offset += 8
        span_id, offset = decode_varint(blob, offset)
        parent_id, offset = decode_varint(blob, offset)
        pid, offset = decode_varint(blob, offset)
        attr_count, offset = decode_varint(blob, offset)
        attrs = None
        if attr_count:
            attrs = {}
            for _ in range(attr_count):
                key_ref, offset = decode_varint(blob, offset)
                value, offset = _decode_attr_value(blob, offset, strings)
                attrs[strings[key_ref]] = value
        span = Span(
            strings[name_ref],
            strings[cat_ref],
            start,
            span_id,
            parent_id or None,
            pid,
            attrs,
        )
        span.duration = duration
        spans.append(span)
    delta_count, offset = decode_varint(blob, offset)
    deltas: dict[str, int] = {}
    for _ in range(delta_count):
        name_ref, offset = decode_varint(blob, offset)
        value, offset = decode_varint(blob, offset)
        deltas[strings[name_ref]] = value
    return spans, deltas
