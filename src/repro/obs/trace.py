"""Zero-dependency span tracer: nested, thread-safe, process-mergeable.

A *span* is one named, timed region of execution with arbitrary
key/value attributes.  Spans nest: the currently open span is tracked
in a :mod:`contextvars` variable, so concurrent threads (and asyncio
tasks) each maintain their own ancestry without locking on the hot
path.  Finished spans are appended to a process-wide :class:`Tracer`
and can be exported as JSON lines (:func:`write_trace_jsonl`) or
rendered as a tree (:func:`format_trace_tree`).

Spans from worker *processes* (the sharded Monte Carlo paths) are
collected in the child via :mod:`repro.obs.capture`, shipped back as
plain dicts, and re-parented under the parent's current span by
:meth:`Tracer.adopt` — the merged trace reads as one tree regardless
of how the work was scheduled.

Everything is a no-op while ``repro.obs.state.STATE.tracing`` is
False: ``span(...)`` still constructs (cheaply), but ``__enter__``
returns immediately without touching the clock or the record list.
"""

from __future__ import annotations

import contextvars
import functools
import json
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from .state import STATE

#: The span id of the innermost open span in this thread/task.
_CURRENT: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "repro_obs_current_span", default=None)


@dataclass(frozen=True)
class SpanRecord:
    """One finished span.

    ``start_s`` is ``time.perf_counter()`` at entry — monotonic, and on
    Linux (CLOCK_MONOTONIC) comparable across the processes of one
    host, so merged child spans order correctly against parent spans.
    ``parent_id`` is ``None`` for root spans.  ``pid`` records the
    process that *executed* the span, which survives cross-process
    adoption — a merged trace shows which worker ran which wafer.
    """

    span_id: int
    parent_id: int | None
    name: str
    start_s: float
    duration_s: float
    attrs: dict[str, Any] = field(default_factory=dict)
    pid: int = 0
    thread_id: int = 0
    error: str | None = None

    def to_dict(self) -> dict[str, Any]:
        """A JSON-ready plain dict (also the cross-process wire form)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "attrs": dict(self.attrs),
            "pid": self.pid,
            "thread_id": self.thread_id,
            "error": self.error,
        }


class Tracer:
    """A lock-protected, append-only collection of finished spans.

    One process-wide instance backs the module-level API; private
    instances are only used by tests.  ``push_isolated`` /
    ``pop_isolated`` swap the backing storage so a worker (child
    process, or the sequential fallback running in-process) can collect
    its spans separately and ship them to the parent for adoption.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: list[SpanRecord] = []
        self._next_id = 1

    def new_id(self) -> int:
        """A fresh, process-locally-unique span id."""
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            return span_id

    def add(self, record: SpanRecord) -> None:
        """Append one finished span."""
        with self._lock:
            self._records.append(record)

    def records(self) -> list[SpanRecord]:
        """A snapshot copy of every finished span, in finish order."""
        with self._lock:
            return list(self._records)

    def clear(self) -> None:
        """Drop all collected spans (ids keep increasing)."""
        with self._lock:
            self._records.clear()

    def adopt(self, span_dicts: Iterable[dict[str, Any]],
              parent_id: int | None) -> None:
        """Merge spans exported by another collector into this trace.

        Ids are re-assigned from this tracer's sequence (child
        processes number their spans independently, so the originals
        may collide); internal parent links are remapped, and spans
        that were roots in the child become children of ``parent_id``.
        """
        spans = list(span_dicts)
        with self._lock:
            mapping: dict[int, int] = {}
            for rec in spans:
                mapping[rec["span_id"]] = self._next_id
                self._next_id += 1
            for rec in spans:
                old_parent = rec.get("parent_id")
                new_parent = mapping.get(old_parent, parent_id) \
                    if old_parent is not None else parent_id
                self._records.append(SpanRecord(
                    span_id=mapping[rec["span_id"]],
                    parent_id=new_parent,
                    name=rec["name"],
                    start_s=rec["start_s"],
                    duration_s=rec["duration_s"],
                    attrs=dict(rec.get("attrs", {})),
                    pid=rec.get("pid", 0),
                    thread_id=rec.get("thread_id", 0),
                    error=rec.get("error")))

    def push_isolated(self) -> tuple[list[SpanRecord], "contextvars.Token"]:
        """Swap in empty storage; returns a frame for ``pop_isolated``.

        Also resets the current-span context so spans recorded in the
        isolated window are roots (their eventual parent is decided at
        adoption time).
        """
        token = _CURRENT.set(None)
        with self._lock:
            old = self._records
            self._records = []
        return old, token

    def pop_isolated(self, frame: tuple[list[SpanRecord],
                                        "contextvars.Token"],
                     ) -> list[dict[str, Any]]:
        """Restore storage swapped by ``push_isolated``.

        Returns the spans collected while isolated, as wire-form dicts.
        """
        old, token = frame
        with self._lock:
            captured = self._records
            self._records = old
        _CURRENT.reset(token)
        return [r.to_dict() for r in captured]


#: The process-wide tracer behind the module-level API.
_TRACER = Tracer()


class span:
    """Context manager *and* decorator marking one traced region.

    Usage::

        with span("mc.shard", wafers=4):
            ...

        @span("core.optimal_feature_size")
        def optimal_feature_size(...): ...

    When tracing is disabled (the default) both forms cost one flag
    check.  A ``span`` instance is single-use as a context manager
    (create a new one per ``with``); the decorator form creates a
    fresh span per call and re-checks the flag at call time, so
    decorated functions respond to runtime enable/disable.
    """

    __slots__ = ("name", "attrs", "_active", "_span_id", "_parent_id",
                 "_token", "_t0")

    def __init__(self, name: str, **attrs: Any) -> None:
        self.name = name
        self.attrs = attrs
        self._active = False

    def __enter__(self) -> "span":
        """Open the span (no-op unless tracing is enabled)."""
        if not STATE.tracing:
            self._active = False
            return self
        self._active = True
        self._parent_id = _CURRENT.get()
        self._span_id = _TRACER.new_id()
        self._token = _CURRENT.set(self._span_id)
        self._t0 = time.perf_counter()
        return self

    def annotate(self, **attrs: Any) -> "span":
        """Attach attributes to an *open* span (key → scalar).

        Lets code stamp facts that are only known mid-region — a span
        learns how much work it did only after the work ran.  Merged
        into the attributes given at construction (same keys
        overwrite) and exported with the span in the JSONL / tree
        forms.  A no-op while tracing is disabled, so callers can
        annotate unconditionally; returns ``self`` for chaining.
        """
        if self._active:
            self.attrs = {**self.attrs, **attrs}
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        """Close the span, recording duration and any exception type."""
        if not self._active:
            return False
        duration = time.perf_counter() - self._t0
        _CURRENT.reset(self._token)
        _TRACER.add(SpanRecord(
            span_id=self._span_id,
            parent_id=self._parent_id,
            name=self.name,
            start_s=self._t0,
            duration_s=duration,
            attrs=dict(self.attrs),
            pid=os.getpid(),
            thread_id=threading.get_ident(),
            error=exc_type.__name__ if exc_type is not None else None))
        self._active = False
        return False

    def __call__(self, fn: Callable) -> Callable:
        """Decorator form: trace every call of ``fn`` under this name."""
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not STATE.tracing:
                return fn(*args, **kwargs)
            with span(self.name, **self.attrs):
                return fn(*args, **kwargs)
        return wrapper


def current_span_id() -> int | None:
    """Id of the innermost open span in this thread/task, or ``None``."""
    return _CURRENT.get()


def get_trace() -> list[SpanRecord]:
    """All spans finished so far in this process, in finish order."""
    return _TRACER.records()


def clear_trace() -> None:
    """Drop every collected span."""
    _TRACER.clear()


def _json_default(value: Any) -> str:
    return str(value)


def write_trace_jsonl(path: str | os.PathLike) -> int:
    """Write the trace as JSON lines (one span per line).

    Attribute values that are not JSON-serializable are stringified.
    Returns the number of spans written.
    """
    records = _TRACER.records()
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec.to_dict(), default=_json_default))
            fh.write("\n")
    return len(records)


def format_trace_tree(records: Iterable[SpanRecord] | None = None) -> str:
    """Render spans as an indented tree with durations and attributes.

    ``records`` defaults to the process-wide trace.  Orphans (spans
    whose parent was never recorded, e.g. after a partial ``clear``)
    are promoted to roots rather than dropped.
    """
    recs = list(records) if records is not None else _TRACER.records()
    if not recs:
        return "(no spans recorded)"
    by_id = {r.span_id: r for r in recs}
    children: dict[int | None, list[SpanRecord]] = {}
    for rec in recs:
        parent = rec.parent_id if rec.parent_id in by_id else None
        children.setdefault(parent, []).append(rec)
    for siblings in children.values():
        siblings.sort(key=lambda r: r.start_s)
    lines: list[str] = []

    def _label(rec: SpanRecord) -> str:
        attrs = " ".join(f"{k}={v}" for k, v in rec.attrs.items())
        extra = f"  [{attrs}]" if attrs else ""
        err = f"  !{rec.error}" if rec.error else ""
        return (f"{rec.name}{extra}{err}  "
                f"— {rec.duration_s * 1e3:.3f} ms  (pid {rec.pid})")

    def _walk(rec: SpanRecord, prefix: str, tail: bool,
              is_root: bool) -> None:
        if is_root:
            lines.append(_label(rec))
            child_prefix = ""
        else:
            lines.append(prefix + ("└─ " if tail else "├─ ") + _label(rec))
            child_prefix = prefix + ("   " if tail else "│  ")
        kids = children.get(rec.span_id, [])
        for i, kid in enumerate(kids):
            _walk(kid, child_prefix, i == len(kids) - 1, False)

    for root in children.get(None, []):
        _walk(root, "", True, True)
    return "\n".join(lines)


def adopt_spans(span_dicts: Iterable[dict[str, Any]],
                parent_id: int | None = None) -> None:
    """Merge wire-form spans from another process into this trace.

    ``parent_id`` defaults to the caller's innermost open span, so a
    parent that is inside ``with span("mc.simulate_lot")`` adopts its
    workers' spans as children of that lot span.
    """
    if parent_id is None:
        parent_id = _CURRENT.get()
    _TRACER.adopt(span_dicts, parent_id)
