"""Nested span tracing with a zero-cost disabled path.

A *span* is one timed region of the pipeline — the whole analysis, one
phase, one chain solve, one pool task — recorded with wall-clock and
CPU time plus free-form attributes.  Spans nest through the context
manager protocol::

    with tracer.span("quantify.solve", cutset="a+b") as span:
        ...
        span.set(chain_states=42, probability=p)

Two implementations share the interface:

* :class:`Tracer` collects :class:`SpanRecord` entries (used when a
  run is traced);
* :data:`NULL_TRACER` is a shared singleton whose :meth:`~Tracer.span`
  returns one shared no-op span — entering/exiting it does nothing, so
  instrumented code pays only an attribute lookup and an empty call
  when tracing is off.

Worker processes build their own tracer (with an id ``prefix`` so span
ids never collide with the parent's) and ship their records back inside
the pool results; :meth:`Tracer.add_foreign` grafts them under the
parent's current span.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

__all__ = ["NULL_TRACER", "NullTracer", "SpanRecord", "Tracer"]


@dataclass
class SpanRecord:
    """One finished span.

    ``t0`` is the wall-clock start (``time.time()``, seconds since the
    epoch — comparable across processes); ``wall_seconds`` and
    ``cpu_seconds`` are the span's durations; ``span_id`` is unique
    within one trace and ``parent_id`` links the nesting (``None`` for
    a root span).  ``attrs`` carries whatever the instrumentation
    attached (cutset names, chain sizes, probabilities, error kinds).
    """

    name: str
    t0: float
    wall_seconds: float
    cpu_seconds: float
    span_id: str
    parent_id: str | None
    depth: int
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The JSONL line payload of this span (see :mod:`repro.obs.export`)."""
        return {
            "type": "span",
            "name": self.name,
            "t0": self.t0,
            "wall": self.wall_seconds,
            "cpu": self.cpu_seconds,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SpanRecord":
        """Rebuild a record from its JSONL payload (worker shipping)."""
        return cls(
            name=payload["name"],
            t0=payload["t0"],
            wall_seconds=payload["wall"],
            cpu_seconds=payload["cpu"],
            span_id=payload["span_id"],
            parent_id=payload.get("parent_id"),
            depth=payload.get("depth", 0),
            attrs=dict(payload.get("attrs", {})),
        )


class _NullSpan:
    """The shared do-nothing span handed out while tracing is off."""

    __slots__ = ()

    def set(self, **attrs: object) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> bool:
        # Named parameters, not ``*exc``: the call skips packing a tuple.
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every span is the shared no-op span."""

    enabled = False

    def span(self, name: str, **attrs: object) -> _NullSpan:
        """A no-op span (shared singleton; enter/exit do nothing)."""
        return _NULL_SPAN

    def add_foreign(
        self, payloads: list[dict], parent_id: str | None = None
    ) -> None:
        """Discard shipped worker spans."""
        return None

    def records(self) -> list[SpanRecord]:
        """No records are ever collected."""
        return []

    @property
    def current_id(self) -> str | None:
        """There is never an open span."""
        return None


NULL_TRACER = NullTracer()


class _Span:
    """A live (collecting) span; created by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_name", "_attrs", "_t0", "_wall0", "_cpu0",
                 "_span_id", "_parent_id", "_depth")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def set(self, **attrs: object) -> None:
        """Attach (or overwrite) attributes on the span."""
        self._attrs.update(attrs)

    def __enter__(self) -> "_Span":
        tracer = self._tracer
        self._parent_id = tracer.current_id
        self._depth = len(tracer._stack)
        self._span_id = tracer._next_id()
        tracer._stack.append(self._span_id)
        self._t0 = time.time()
        self._wall0 = time.perf_counter()
        self._cpu0 = time.process_time()
        return self

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        tb: object,
    ) -> bool:
        tracer = self._tracer
        wall = time.perf_counter() - self._wall0
        cpu = time.process_time() - self._cpu0
        tracer._stack.pop()
        if exc_type is not None:
            self._attrs.setdefault("error", exc_type.__name__)
        tracer._records.append(
            SpanRecord(
                self._name,
                self._t0,
                wall,
                cpu,
                self._span_id,
                self._parent_id,
                self._depth,
                self._attrs,
            )
        )
        return False


class Tracer:
    """A collecting tracer for one run (or one worker's share of it).

    ``prefix`` namespaces the generated span ids — worker tracers use
    ``"t<task_id>."`` so their records can be merged into the parent's
    trace without id collisions.  Not thread-safe: one tracer belongs
    to one process's analysis loop.
    """

    enabled = True

    def __init__(self, prefix: str = "") -> None:
        self._prefix = prefix
        self._counter = 0
        self._records: list[SpanRecord] = []
        self._stack: list[str] = []
        self.pid = os.getpid()

    def _next_id(self) -> str:
        self._counter += 1
        return f"{self._prefix}{self._counter}"

    @property
    def current_id(self) -> str | None:
        """Id of the innermost open span, or ``None`` outside any span."""
        return self._stack[-1] if self._stack else None

    def span(self, name: str, **attrs: object) -> _Span:
        """A new span; use as a context manager around the timed region."""
        return _Span(self, name, dict(attrs))

    def records(self) -> list[SpanRecord]:
        """All finished spans, in completion order."""
        return list(self._records)

    def add_foreign(
        self, payloads: list[dict], parent_id: str | None = None
    ) -> None:
        """Graft spans shipped from another process into this trace.

        ``payloads`` are span dicts (:meth:`SpanRecord.to_dict`); roots
        of the shipped batch (records without a parent) are attached
        under ``parent_id`` and every depth is shifted below it.
        """
        if not payloads:
            return
        base_depth = 0
        if parent_id is not None:
            for record in self._records:
                if record.span_id == parent_id:
                    base_depth = record.depth + 1
                    break
            else:
                # Parent still open: its depth is its position on the stack.
                if parent_id in self._stack:
                    base_depth = self._stack.index(parent_id) + 1
        for payload in payloads:
            record = SpanRecord.from_dict(dict(payload))
            if record.parent_id is None:
                record.parent_id = parent_id
            record.depth += base_depth
            self._records.append(record)
