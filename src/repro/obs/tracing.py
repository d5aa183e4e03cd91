"""Span-based tracing on the simulated clock.

A :class:`Span` is one timed unit of work — a query, one participant's
fragment, one S3 GET, a mergeout job, a reaper sweep.  Spans form a tree
via ``parent_id``; the tracer keeps a stack so nesting falls out of
``with tracer.span(...)`` blocks, and :meth:`Tracer.record` attaches leaf
spans (completed instants with a known duration) under whatever is open.

Durations are *sim-clock* durations.  Queries in this repo do not advance
the clock — their latency is computed by the cost model — so spans opened
around query work set ``span.duration`` explicitly from the cost model's
answer (fragment busy-seconds, per-request IO seconds).  Spans around
clock-driven work (services, campaigns) default to the clock delta between
enter and exit.

The trace is bounded (``max_spans``, oldest dropped) and exportable as
JSON; :meth:`Tracer.mark`/:meth:`Tracer.spans_since` let the simulation
harness attach exactly the spans of a failing step to the violation.
Drops are never silent: each evicted span bumps :attr:`Tracer.dropped`
and the ``obs.spans_dropped`` counter, and
:meth:`Tracer.truncated_since` tells a ``spans_since`` caller whether
its window lost spans to eviction.

:data:`NULL_TRACER` is the zero-overhead-when-disabled implementation.
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from typing import Dict, List, Optional


class Span:
    """One timed unit of work in the trace tree."""

    __slots__ = ("span_id", "parent_id", "name", "start", "duration", "attrs", "_tracer")

    def __init__(
        self,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        start: float,
        attrs: Dict[str, object],
        tracer: Optional["Tracer"] = None,
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.duration: Optional[float] = None
        self.attrs = attrs
        self._tracer = tracer

    def annotate(self, **attrs) -> "Span":
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start": self.start,
            "duration": self.duration if self.duration is not None else 0.0,
            "attrs": dict(self.attrs),
        }

    # -- context manager: push/pop on the owning tracer's stack -----------------

    def __enter__(self) -> "Span":
        if self._tracer is not None:
            self._tracer._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        if tracer is not None and tracer._stack and tracer._stack[-1] is self:
            tracer._stack.pop()
        if self.duration is None:
            self.duration = (tracer._now() - self.start) if tracer is not None else 0.0
        if exc is not None:
            self.attrs["error"] = f"{type(exc).__name__}: {exc}"
        return False

    def __repr__(self) -> str:
        return f"Span({self.name!r}, id={self.span_id}, dur={self.duration})"


class Tracer:
    """Records a bounded tree of spans stamped by the sim clock."""

    enabled = True

    def __init__(self, clock=None, max_spans: int = 20000):
        self._clock = clock
        self._ids = itertools.count(1)
        self._stack: List[Span] = []
        self._spans: "deque[Span]" = deque(maxlen=max_spans)
        #: Spans evicted from the bounded deque since construction.
        self.dropped = 0
        #: Highest span_id evicted so far (0 = nothing evicted yet).
        self._evicted_through = 0

    def _now(self) -> float:
        return self._clock.now if self._clock is not None else 0.0

    # -- recording --------------------------------------------------------------

    def _append(self, span: Span) -> None:
        if self._spans.maxlen is not None and len(self._spans) == self._spans.maxlen:
            self._evicted_through = self._spans[0].span_id
            self.dropped += 1
        self._spans.append(span)

    def span(self, name: str, **attrs) -> Span:
        """Open a span; use as ``with tracer.span("query") as s: ...``.

        The span's duration defaults to the clock delta at exit; set
        ``s.duration`` inside the block for cost-model-derived durations.
        """
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(next(self._ids), parent, name, self._now(), dict(attrs), self)
        self._append(span)
        return span

    def record(self, name: str, duration: float = 0.0, **attrs) -> Span:
        """Attach a completed leaf span under the currently open span."""
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(next(self._ids), parent, name, self._now(), dict(attrs))
        span.duration = duration
        self._append(span)
        return span

    # -- reading ----------------------------------------------------------------

    @property
    def spans(self) -> List[Span]:
        return list(self._spans)

    def mark(self) -> int:
        """A bookmark; pair with :meth:`spans_since`.

        Span ids are issued in order and spans enter the deque at open
        time, so the deque tail holds the highest id issued so far.
        """
        last = self._spans[-1].span_id if self._spans else 0
        return last + 1

    def spans_since(self, mark: int) -> List[Span]:
        return [s for s in self._spans if s.span_id >= mark]

    def truncated_since(self, mark: int) -> bool:
        """True when eviction has eaten into the ``[mark, now]`` window —
        i.e. :meth:`spans_since` for this mark is missing spans."""
        return self._evicted_through >= mark

    def to_json(self, spans: Optional[List[Span]] = None) -> str:
        spans = self.spans if spans is None else spans
        return json.dumps([s.to_dict() for s in spans], indent=2, sort_keys=True)

    def render_tree(self, spans: Optional[List[Span]] = None) -> str:
        """Pretty-print the span tree (indentation by parentage)."""
        spans = self.spans if spans is None else spans
        return render_span_tree(spans)


def render_span_tree(spans: List[Span]) -> str:
    """Indented text rendering of a span list (children under parents)."""
    present = {s.span_id for s in spans}
    children: Dict[Optional[int], List[Span]] = {}
    for s in spans:
        parent = s.parent_id if s.parent_id in present else None
        children.setdefault(parent, []).append(s)
    lines: List[str] = []

    def walk(parent: Optional[int], depth: int) -> None:
        for s in children.get(parent, []):
            duration = s.duration if s.duration is not None else 0.0
            attrs = " ".join(
                f"{k}={v}" for k, v in sorted(s.attrs.items())
            )
            pad = "  " * depth
            lines.append(
                f"{pad}{s.name}  [{duration * 1000:.3f} ms]"
                + (f"  {attrs}" if attrs else "")
            )
            walk(s.span_id, depth + 1)

    walk(None, 0)
    return "\n".join(lines)


class _NullSpan:
    """Do-nothing span; attribute writes are accepted and discarded."""

    __slots__ = ("duration",)
    span_id = 0
    parent_id = None
    name = ""
    start = 0.0
    attrs: Dict[str, object] = {}

    def annotate(self, **attrs) -> "_NullSpan":
        return self

    def to_dict(self) -> dict:
        return {}

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


class NullTracer:
    """Disabled tracer: records nothing, returns shared no-op objects."""

    enabled = False
    dropped = 0

    def __init__(self) -> None:
        self._span = _NullSpan()

    @property
    def spans(self) -> List[Span]:
        return []

    def span(self, name: str, **attrs) -> _NullSpan:
        return self._span

    def record(self, name: str, duration: float = 0.0, **attrs) -> _NullSpan:
        return self._span

    def mark(self) -> int:
        return 0

    def spans_since(self, mark: int) -> List[Span]:
        return []

    def truncated_since(self, mark: int) -> bool:
        return False

    def to_json(self, spans=None) -> str:
        return "[]"

    def render_tree(self, spans=None) -> str:
        return ""


NULL_TRACER = NullTracer()
