"""Hierarchical timing spans with a context-manager API.

A span is one timed region of a run (``setup``, ``campaign``,
``campaign/coverage.campaign``...).  Spans nest: entering a span while
another is open makes it a child, so a finished recorder holds a forest
whose roots are the run's *phases*.

As with metrics, the disabled path must be free: :data:`NULL_SPAN` is a
reusable context manager whose ``__enter__``/``__exit__`` do nothing and
allocate nothing.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional


class Span:
    """One timed region; also its own context manager."""

    __slots__ = ("name", "start_ns", "end_ns", "children", "attrs",
                 "_recorder")

    def __init__(self, name: str, recorder: Optional["SpanRecorder"] = None,
                 attrs: Optional[Dict[str, object]] = None):
        self.name = name
        self.start_ns: Optional[int] = None
        self.end_ns: Optional[int] = None
        self.children: List["Span"] = []
        self.attrs: Dict[str, object] = attrs or {}
        self._recorder = recorder

    @property
    def duration_ns(self) -> int:
        """Elapsed nanoseconds (0 while the span is still open)."""
        if self.start_ns is None or self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    def __enter__(self) -> "Span":
        self.start_ns = time.perf_counter_ns()
        if self._recorder is not None:
            self._recorder._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end_ns = time.perf_counter_ns()
        if self._recorder is not None:
            self._recorder._pop(self)

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready representation (children inlined recursively)."""
        payload: Dict[str, object] = {
            "name": self.name,
            "start_ns": self.start_ns,
            "duration_ns": self.duration_ns,
        }
        if self.attrs:
            payload["attrs"] = dict(self.attrs)
        if self.children:
            payload["children"] = [c.as_dict() for c in self.children]
        return payload


class SpanRecorder:
    """Collects a forest of spans for one observability session.

    ``max_spans`` bounds memory on pathological workloads (an unbounded
    loop of spans): past the limit new spans are silently timed but not
    retained, and :attr:`dropped` counts them.
    """

    def __init__(self, max_spans: int = 100_000):
        self.roots: List[Span] = []
        self.dropped = 0
        self.max_spans = max_spans
        self._stack: List[Span] = []
        self._recorded = 0

    def span(self, name: str, **attrs: object) -> Span:
        """A new span, recorded under the currently open one on entry."""
        return Span(name, recorder=self, attrs=attrs or None)

    def _push(self, span: Span) -> None:
        if self._recorded >= self.max_spans:
            self.dropped += 1
        else:
            self._recorded += 1
            if self._stack:
                self._stack[-1].children.append(span)
            else:
                self.roots.append(span)
        self._stack.append(span)

    def _pop(self, span: Span) -> None:
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:  # tolerate out-of-order exits
            self._stack.remove(span)

    def phases(self) -> List[Dict[str, object]]:
        """Root spans as flat phase dicts (the RunReport ``phases`` list)."""
        return [
            {
                "name": root.name,
                "start_ns": root.start_ns,
                "duration_ns": root.duration_ns,
            }
            for root in self.roots
            if root.start_ns is not None
        ]

    def as_dicts(self) -> List[Dict[str, object]]:
        """The whole span forest, JSON-ready."""
        return [root.as_dict() for root in self.roots]


class _NullSpan:
    """Reusable no-op context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


NULL_SPAN = _NullSpan()
