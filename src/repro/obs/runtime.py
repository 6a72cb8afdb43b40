"""Process-wide observability switch.

One :class:`Observability` session is active at a time (or none — the
default).  Instrumented code asks this module for the current registry
or span recorder; when nothing is active it gets the shared null
variants, so the instrumented hot paths stay allocation-free.

A session collects per-run aggregate metrics and the span tree of the
run's phases.  The per-event work is the native counters the models
keep anyway (see ``soc.bus`` / ``xtalk``), and an observed run clocks
through the same loop as an unobserved one, so the enabled-vs-disabled
delta on a defect campaign stays under the 5 % budget gated by
``benchmarks/bench_obs_overhead.py``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.obs.spans import NULL_SPAN, Span, SpanRecorder


class Observability:
    """One enabled observability session: a registry plus a span tree."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.spans = SpanRecorder()


_ACTIVE: Optional[Observability] = None


def active() -> Optional[Observability]:
    """The enabled session, or ``None``.

    This is *the* hot-path guard: instrumentation that would do per-event
    work checks ``active() is None`` (a global load and an identity
    test) and bails out.
    """
    return _ACTIVE


def registry() -> MetricsRegistry:
    """The active registry, or the allocation-free null registry."""
    obs = _ACTIVE
    return obs.registry if obs is not None else NULL_REGISTRY


def span(name: str, **attrs: object) -> Span:
    """A recorded span when enabled; the shared no-op span otherwise."""
    obs = _ACTIVE
    if obs is None:
        return NULL_SPAN  # type: ignore[return-value]
    return obs.spans.span(name, **attrs)


@contextmanager
def suspended() -> Iterator[None]:
    """Temporarily disable collection inside an enabled session.

    The control arm of overhead measurements uses this to run the same
    workload on the no-op path without tearing the session down.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = None
    try:
        yield
    finally:
        _ACTIVE = previous


@contextmanager
def session() -> Iterator[Observability]:
    """Enable observability for a ``with`` block, then restore the
    previous state (supports nesting, e.g. tests inside a profiled
    run)."""
    global _ACTIVE
    previous = _ACTIVE
    obs = Observability()
    _ACTIVE = obs
    try:
        yield obs
    finally:
        _ACTIVE = previous
