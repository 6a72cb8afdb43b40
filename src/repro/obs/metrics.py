"""Metric primitives: counters, gauges and ns-resolution timers.

A :class:`MetricsRegistry` owns a flat, dot-named metric namespace
(``cpu.cycles``, ``bus.data.corrupted``, ``coverage.defects.detected``,
...).  Names are plain strings; the dots are a reporting convention, not
a hierarchy the registry enforces.

Design note — the no-op mode.  Instrumented code paths must cost
(almost) nothing when observability is disabled.  The null variants
below (:data:`NULL_COUNTER`, :data:`NULL_REGISTRY`, ...) are shared
singletons whose mutating methods are empty: calling them performs no
attribute writes and **no allocations**, which the hot-path property
test in ``tests/test_obs_metrics.py`` enforces.  Instrumentation can
therefore be written unconditionally against the registry returned by
:func:`repro.obs.runtime.registry`.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Tuple, Union


class Counter:
    """A monotonically increasing integer metric."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (negative increments are rejected)."""
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount

    def snapshot(self) -> Dict[str, Union[str, int]]:
        return {"type": "counter", "value": self.value}


class Gauge:
    """A metric holding the most recently set value."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> Dict[str, Union[str, float]]:
        return {"type": "gauge", "value": self.value}


class Timer:
    """A duration histogram with nanosecond samples.

    Running aggregates (count / total / min / max) are always kept; the
    most recent ``reservoir_size`` samples are retained so reports can
    show a coarse distribution without unbounded memory.
    """

    __slots__ = ("name", "count", "total_ns", "min_ns", "max_ns",
                 "_reservoir", "_reservoir_size")

    def __init__(self, name: str, reservoir_size: int = 512):
        self.name = name
        self.count = 0
        self.total_ns = 0
        self.min_ns: Optional[int] = None
        self.max_ns: Optional[int] = None
        self._reservoir: list = []
        self._reservoir_size = reservoir_size

    def observe(self, duration_ns: int) -> None:
        """Record one duration sample (clamped at zero)."""
        if duration_ns < 0:
            duration_ns = 0
        self.count += 1
        self.total_ns += duration_ns
        if self.min_ns is None or duration_ns < self.min_ns:
            self.min_ns = duration_ns
        if self.max_ns is None or duration_ns > self.max_ns:
            self.max_ns = duration_ns
        reservoir = self._reservoir
        if len(reservoir) >= self._reservoir_size:
            # Keep the newest window: cheap, deterministic, bounded.
            del reservoir[0]
        reservoir.append(duration_ns)

    @property
    def mean_ns(self) -> float:
        return self.total_ns / self.count if self.count else 0.0

    def percentile(self, q: float) -> Optional[int]:
        """Approximate percentile over the retained sample window."""
        if not self._reservoir:
            return None
        ordered = sorted(self._reservoir)
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    def snapshot(self) -> Dict[str, Union[str, int, float, None]]:
        return {
            "type": "timer",
            "count": self.count,
            "total_ns": self.total_ns,
            "min_ns": self.min_ns,
            "max_ns": self.max_ns,
            "mean_ns": self.mean_ns,
            "p50_ns": self.percentile(0.50),
            "p95_ns": self.percentile(0.95),
        }


Metric = Union[Counter, Gauge, Timer]


class MetricsRegistry:
    """Creates and holds metrics by name (one kind per name)."""

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get(self, name: str, kind: type) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name)
            self._metrics[name] = metric
        elif type(metric) is not kind:
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)  # type: ignore[return-value]

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)  # type: ignore[return-value]

    def timer(self, name: str) -> Timer:
        return self._get(name, Timer)  # type: ignore[return-value]

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[Tuple[str, Metric]]:
        return iter(sorted(self._metrics.items()))

    def snapshot(self) -> Dict[str, Dict]:
        """``name -> snapshot dict`` for every registered metric."""
        return {name: metric.snapshot() for name, metric in self}


class NullCounter(Counter):
    """Counter whose ``inc`` is a no-op (shared; never allocates)."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass


class NullGauge(Gauge):
    """Gauge whose ``set`` is a no-op (shared; never allocates)."""

    __slots__ = ()

    def set(self, value: float) -> None:
        pass


class NullTimer(Timer):
    """Timer whose ``observe`` is a no-op (shared; never allocates)."""

    __slots__ = ()

    def observe(self, duration_ns: int) -> None:
        pass


NULL_COUNTER = NullCounter("null")
NULL_GAUGE = NullGauge("null")
NULL_TIMER = NullTimer("null")


class NullRegistry(MetricsRegistry):
    """Registry handed out when observability is disabled.

    Every accessor returns the same pre-allocated null metric, so
    ``registry().counter("x").inc()`` on the hot path costs two method
    calls and zero allocations.
    """

    def counter(self, name: str) -> Counter:
        return NULL_COUNTER

    def gauge(self, name: str) -> Gauge:
        return NULL_GAUGE

    def timer(self, name: str) -> Timer:
        return NULL_TIMER

    def snapshot(self) -> Dict[str, Dict]:
        return {}


NULL_REGISTRY = NullRegistry()

