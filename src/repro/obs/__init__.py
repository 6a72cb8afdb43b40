"""repro.obs — structured telemetry for simulation runs and campaigns.

Three layers:

* **Metrics** (:mod:`repro.obs.metrics`): counters, gauges and
  ns-resolution timers in a flat dot-named registry
  (``cpu.cycles``, ``bus.data.corrupted``, ``coverage.defects.detected``).
* **Spans** (:mod:`repro.obs.spans`): hierarchical timed regions with a
  context-manager API; root spans become a run's *phases*.
* **Reports** (:mod:`repro.obs.report`): :class:`RunReport` serializes a
  whole run — config, per-phase timings, metric snapshots, results — to
  JSON validated against ``src/repro/obs/schema.json``.

Observability is off by default and free when off: the instrumented
code paths throughout ``repro.cpu`` / ``repro.soc`` / ``repro.xtalk`` /
``repro.core`` either check :func:`repro.obs.runtime.active` (a global
load) or talk to shared null metric objects whose methods do nothing
and allocate nothing.  Enable collection around a workload with::

    from repro import (
        CampaignSpec, SelfTestProgramBuilder, default_address_bus_setup,
        obs, run_campaign,
    )

    setup = default_address_bus_setup(defect_count=20)
    program = SelfTestProgramBuilder().build_address_bus_program()
    spec = CampaignSpec(
        program, setup.params, setup.calibration, tuple(setup.library)
    )
    with obs.session() as s:
        run_campaign(spec)
    print(s.registry.snapshot()["coverage.defects.detected"])
    report = obs.RunReport.from_observability(s, kind="run", label="demo")
    report.save("run_report.json")
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    NULL_REGISTRY,
    Timer,
)
from repro.obs.report import RunReport
from repro.obs.runtime import (
    Observability,
    active,
    registry,
    session,
    span,
)
from repro.obs.schema import load_schema, validate, validate_or_raise
from repro.obs.spans import NULL_SPAN, Span, SpanRecorder

__all__ = [
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NULL_SPAN",
    "Observability",
    "RunReport",
    "Span",
    "SpanRecorder",
    "Timer",
    "active",
    "load_schema",
    "registry",
    "session",
    "span",
    "validate",
    "validate_or_raise",
]
