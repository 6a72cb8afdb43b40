"""OBS — observability overhead on the E4 (Fig. 11) kernel.

The acceptance gate for the telemetry layer: running the per-line
address-bus coverage campaign with metrics collection enabled must cost
less than 5 % over the no-op path.

Measuring a ~1 % effect on a shared machine needs care: wall-clock noise
between identical runs here reaches tens of percent (scheduler
contention, frequency scaling), and it drifts over seconds, so the
fastest run of each arm lands in different quiet windows and their
ratio moves by more than the budget between runs of one tree.  The
procedure:

* many short rounds (a reduced defect library keeps one kernel run
  under 0.1 s), each a back-to-back no-op/metrics *pair*, alternating
  which arm of the pair runs first, so both arms of a pair see the same
  host state and neither is systematically measured second;
* garbage collection disabled during timing, removing both random GC
  pauses and the systematic pause difference between arms (the enabled
  arm allocates more);
* the gate is the MEDIAN of the per-pair ratios metrics / no-op: drift
  slower than one pair cancels inside the pair, and the median ignores
  the pairs a burst of contention hit on one side.  Its interquartile
  range is printed with it.

The ``full`` detail level (per-cycle FSM occupancy, per-defect spans)
runs right after each pair and is only reported, against the pair's
no-op run — it trades speed for depth by design.
"""

import gc
import statistics
import time

from conftest import DEFECT_COUNT, emit, emit_records

from repro import default_address_bus_setup
from repro.analysis.records import ExperimentRecord
from repro.analysis.tables import format_table
from repro.core.coverage import address_bus_line_coverage
from repro.core.program_builder import SelfTestProgramBuilder
from repro.obs import runtime as obs_runtime
from repro.obs import session

#: The comparison needs many repeats of the E4 kernel, so it runs on a
#: reduced library regardless of REPRO_BENCH_DEFECTS.
OVERHEAD_DEFECTS = min(DEFECT_COUNT, 20)
PAIRS = 40
OVERHEAD_BUDGET = 0.05


def test_obs_overhead_e4(benchmark):
    setup = default_address_bus_setup(defect_count=OVERHEAD_DEFECTS)
    builder = SelfTestProgramBuilder()

    def workload():
        return address_bus_line_coverage(
            setup.library, setup.params, setup.calibration, builder=builder
        )

    def run_noop():
        with obs_runtime.suspended():
            workload()

    def run_metrics():
        # The autouse bench fixture already has a metrics-level session
        # active, so this is the instrumented arm as benchmarks see it.
        workload()

    def run_full():
        with session(detail="full"):
            workload()

    # Warm every arm (allocator pools, bytecode specialization); an
    # unwarmed arm reads several percent slow on its first round.
    run_noop()
    run_metrics()
    run_full()

    noop_times, metrics_ratios, full_ratios = [], [], []
    gc.collect()
    gc.disable()
    try:
        for pair in range(PAIRS):
            first, second = (
                (run_noop, run_metrics) if pair % 2 == 0
                else (run_metrics, run_noop)
            )
            times = {}
            for runner in (first, second, run_full):
                start = time.perf_counter()
                runner()
                times[runner] = time.perf_counter() - start
            noop_times.append(times[run_noop])
            metrics_ratios.append(times[run_metrics] / times[run_noop])
            full_ratios.append(times[run_full] / times[run_noop])
    finally:
        gc.enable()

    benchmark.pedantic(run_noop, rounds=1, iterations=1)

    def overhead(ratios):
        """Median overhead and its interquartile range, as fractions."""
        q1, median, q3 = statistics.quantiles(ratios, n=4)
        return median - 1.0, q1 - 1.0, q3 - 1.0

    metrics_overhead, metrics_q1, metrics_q3 = overhead(metrics_ratios)
    full_overhead, full_q1, full_q3 = overhead(full_ratios)
    rows = [
        ("enabled, detail=metrics", f"{100 * metrics_overhead:+.2f}%",
         f"[{100 * metrics_q1:+.2f}%, {100 * metrics_q3:+.2f}%]"),
        ("enabled, detail=full", f"{100 * full_overhead:+.2f}%",
         f"[{100 * full_q1:+.2f}%, {100 * full_q3:+.2f}%]"),
    ]
    emit(
        f"OBS — instrumentation overhead on the E4 kernel "
        f"({OVERHEAD_DEFECTS} defects, median over {PAIRS} back-to-back "
        f"pairs vs the no-op run, order alternating, gc off; no-op "
        f"median {1e3 * statistics.median(noop_times):.1f} ms)",
        format_table(("mode", "median overhead", "interquartile range"), rows),
    )
    records = [
        ExperimentRecord("OBS", "metrics-mode overhead on E4", "< 5%",
                         f"{100 * metrics_overhead:.2f}%",
                         note=f"IQR [{100 * metrics_q1:.2f}%, "
                         f"{100 * metrics_q3:.2f}%]"),
        ExperimentRecord("OBS", "full-detail overhead on E4",
                         "(not budgeted)", f"{100 * full_overhead:.2f}%",
                         note="adds per-cycle FSM occupancy + spans"),
    ]
    emit_records("OBS — record", records)
    assert metrics_overhead < OVERHEAD_BUDGET
