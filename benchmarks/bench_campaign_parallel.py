"""Parallel campaign — the Fig. 11 sweep sharded over worker processes.

Times the E4 per-line address-bus campaign through the campaign layer's
process pool at each worker count in ``REPRO_BENCH_WORKERS``
(default 1, 2, 4) and — always, whatever the library size — asserts
that every worker count produces a coverage report **bit-identical** to
the serial exact engine (per-line detected sets included).  The
equality assertion is what the CI parallel-smoke job (2 workers, 50
defects) is for; the wall-clock floor only applies at representative
library sizes, where per-shard fixed costs (fork, per-worker golden
capture) are amortized.

A journal-resumed run is also checked for identity: the serial
campaign is interrupted halfway (journal truncated to half its
records) and resumed in parallel — the paper's campaign numbers must
not depend on who computed which half.
"""

import os
import time

from conftest import DEFECT_COUNT, WORKER_COUNTS, emit, emit_records

from repro.analysis.records import ExperimentRecord
from repro.analysis.tables import format_table
from repro.core.coverage import address_bus_line_coverage

#: Below this library size, fixed campaign costs (program building,
#: per-worker golden capture, pool startup) dominate and wall-clock
#: ratios are noise — the speedup floor is only enforced at
#: representative sizes.
SPEEDUP_MIN_DEFECTS = 500
#: Required wall-clock speedup of the 4-worker sweep over serial.
SPEEDUP_AT_4_WORKERS = 1.7
#: The 4-worker floor additionally requires this much hardware: on a
#: core-starved host (e.g. a single-CPU container) worker processes
#: time-slice one core and parallelism can only lose.  Coverage
#: equality is asserted regardless — only the wall-clock gate is
#: hardware-conditional.
MIN_CPUS_FOR_FLOOR = 4

try:
    AVAILABLE_CPUS = len(os.sched_getaffinity(0))
except AttributeError:  # non-Linux
    AVAILABLE_CPUS = os.cpu_count() or 1


def _series(report):
    """The worker-independent content of a coverage report."""
    return [
        (line.line, line.individual, line.cumulative, frozenset(line.detected))
        for line in report.lines
    ]


def test_campaign_parallel(benchmark, address_setup, builder, tmp_path):
    start = time.perf_counter()
    serial_report = address_bus_line_coverage(
        address_setup.library, address_setup.params,
        address_setup.calibration, builder=builder, engine="exact",
    )
    serial_time = time.perf_counter() - start
    serial_series = _series(serial_report)

    timings = {1: serial_time}
    for workers in WORKER_COUNTS:
        if workers == 1:
            continue
        start = time.perf_counter()
        report = address_bus_line_coverage(
            address_setup.library, address_setup.params,
            address_setup.calibration, builder=builder, engine="exact",
            workers=workers,
        )
        timings[workers] = time.perf_counter() - start
        # Hard contract, enforced at every library size: identical
        # coverage at every worker count.
        assert _series(report) == serial_series, (
            f"{workers}-worker campaign disagrees with serial coverage"
        )

    # Interrupt-and-resume must also be invisible in the results: run
    # journaled, keep only the first half of the records, resume with
    # the highest worker count.
    journal = tmp_path / "fig11.jsonl"
    address_bus_line_coverage(
        address_setup.library, address_setup.params,
        address_setup.calibration, builder=builder, engine="exact",
        journal=journal,
    )
    lines = journal.read_text().splitlines(keepends=True)
    with open(journal, "w") as stream:
        stream.writelines(lines[: len(lines) // 2])
    resumed_report = address_bus_line_coverage(
        address_setup.library, address_setup.params,
        address_setup.calibration, builder=builder, engine="exact",
        workers=max(WORKER_COUNTS), journal=journal, resume=True,
    )
    assert _series(resumed_report) == serial_series, (
        "journal-resumed campaign disagrees with serial coverage"
    )

    rows = [
        (f"{workers} worker{'s' if workers > 1 else ''}",
         f"{seconds:.2f}s", f"{serial_time / seconds:.2f}x")
        for workers, seconds in sorted(timings.items())
    ]
    emit(
        f"parallel campaign — E4 per-line sweep, {DEFECT_COUNT} defects, "
        f"exact engine, {AVAILABLE_CPUS} CPU(s) available",
        format_table(("workers", "wall clock", "speedup vs serial"), rows),
    )

    # Time the fastest configuration for the pytest-benchmark record.
    best_workers = min(timings, key=timings.get)
    benchmark.pedantic(
        address_bus_line_coverage,
        args=(address_setup.library, address_setup.params,
              address_setup.calibration),
        kwargs={"builder": builder, "engine": "exact",
                "workers": best_workers},
        rounds=1,
        iterations=1,
    )

    records = [
        ExperimentRecord(
            "campaign", "parallel == serial coverage (all worker counts)",
            "identical", "identical",
        ),
        ExperimentRecord(
            "campaign", "journal-resumed == serial coverage",
            "identical", "identical",
        ),
    ]
    speedup_at_4 = None
    if 4 in timings:
        speedup_at_4 = serial_time / timings[4]
        records.append(ExperimentRecord(
            "campaign", "4-worker speedup",
            f">= {SPEEDUP_AT_4_WORKERS}x at {SPEEDUP_MIN_DEFECTS}+ "
            f"defects on {MIN_CPUS_FOR_FLOOR}+ CPUs",
            f"{speedup_at_4:.2f}x on {AVAILABLE_CPUS} CPU(s)",
        ))
    emit_records("parallel campaign — record", records)

    if DEFECT_COUNT >= SPEEDUP_MIN_DEFECTS and speedup_at_4 is not None:
        if AVAILABLE_CPUS >= MIN_CPUS_FOR_FLOOR:
            assert speedup_at_4 >= SPEEDUP_AT_4_WORKERS, (
                f"4 workers only {speedup_at_4:.2f}x faster than serial"
            )
        else:
            # No silent gating: say exactly why the floor did not apply.
            emit(
                "parallel campaign — speedup floor skipped",
                f"only {AVAILABLE_CPUS} CPU(s) available "
                f"(< {MIN_CPUS_FOR_FLOOR}); measured "
                f"{speedup_at_4:.2f}x at 4 workers — coverage equality "
                "was still asserted at every worker count",
            )
