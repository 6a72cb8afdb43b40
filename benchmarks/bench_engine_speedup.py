"""Engine speedup — exact replay vs screen-then-replay.

Times the E4 address-bus campaign (the per-line Fig. 11 sweep, the
workload the screened engine was built for: side-line programs corrupt
under almost no defect, so screening eliminates most replays outright
and dedup shares one replay across each first-corruption group) on
both engines, and — always,
whatever the library size — asserts that the engines produce
**identical** per-line detected sets.  The coverage-equality assertion
is what the CI smoke job (50 defects) is for; the speedup floor only
applies at representative library sizes.
"""

import time

from conftest import DEFECT_COUNT, emit, emit_records

from repro.analysis.records import ExperimentRecord
from repro.analysis.tables import format_table
from repro.core.coverage import address_bus_line_coverage

#: Below this library size, fixed per-program costs (building programs,
#: golden capture, screening setup) dominate and wall-clock ratios are
#: noise — the speedup floor is only enforced at representative sizes.
SPEEDUP_MIN_DEFECTS = 500
SPEEDUP_SCREENED = 3.0


def _series(report):
    """The engine-independent content of a coverage report."""
    return [
        (line.line, line.individual, line.cumulative, frozenset(line.detected))
        for line in report.lines
    ]


def test_engine_speedup(benchmark, address_setup, builder):
    timings = {}
    reports = {}
    for engine in ("exact", "screened"):
        start = time.perf_counter()
        reports[engine] = address_bus_line_coverage(
            address_setup.library, address_setup.params,
            address_setup.calibration, builder=builder, engine=engine,
        )
        timings[engine] = time.perf_counter() - start

    # Hard contract, enforced at every library size: identical results.
    assert _series(reports["screened"]) == _series(reports["exact"]), (
        "screened engine disagrees with exact coverage"
    )

    exact_time = timings["exact"]
    rows = [
        (engine, f"{seconds:.2f}s", f"{exact_time / seconds:.2f}x")
        for engine, seconds in timings.items()
    ]
    emit(
        f"engine speedup — E4 per-line campaign, {DEFECT_COUNT} defects",
        format_table(("engine", "wall clock", "speedup vs exact"), rows),
    )

    # Time the default (screened) engine for the pytest-benchmark record.
    benchmark.pedantic(
        address_bus_line_coverage,
        args=(address_setup.library, address_setup.params,
              address_setup.calibration),
        kwargs={"builder": builder},
        rounds=1,
        iterations=1,
    )

    speedup = exact_time / timings["screened"]
    emit_records("engine speedup — record", [
        ExperimentRecord(
            "engine", "screened == exact coverage", "identical", "identical"
        ),
        ExperimentRecord(
            "engine", "screened speedup",
            f">= {SPEEDUP_SCREENED}x at {SPEEDUP_MIN_DEFECTS}+ defects",
            f"{speedup:.2f}x",
        ),
    ])

    if DEFECT_COUNT >= SPEEDUP_MIN_DEFECTS:
        assert speedup >= SPEEDUP_SCREENED, (
            f"screened engine only {speedup:.2f}x faster"
        )
