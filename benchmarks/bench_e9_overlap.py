"""E9 — Section 5 overlap claim.

"A large overlap exists among the defects set detected by different MA
tests.  Of all the defects detectable by one MA test, only a tiny
fraction cannot be detected by any other MA tests."  This is why the
paper's program reaches 100 % coverage despite 7 missing tests.
"""

from conftest import emit, emit_records

from repro.analysis.records import ExperimentRecord
from repro.analysis.tables import format_table
from repro.core.coverage import address_bus_line_coverage


def test_e9_overlap(benchmark, address_setup, builder):
    report = benchmark.pedantic(
        address_bus_line_coverage,
        args=(address_setup.library, address_setup.params,
              address_setup.calibration),
        kwargs={"builder": builder},
        rounds=1,
        iterations=1,
    )
    total = report.library_size
    detected_sets = {line.line: line.detected for line in report.lines}
    all_detected = set().union(*detected_sets.values())
    exclusive = {
        line: len(
            detected
            - set().union(
                *(d for other, d in detected_sets.items() if other != line)
            )
        )
        for line, detected in detected_sets.items()
    }
    rows = [
        (line, len(detected_sets[line]), exclusive[line])
        for line in sorted(detected_sets)
    ]
    emit(
        "E9 — overlap between per-line MA test detected sets",
        format_table(("line", "detected", "exclusively detected"), rows),
    )
    exclusive_total = sum(exclusive.values())
    records = [
        ExperimentRecord(
            "E9",
            "defects detected by exactly one line's tests",
            "a tiny fraction",
            f"{exclusive_total}/{len(all_detected)} "
            f"({100 * exclusive_total / max(1, len(all_detected)):.1f}%)",
        ),
        ExperimentRecord(
            "E9",
            "coverage without any single line's tests",
            "still ~100%",
            f">= {100 * (len(all_detected) - max(exclusive.values())) / total:.1f}%",
        ),
    ]
    emit_records("E9 — record", records)
    assert exclusive_total < 0.25 * len(all_detected)
