"""E5 — Section 5: data-bus defect coverage.

The paper applies all 64 data-bus MA tests (both driving directions,
ADD-compacted responses) and reports 100 % defect coverage.
"""

from conftest import emit, emit_records

from repro.analysis.records import ExperimentRecord
from repro.analysis.tables import format_table
from repro.core.campaign import CampaignSpec, run_campaign
from repro.soc.bus import BusDirection


def test_e5_databus_coverage(benchmark, data_setup, builder, data_program):
    spec = CampaignSpec(
        data_program, data_setup.params, data_setup.calibration,
        tuple(data_setup.library), "data",
    )
    result = benchmark.pedantic(
        run_campaign, args=(spec,), rounds=1, iterations=1
    )
    outcomes = result.outcomes
    detected = sum(1 for o in outcomes if o.detected)
    coverage = detected / len(outcomes)

    per_direction = {
        direction: sum(
            1
            for t in data_program.applied
            if t.fault.direction is direction
        )
        for direction in BusDirection
    }
    rows = [
        ("mem -> cpu (LDA/ADD)", per_direction[BusDirection.MEM_TO_CPU]),
        ("cpu -> mem (STA)", per_direction[BusDirection.CPU_TO_MEM]),
    ]
    emit(
        "E5 — data-bus test application by direction",
        format_table(("direction", "tests applied"), rows),
    )
    records = [
        ExperimentRecord("E5", "data-bus tests applied", "64/64",
                         f"{len(data_program.applied)}/64"),
        ExperimentRecord("E5", "data-bus defect coverage", "100%",
                         f"{100 * coverage:.1f}%"),
        ExperimentRecord("E5", "timeouts among detected", "(not reported)",
                         str(sum(1 for o in outcomes if o.timed_out))),
    ]
    emit_records("E5 — record", records)
    assert coverage == 1.0
