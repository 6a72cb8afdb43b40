"""E4 — Fig. 11: individual and cumulative defect coverage per
address-bus interconnect.

The paper's headline figure: per-line MA test programs evaluated against
the 1000-defect library; side lines (1, 2, 11, 12) show zero individual
coverage; the cumulative coverage reaches 100 %.
"""

from conftest import emit, emit_records

from repro.analysis.charts import coverage_chart
from repro.analysis.records import ExperimentRecord
from repro.core.coverage import address_bus_line_coverage


def test_e4_fig11(benchmark, address_setup, builder, address_program):
    report = benchmark.pedantic(
        address_bus_line_coverage,
        args=(address_setup.library, address_setup.params,
              address_setup.calibration),
        kwargs={"builder": builder, "full_program": address_program},
        rounds=1,
        iterations=1,
    )
    emit(
        "E4 / Fig. 11 — crosstalk defect coverage of MA test programs "
        f"({report.library_size} defects)",
        coverage_chart(
            [(l.line, l.individual, l.cumulative) for l in report.lines]
        ),
    )
    lines = {l.line: l for l in report.lines}
    records = [
        ExperimentRecord("E4/Fig.11", "individual coverage, lines 1/2/11/12",
                         "0", f"{lines[1].individual:.2f}/"
                              f"{lines[2].individual:.2f}/"
                              f"{lines[11].individual:.2f}/"
                              f"{lines[12].individual:.2f}"),
        ExperimentRecord("E4/Fig.11", "center lines dominate", "yes",
                         f"line6 ind = {lines[6].individual:.2f}"),
        ExperimentRecord("E4/Fig.11", "cumulative coverage", "100%",
                         f"{100 * report.cumulative_coverage:.1f}%"),
        ExperimentRecord("E4/Fig.11", "full-program coverage", "100%",
                         f"{100 * report.full_program_coverage:.1f}%",
                         note="despite skipped tests (overlap)"),
    ]
    emit_records("E4 — record", records)
    assert lines[1].individual == lines[12].individual == 0.0
    assert report.cumulative_coverage >= 0.99
    assert report.full_program_coverage >= 0.99
