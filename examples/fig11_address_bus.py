"""Reproduce the paper's Fig. 11: per-interconnect defect coverage.

Builds one MA test program per address-bus line, evaluates each against
the defect library, and renders the individual/cumulative coverage chart
(side lines show zero coverage; the cumulative curve reaches 100 %).

Run:  python examples/fig11_address_bus.py [defect_count]
"""

import sys

from repro import SelfTestProgramBuilder, default_address_bus_setup
from repro.analysis.charts import coverage_chart
from repro.core.coverage import address_bus_line_coverage


def main(defect_count: int = 400):
    setup = default_address_bus_setup(defect_count=defect_count)
    builder = SelfTestProgramBuilder()
    full_program = builder.build_address_bus_program()
    report = address_bus_line_coverage(
        setup.library,
        setup.params,
        setup.calibration,
        builder=builder,
        full_program=full_program,
    )
    print(f"Fig. 11 — defect coverage per interconnect "
          f"({report.library_size} defects)\n")
    print(coverage_chart(
        [(line.line, line.individual, line.cumulative)
         for line in report.lines]
    ))
    print(f"\ncumulative coverage: {100 * report.cumulative_coverage:.1f}%")
    print(f"full-program coverage: {100 * report.full_program_coverage:.1f}%")
    zero_lines = [line.line for line in report.lines if line.individual == 0]
    print(f"lines with zero individual coverage: {zero_lines} "
          f"(paper: [1, 2, 11, 12])")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 400)
