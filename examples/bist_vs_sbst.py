"""Compare software-based self-test against hardware BIST.

Quantifies the paper's Section 1 positioning: the hardware approach
costs silicon and may reject chips whose defects never disturb real
operation ("over-testing ... causes unnecessary yield loss"), while the
software approach is free of overhead and only exercises functional-mode
patterns.

Run:  python examples/bist_vs_sbst.py
"""

from repro import (
    CampaignSpec,
    SelfTestProgramBuilder,
    default_address_bus_setup,
    run_campaign,
)
from repro.analysis.tables import format_table
from repro.bist import (
    BistController,
    MAPatternGenerator,
    analyze_overtesting,
    estimate_bist_area,
)
from repro.bist.area import DEMONSTRATOR_SYSTEM_GATES
from repro.core.program_builder import SelfTestProgram
from repro.core.signature import capture_golden
from repro.isa.assembler import assemble

PLAIN_WORKLOAD = """
        .org 0x10
        cla
loop:   add step
        sta acc
        lda count
        sub one
        sta count
        bra_z done
        jmp loop
done:   lda acc
        sta out
halt:   jmp halt
step:   .byte 11
one:    .byte 1
count:  .byte 8
acc:    .byte 0
out:    .byte 0
"""


def main():
    setup = default_address_bus_setup(defect_count=300)
    builder = SelfTestProgramBuilder()
    sbst_program = builder.build_address_bus_program()
    golden = capture_golden(sbst_program)

    generator = MAPatternGenerator(12)
    controller = BistController(generator, setup.params, setup.calibration)
    area = estimate_bist_area(12)

    sbst = run_campaign(CampaignSpec(
        sbst_program, setup.params, setup.calibration, tuple(setup.library),
        "addr",
    ))
    rows = [
        ("defect coverage",
         f"{100 * controller.coverage(setup.library):.1f}%",
         f"{100 * sbst.coverage():.1f}%"),
        ("area overhead",
         f"{area.total:.0f} GE "
         f"({100 * area.total / DEMONSTRATOR_SYSTEM_GATES:.0f}% of CPU logic)",
         "0 GE"),
        ("test application", f"{controller.test_cycles} bus cycles "
         "(dedicated test mode)",
         f"{golden.cycles} CPU cycles (normal mode)"),
    ]
    print(format_table(
        ("quantity", "hardware BIST", "software self-test"), rows,
        title="Address-bus crosstalk test: BIST vs SBST",
    ))

    workload_src = assemble(PLAIN_WORKLOAD)
    workload = SelfTestProgram(
        image=workload_src.image, entry=workload_src.entry, memory_size=4096
    )
    report = analyze_overtesting(
        setup.library, setup.params, setup.calibration,
        controller, [workload], bus="addr",
    )
    print(f"\nOver-testing against a plain arithmetic workload "
          f"({report.functional_transition_count} functional transitions):")
    print(f"  BIST rejects {report.bist_detected}/{report.library_size} "
          f"defective chips")
    print(f"  functionally relevant defects: {report.functionally_relevant}")
    print(f"  unnecessary rejections (over-test): {report.over_tested} "
          f"({100 * report.over_test_rate:.1f}% of the library)")


if __name__ == "__main__":
    main()
