"""E7 — SBST versus hardware BIST (the paper's Section 1 comparison).

Quantifies the claims the paper makes qualitatively against the DAC'00
hardware self-test: area overhead (SBST: none), test time, coverage, and
over-testing (BIST rejections with no functionally excitable error).
"""

from conftest import emit, emit_records

from repro.analysis.records import ExperimentRecord
from repro.analysis.tables import format_table
from repro.bist.area import DEMONSTRATOR_SYSTEM_GATES, estimate_bist_area
from repro.bist.controller import BistController
from repro.bist.overtest import analyze_overtesting
from repro.bist.pattern_gen import MAPatternGenerator
from repro.core.campaign import CampaignSpec, run_campaign
from repro.core.signature import capture_golden
from repro.core.program_builder import SelfTestProgram
from repro.isa.assembler import assemble


WORKLOAD = """
        .org 0x10
        cla
loop:   add a
        sta acc
        lda counter
        sub one
        sta counter
        bra_z done
        lda acc
        jmp loop
done:   lda acc
        sta out
halt:   jmp halt
a:      .byte 7
one:    .byte 1
counter:.byte 5
acc:    .byte 0
out:    .byte 0
"""


def run_comparison(address_setup, address_program):
    generator = MAPatternGenerator(12)
    controller = BistController(
        generator, address_setup.params, address_setup.calibration
    )
    bist_coverage = controller.coverage(address_setup.library)
    sbst_coverage = run_campaign(CampaignSpec(
        address_program, address_setup.params, address_setup.calibration,
        tuple(address_setup.library), "addr",
    )).coverage()
    return controller, bist_coverage, sbst_coverage


def test_e7_bist_comparison(benchmark, address_setup, address_program):
    controller, bist_coverage, sbst_coverage = benchmark.pedantic(
        run_comparison,
        args=(address_setup, address_program),
        rounds=1,
        iterations=1,
    )
    golden = capture_golden(address_program)
    area_addr = estimate_bist_area(12)
    area_data = estimate_bist_area(8, bidirectional=True)
    total_area = area_addr.total + area_data.total

    rows = [
        ("coverage (addr bus)", f"{100 * bist_coverage:.1f}%",
         f"{100 * sbst_coverage:.1f}%"),
        ("area overhead", f"{total_area:.0f} GE "
         f"({100 * total_area / DEMONSTRATOR_SYSTEM_GATES:.0f}% of CPU logic)",
         "0"),
        ("test cycles (addr bus)", str(controller.test_cycles),
         str(golden.cycles)),
        ("applies functionally invalid patterns", "yes (test mode)",
         "no (normal mode only)"),
    ]
    emit(
        "E7 — hardware BIST vs software-based self-test",
        format_table(("quantity", "hardware BIST", "SBST"), rows),
    )

    # Over-testing: against a plain workload corpus, marginal defects are
    # functionally invisible yet rejected by BIST.
    workload_src = assemble(WORKLOAD)
    workload = SelfTestProgram(
        image=workload_src.image, entry=workload_src.entry, memory_size=4096
    )
    over_sbst = analyze_overtesting(
        address_setup.library, address_setup.params,
        address_setup.calibration, controller, [address_program], "addr"
    )
    over_workload = analyze_overtesting(
        address_setup.library, address_setup.params,
        address_setup.calibration, controller, [workload], "addr"
    )
    records = [
        ExperimentRecord("E7", "SBST area/delay overhead", "none", "none"),
        ExperimentRecord(
            "E7",
            "BIST over-test rate vs SBST-exercisable errors",
            "~0 (SBST patterns are functional)",
            f"{100 * over_sbst.over_test_rate:.1f}%",
        ),
        ExperimentRecord(
            "E7",
            "BIST over-test rate vs plain workload",
            "(qualitative: 'may cause over-testing')",
            f"{100 * over_workload.over_test_rate:.1f}%",
            note=f"{over_workload.over_tested} of "
            f"{over_workload.bist_detected} rejections unnecessary",
        ),
    ]
    emit_records("E7 — record", records)
    assert bist_coverage == 1.0
    assert over_workload.over_test_rate > over_sbst.over_test_rate
