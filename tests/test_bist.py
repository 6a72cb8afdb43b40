"""Tests for the hardware BIST baseline."""

import pytest

from repro.bist.area import DEMONSTRATOR_SYSTEM_GATES, estimate_bist_area
from repro.bist.controller import BistController
from repro.bist.error_detector import ErrorDetector
from repro.bist.overtest import analyze_overtesting, collect_functional_transitions
from repro.bist.pattern_gen import MAPatternGenerator
from repro.soc.bus import BusDirection


@pytest.fixture(scope="module")
def address_controller(address_setup):
    generator = MAPatternGenerator(12)
    return BistController(
        generator, address_setup.params, address_setup.calibration
    )


def test_pattern_generator_counts():
    unidirectional = MAPatternGenerator(12)
    assert unidirectional.test_count == 48
    bidirectional = MAPatternGenerator(
        8, (BusDirection.CPU_TO_MEM, BusDirection.MEM_TO_CPU)
    )
    assert bidirectional.test_count == 64
    assert unidirectional.state_count() == 2 * 48 + 2


def test_pattern_generator_emits_unique_pairs():
    generator = MAPatternGenerator(12)
    pairs = generator.vectors()
    assert len(pairs) == len(set((p.v1, p.v2) for p in pairs)) == 48


def test_error_detector_latches_and_attributes():
    detector = ErrorDetector(8)
    assert detector.check(0, 0xF0, 0xF0)
    assert not detector.check(1, 0xF0, 0xF1)
    assert detector.failed
    assert detector.failing_tests() == [1]
    assert detector.log[0].error_bits == 0x01
    detector.reset()
    assert not detector.failed


def test_bist_detects_every_library_defect(address_setup, address_controller):
    # The MA pattern set is complete by construction, so hardware BIST
    # detects every Cth-violating defect — the reference coverage.
    assert address_controller.coverage(address_setup.library) == 1.0


def test_bist_attributes_failures_to_victim_tests(
    address_setup, address_controller
):
    defect = address_setup.library[0]
    result = address_controller.run_session(defect)
    assert result.detected
    generator_tests = list(address_controller.generator.tests())
    failing_victims = {
        generator_tests[index].fault.victim for index in result.failing_tests
    }
    assert failing_victims & set(defect.defective_wires)


def test_bist_cycle_count(address_controller):
    assert address_controller.test_cycles == 96  # 2 cycles x 48 tests


def test_area_estimate_scales_with_width():
    narrow = estimate_bist_area(8)
    wide = estimate_bist_area(32)
    assert wide.total > narrow.total
    bidirectional = estimate_bist_area(8, bidirectional=True)
    assert bidirectional.total > narrow.total
    assert narrow.relative_to(DEMONSTRATOR_SYSTEM_GATES) > 0.05
    with pytest.raises(ValueError):
        narrow.relative_to(0)


def test_overtest_analysis_with_sbst_corpus(
    address_setup, address_controller, address_program
):
    # The SBST program applies (most of) the MA patterns in functional
    # mode, so nearly every BIST rejection is functionally justified.
    report = analyze_overtesting(
        address_setup.library,
        address_setup.params,
        address_setup.calibration,
        address_controller,
        corpus=[address_program],
        bus="addr",
    )
    assert report.library_size == len(address_setup.library)
    assert report.bist_detected == len(address_setup.library)
    assert report.over_test_rate <= 0.10


def test_overtest_analysis_with_plain_workload(
    address_setup, address_controller
):
    """A workload that never produces heavy simultaneous switching leaves
    most marginal defects functionally invisible — BIST over-tests."""
    from repro.core.program_builder import SelfTestProgram
    from repro.isa.assembler import assemble

    source = """
        .org 0x10
        cla
        add a
        add b
        sta out
halt:   jmp halt
a:      .byte 3
b:      .byte 4
out:    .byte 0
    """
    program = assemble(source)
    workload = SelfTestProgram(
        image=program.image, entry=program.entry, memory_size=4096
    )
    report = analyze_overtesting(
        address_setup.library,
        address_setup.params,
        address_setup.calibration,
        address_controller,
        corpus=[workload],
        bus="addr",
    )
    assert report.over_test_rate > 0.5
    assert report.unnecessary_yield_loss > 0.5


def test_collect_functional_transitions_requires_halting_corpus():
    from repro.core.program_builder import SelfTestProgram

    looping = SelfTestProgram(
        image={0: 0x80, 1: 0x02, 2: 0xF0, 3: 0x80, 4: 0x00},
        entry=0,
        memory_size=4096,
    )
    with pytest.raises(RuntimeError, match="proven to loop forever at cycle"):
        collect_functional_transitions([looping], "addr")
