"""Tests for golden references and response checking."""

import pytest

from repro.core.program_builder import SelfTestProgram
from repro.core.signature import (
    capture_golden,
    check_response,
    diff_cells,
    make_system,
)


def tiny_program():
    # entry: lda 0:0x80 ; sta 0:0x90 ; halt
    image = {
        0x10: 0x00,
        0x11: 0x80,
        0x12: 0xA0,
        0x13: 0x90,
        0x14: 0x80,
        0x15: 0x14,
        0x80: 0x5A,
    }
    return SelfTestProgram(image=image, entry=0x10, memory_size=4096)


def test_capture_golden_basic():
    golden = capture_golden(tiny_program())
    assert golden.cycles > 0
    assert golden.snapshot[0x90] == 0x5A
    assert golden.max_cycles > golden.cycles


def test_capture_golden_raises_on_nonhalting():
    # jmp 0x002 at 0, nop at 2, jmp 0x000 at 3: ping-pongs forever.
    program = SelfTestProgram(
        image={0: 0x80, 1: 0x02, 2: 0xF0, 3: 0x80, 4: 0x00},
        entry=0,
        memory_size=4096,
    )
    with pytest.raises(RuntimeError, match="proven to loop forever at cycle"):
        capture_golden(program)


def test_capture_golden_names_an_exhausted_budget(monkeypatch):
    from repro.core import signature
    from repro.isa.assembler import assemble

    # Counts in memory forever: no state repeats, so nothing is proven.
    program = assemble(
        """
        .org 0x10
loop:   lda count
        add one
        sta count
        jmp loop
count:  .byte 0
one:    .byte 1
        """
    )
    monkeypatch.setattr(signature, "GOLDEN_CYCLE_BUDGET", 5_000)
    with pytest.raises(RuntimeError, match="exhausted the cycle budget at cycle 5000"):
        capture_golden(
            SelfTestProgram(image=program.image, entry=0x10, memory_size=4096)
        )


def test_check_response_pass():
    program = tiny_program()
    golden = capture_golden(program)
    system = make_system(program)
    result = system.run(entry=program.entry)
    check = check_response(golden, system, result.halted)
    assert check.passed and not check.detected
    assert check.mismatches == 0


def test_check_response_detects_divergence():
    program = tiny_program()
    golden = capture_golden(program)
    system = make_system(program)
    system.data_bus.install_corruption_hook(lambda p, n, d: n ^ 0x01)
    result = system.run(entry=program.entry, max_cycles=golden.max_cycles)
    check = check_response(golden, system, result.halted)
    assert check.detected
    if result.halted:
        assert check.mismatches > 0
        assert diff_cells(golden, system)


def test_check_response_timeout_counts_as_detected():
    program = tiny_program()
    golden = capture_golden(program)
    system = make_system(program)
    check = check_response(golden, system, halted=False)
    assert check.detected and check.timed_out
