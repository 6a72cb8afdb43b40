"""The microprogram fast core: table properties and lockstep equivalence.

The fast core's contract is *bit-identical behaviour*: same bus
transaction stream, same architectural state every cycle, same cycle
and instruction counts as the reference FSM core — under fault-free
runs and under corrupted (defective) runs alike.  These tests enforce
the contract with the lockstep differential harness plus direct
properties of the compiled 256-entry microprogram table.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import MICROPROGRAMS, Cpu, FastCpu, decode_raw
from repro.cpu.control import ControlState, expected_cycles
from repro.cpu.lockstep import (
    LockstepDivergence,
    reference_system,
    run_lockstep,
)
from repro.soc.system import CpuMemorySystem


# ---------------------------------------------------------------- systems


def test_system_core_selection():
    """Systems run the fast core; the lockstep module swaps in the FSM."""
    assert isinstance(CpuMemorySystem().cpu, FastCpu)
    reference = reference_system(memory_size=1024)
    assert isinstance(reference.cpu, Cpu)
    assert reference.memory.size == 1024


# ---------------------------------------------------------------- table


def test_microprogram_table_covers_every_byte():
    """Every first byte compiles to the FSM's exact control sequence."""
    assert len(MICROPROGRAMS) == 256
    for byte in range(256):
        entry = MICROPROGRAMS[byte]
        decoded = decode_raw(byte)
        assert entry.decoded == decoded
        assert len(entry.steps) == len(entry.states)
        # The per-opcode program excludes the two shared fetch states.
        assert len(entry.states) == expected_cycles(decoded) - 2
        assert ControlState.FETCH1_ADDR not in entry.states
        assert ControlState.FETCH1_DATA not in entry.states


# ---------------------------------------------------------------- lockstep


def test_lockstep_address_program(address_program):
    report = run_lockstep(
        address_program.image,
        entry=address_program.entry,
        memory_size=address_program.memory_size,
    )
    assert report.halted
    assert report.cycles > 0
    assert report.transactions > 0


def test_lockstep_data_program(data_program):
    report = run_lockstep(
        data_program.image,
        entry=data_program.entry,
        memory_size=data_program.memory_size,
    )
    assert report.halted


def test_lockstep_under_corruption(address_program):
    """Cores must also agree cycle-for-cycle on *corrupted* runs."""

    def flip_low_bit(previous, value, direction):
        return value ^ 0x001 if value % 7 == 3 else value

    report = run_lockstep(
        address_program.image,
        entry=address_program.entry,
        memory_size=address_program.memory_size,
        hook=flip_low_bit,
        hook_bus="addr",
        max_cycles=5000,
    )
    assert report.cycles <= 5000


@settings(max_examples=25, deadline=None)
@given(
    image=st.dictionaries(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
        max_size=48,
    ),
    entry=st.integers(min_value=0, max_value=63),
)
def test_lockstep_random_images(image, entry):
    """Random sparse images: any byte soup is a valid program (the
    decoder is total), and the cores must agree on all of it —
    including runs that never halt and time out."""
    report = run_lockstep(image, entry=entry, max_cycles=2000)
    assert report.cycles <= 2000


def test_lockstep_divergence_is_assertion_error():
    assert issubclass(LockstepDivergence, AssertionError)


# ---------------------------------------------------------------- state


def test_fast_registers_view(address_program):
    """The read-only register view matches the packed internal state."""
    system = CpuMemorySystem(memory_size=address_program.memory_size)
    system.load_image(address_program.image)
    system.reset(address_program.entry)
    for _ in range(200):
        system.step()
    cpu = system.cpu
    registers = cpu.registers
    assert registers.ac == cpu.ac
    assert registers.pc == cpu.pc
    assert registers.flags.as_mask() == cpu.flags
