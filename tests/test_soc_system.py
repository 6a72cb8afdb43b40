"""System-level tests: bus wiring, corrupted-address routing, run control."""

from repro.isa.assembler import assemble
from repro.soc.bus import BusDirection
from repro.soc.system import _MAX_CONTENTS, CpuMemorySystem, RunEnd
from repro.soc.tracer import BusTracer


def test_corrupted_address_routes_read_to_wrong_cell():
    # Force bit 0 of every address-bus word high: the paper's Fig. 3
    # scenario (the CPU receives data from a wrong address).
    system = CpuMemorySystem()
    program = assemble(
        """
        .org 0x10
        lda 0:0x80
        sta 0:0x91
halt:   jmp halt
        .org 0x80
        .byte 0x01
        .org 0x81
        .byte 0x02
        """
    )
    system.load_image(program.image)

    def redirect_80_to_81(prev, new, direction):
        return 0x081 if new == 0x080 else new

    system.address_bus.install_corruption_hook(redirect_80_to_81)
    system.run(entry=0x10)
    # The operand read of 0x080 arrives at memory as 0x081 -> loads 0x02.
    assert system.memory.read(0x091) == 0x02


def test_corrupted_write_data():
    system = CpuMemorySystem()
    program = assemble(
        """
        .org 0x10
        lda val
        sta out
halt:   jmp halt
val:    .byte 0x0F
out:    .byte 0
        """
    )
    system.load_image(program.image)

    def corrupt_cpu_writes(prev, new, direction):
        if direction is BusDirection.CPU_TO_MEM:
            return new ^ 0x80
        return new

    system.data_bus.install_corruption_hook(corrupt_cpu_writes)
    system.run(entry=0x10)
    assert system.memory.read(program.symbols["out"]) == 0x8F


def test_run_resets_buses_and_clock():
    system = CpuMemorySystem()
    program = assemble("halt: jmp halt")
    system.load_image(program.image)
    first = system.run(entry=0)
    second = system.run(entry=0)
    assert first.cycles == second.cycles


def test_resume_continues_without_reset():
    system = CpuMemorySystem()
    program = assemble(".org 0x10\nnop\nnop\nhalt: jmp halt")
    system.load_image(program.image)
    system.reset(0x10)
    for _ in range(4):  # one NOP
        system.step()
    result = system.resume()
    assert result.halted
    assert result.instructions == 3


def test_snapshot_refused_with_mmio_regions():
    import pytest

    from repro.soc.mmio import MMIORegion, RegisterCore

    system = CpuMemorySystem(
        mmio_regions=[MMIORegion(base=0xF00, size=8,
                                 core=RegisterCore(register_count=8))]
    )
    with pytest.raises(ValueError):
        system.snapshot()


def test_observed_resume_counts_deltas():
    from repro.obs import runtime as obs_runtime

    system = CpuMemorySystem()
    program = assemble(".org 0x10\nnop\nnop\nhalt: jmp halt")
    system.load_image(program.image)
    system.reset(0x10)
    for _ in range(4):  # one NOP executed outside the session
        system.step()
    with obs_runtime.session() as obs:
        result = system.resume()
    assert result.halted
    snapshot = obs.registry.snapshot()
    assert snapshot["cpu.resumes"]["value"] == 1
    assert "cpu.runs" not in snapshot
    # Only the cycles of the resumed suffix are attributed to the session.
    assert snapshot["cpu.cycles"]["value"] == result.cycles - 4
    system = CpuMemorySystem()
    program = assemble(
        """
        .org 0x10
        lda@ ptr
        sta out
halt:   jmp halt
        .org 0x40
ptr:    .byte 0x80
        .org 0x90
out:    .byte 0
        """
    )
    system.load_image(program.image)
    tracer = BusTracer([system.address_bus])
    system.run(entry=0x10)
    kinds = [t.kind.value for t in tracer.transactions]
    assert "pointer_read" in kinds
    assert "operand_read" in kinds
    assert "operand_write" in kinds
    assert kinds.count("fetch") >= 4


# -- hang proof -------------------------------------------------------------

#: jmp 0x002 at 0, nop at 2, jmp 0x000 at 3: ping-pongs forever.
PING_PONG = {0: 0x80, 1: 0x02, 2: 0xF0, 3: 0x80, 4: 0x00}


def test_loop_rewriting_the_same_byte_is_proven():
    system = CpuMemorySystem()
    program = assemble(
        """
        .org 0x10
loop:   lda val
        sta out
        jmp loop
val:    .byte 0x5A
out:    .byte 0
        """
    )
    system.load_image(program.image)
    result = system.run(entry=0x10, max_cycles=10_000)
    assert result.end is RunEnd.LOOP
    assert result.timed_out
    # The first pass changes ``out``; the second repeats the first state.
    assert result.cycles < 100


def _cycles_of_first_pass(source, entry, instructions):
    """Cycles a fresh system takes for the first ``instructions``."""
    system = CpuMemorySystem()
    system.load_image(assemble(source).image)
    system.reset(entry)
    while system.cpu.instruction_count < instructions:
        system.step()
    return system.cycle


COUNTER = """
        .org 0x10
loop:   lda count
        add one
        sta count
        jmp loop
count:  .byte 0
one:    .byte 1
"""


def test_loop_counting_in_memory_is_proven():
    # Every pass writes a new count, but after 256 passes the memory
    # content, and with it the whole state, repeats.
    system = CpuMemorySystem()
    system.load_image(assemble(COUNTER).image)
    result = system.run(entry=0x10, max_cycles=100_000)
    assert result.end is RunEnd.LOOP
    period = 256 * _cycles_of_first_pass(COUNTER, 0x10, 4)
    assert period <= result.cycles < 2 * period


#: A 16-bit counter that halts when it wraps, 65 536 passes in: no
#: memory content repeats before then.
WIDE_COUNTER = """
        .org 0x10
loop:   lda low
        add one
        sta low
        bra_c carry
        jmp loop
carry:  lda high
        add one
        sta high
        bra_c done
        jmp loop
done:   jmp done
low:    .byte 0
high:   .byte 0
one:    .byte 1
"""


def test_loop_with_fresh_memory_content_runs_to_the_budget():
    system = CpuMemorySystem()
    system.load_image(assemble(WIDE_COUNTER).image)
    budget = 60_000
    result = system.run(entry=0x10, max_cycles=budget)
    assert result.end is RunEnd.BUDGET
    assert result.cycles == budget
    # More distinct contents than the proof interns: the run went
    # through at least one clearing of its keys.
    passes = budget // _cycles_of_first_pass(WIDE_COUNTER, 0x10, 5)
    assert passes > _MAX_CONTENTS


def test_loop_that_halts_after_repeating_its_low_byte_halts():
    # From high = 0xFB the counter halts after 5 x 256 passes.  The low
    # byte's laps repeat every register and held bus word; only the
    # high byte, and more contents than the proof interns, tell them
    # apart.
    program = assemble(WIDE_COUNTER)
    system = CpuMemorySystem()
    system.load_image({**program.image, program.symbols["high"]: 0xFB})
    result = system.run(entry=0x10, max_cycles=1_000_000)
    assert result.halted
    assert 5 * 256 > _MAX_CONTENTS
    assert system.memory.read(program.symbols["high"]) == 0


def test_mmio_region_serves_loads_and_stores():
    from repro.soc.mmio import MMIORegion, RegisterCore

    core = RegisterCore(register_count=8)
    core.load([0, 0, 0x3C])
    system = CpuMemorySystem(
        mmio_regions=[MMIORegion(base=0xF00, size=8, core=core)]
    )
    program = assemble(
        """
        .org 0x10
        lda 15:0x02
        sta 15:0x05
        sta out
halt:   jmp halt
out:    .byte 0
        """
    )
    system.load_image(program.image)
    assert system.run(entry=0x10).halted
    assert core.snapshot()[5] == 0x3C
    assert system.memory.read(program.symbols["out"]) == 0x3C
    # The core's window hides the memory cells behind it.
    assert system.memory.read(0xF02) == 0 and system.memory.read(0xF05) == 0
    assert (core.read_count, core.write_count) == (1, 1)


def test_mmio_system_runs_to_the_budget():
    from repro.soc.mmio import MMIORegion, RegisterCore

    system = CpuMemorySystem(
        mmio_regions=[MMIORegion(base=0xF00, size=8,
                                 core=RegisterCore(register_count=8))]
    )
    system.load_image(PING_PONG)
    result = system.run(entry=0, max_cycles=2_000)
    assert result.end is RunEnd.BUDGET
    assert result.cycles == 2_000


def test_reference_core_proves_the_ping_pong_loop():
    from repro.cpu.lockstep import reference_system

    system = reference_system()
    system.load_image(PING_PONG)
    result = system.run(entry=0, max_cycles=1_000_000)
    assert result.end is RunEnd.LOOP
    assert result.cycles < 50
