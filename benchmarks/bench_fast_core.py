"""Fast-core speedup — microprogram interpreter vs reference FSM.

Times the E4 address-bus golden run (the fault-free reference every
campaign replays against) on the fast core every system runs and on the
FSM reference core the lockstep module swaps in, after proving with the
lockstep differential harness that they are **bit-identical**: same bus
transaction stream, same architectural state, same cycle count.  The
``>= 2x`` floor is unconditional — the golden run is pure interpreter
work, so the ratio does not depend on the library size.
"""

import time

from conftest import emit, emit_records

from repro.analysis.records import ExperimentRecord
from repro.analysis.tables import format_table
from repro.core.signature import make_system
from repro.cpu.lockstep import reference_system, run_lockstep

#: Minimum fast/micro wall-clock ratio on the golden run (the issue's
#: acceptance floor; measured ~2.5-2.7x on CPython 3.12).
SPEEDUP_FLOOR = 2.0
#: Best-of-N timing loops per core (interpreter timing is jittery).
LOOPS = 5


def _reference_system(program):
    """``program`` loaded into a system running the FSM reference core."""
    system = reference_system(program.memory_size)
    system.load_image(program.image)
    return system


def _time_golden(program, build):
    """Best-of-``LOOPS`` wall clock of the fault-free run on ``build()``."""
    best = float("inf")
    cycles = 0
    for _ in range(LOOPS):
        system = build(program)
        start = time.perf_counter()
        system.run(entry=program.entry, max_cycles=1_000_000)
        best = min(best, time.perf_counter() - start)
        cycles = system.cycle
    return best, cycles


def test_fast_core_speedup(benchmark, address_program):
    # Contract first: the cores are bit-identical on this very program.
    report = run_lockstep(
        address_program.image,
        entry=address_program.entry,
        memory_size=address_program.memory_size,
    )
    assert report.halted

    micro_time, micro_cycles = _time_golden(address_program, _reference_system)
    fast_time, fast_cycles = _time_golden(address_program, make_system)
    assert fast_cycles == micro_cycles == report.cycles
    speedup = micro_time / fast_time

    emit(
        f"fast-core speedup — E4 golden run, {micro_cycles} cycles",
        format_table(
            ("core", "wall clock", "speedup"),
            [
                ("micro (FSM reference)", f"{micro_time * 1e3:.3f}ms", "1.00x"),
                ("fast (microprogram)", f"{fast_time * 1e3:.3f}ms",
                 f"{speedup:.2f}x"),
            ],
        ),
    )
    emit_records("fast-core speedup — record", [
        ExperimentRecord(
            "core", "fast == micro bus stream", "bit-identical",
            f"bit-identical ({report.transactions} transactions)",
        ),
        ExperimentRecord(
            "core", "fast-core golden-run speedup",
            f">= {SPEEDUP_FLOOR}x", f"{speedup:.2f}x",
        ),
    ])

    assert speedup >= SPEEDUP_FLOOR, (
        f"fast core only {speedup:.2f}x faster than the FSM core "
        f"(floor {SPEEDUP_FLOOR}x)"
    )

    def golden_run():
        system = make_system(address_program)
        system.run(entry=address_program.entry, max_cycles=1_000_000)
        return system.cycle

    benchmark.pedantic(golden_run, rounds=3, iterations=1)
