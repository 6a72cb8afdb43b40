"""Lockstep differential harness for the two CPU cores.

:func:`run_lockstep` builds two identical :class:`CpuMemorySystem`
instances — one with the FSM reference core (``micro``) swapped in by
:func:`reference_system`, one on the microprogram interpreter
(``fast``) every system runs — loads the same memory image into both,
and clocks them *one cycle at a time*, diffing after every cycle:

* every bus transaction either system emitted that cycle (both buses,
  full :class:`BusTransaction` equality — kind, direction, previous,
  driven, received, cycle stamp);
* the halt flag;
* optionally the complete CPU snapshot (registers, flags, control
  state, mid-instruction latches).

On the first difference it raises :class:`LockstepDivergence` carrying
the cycle number and a description of the mismatch, which makes the
failure actionable (the divergent cycle, not just "traces differ").
A shared corruption hook can be installed on one bus of *both* systems
so the equivalence is exercised under defect injection too.

This is the enforcement mechanism behind the fast core's bit-identical
contract; the tier-1 suite and ``benchmarks/bench_fast_core.py`` call
it, and the hypothesis property test feeds it random images (every
byte decodes — the decoder is total — so arbitrary memory is a valid
program).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional

from repro.cpu.datapath import Cpu
from repro.isa.instructions import MEMORY_SIZE
from repro.soc.bus import BusTransaction, CorruptionHook
from repro.soc.system import CpuMemorySystem

__all__ = [
    "LockstepDivergence",
    "LockstepReport",
    "reference_system",
    "run_lockstep",
]


class LockstepDivergence(AssertionError):
    """The two cores disagreed; ``cycle`` is the first divergent cycle."""

    def __init__(self, cycle: int, detail: str) -> None:
        super().__init__(f"cores diverged at cycle {cycle}: {detail}")
        self.cycle = cycle
        self.detail = detail


@dataclass(frozen=True)
class LockstepReport:
    """Summary of a green lockstep run."""

    cycles: int
    instructions: int
    transactions: int
    halted: bool


def reference_system(memory_size: int = MEMORY_SIZE) -> CpuMemorySystem:
    """A system running the FSM reference core instead of the fast one.

    The FSM :class:`~repro.cpu.datapath.Cpu` drives the same
    :class:`~repro.cpu.datapath.BusPort` interface as
    :class:`~repro.cpu.microcode.FastCpu`, so swapping it in after
    construction is all a reference run needs.
    """
    system = CpuMemorySystem(memory_size=memory_size)
    system.cpu = Cpu(system)  # type: ignore[assignment]
    return system


def _build(
    system: CpuMemorySystem,
    image: Mapping[int, int],
    hook: Optional[CorruptionHook],
    hook_bus: str,
    log: List[BusTransaction],
) -> CpuMemorySystem:
    system.load_image(image)
    if hook is not None:
        bus = system.address_bus if hook_bus == "addr" else system.data_bus
        bus.install_corruption_hook(hook)
    system.address_bus.add_observer(log.append)
    system.data_bus.add_observer(log.append)
    return system


def run_lockstep(
    image: Mapping[int, int],
    entry: int = 0,
    memory_size: int = MEMORY_SIZE,
    max_cycles: int = 100_000,
    hook: Optional[CorruptionHook] = None,
    hook_bus: str = "addr",
    check_state: bool = True,
) -> LockstepReport:
    """Co-step both cores over ``image`` and diff them cycle by cycle.

    Returns a :class:`LockstepReport` when the cores stay identical
    (including when both time out at ``max_cycles`` — a timeout is a
    behaviour to agree on, not an error).  Raises
    :class:`LockstepDivergence` on the first mismatch.
    """
    if hook_bus not in ("addr", "data"):
        raise ValueError(f"hook_bus must be 'addr' or 'data', got {hook_bus!r}")
    reference_log: List[BusTransaction] = []
    fast_log: List[BusTransaction] = []
    reference = _build(
        reference_system(memory_size), image, hook, hook_bus, reference_log
    )
    fast = _build(
        CpuMemorySystem(memory_size=memory_size), image, hook, hook_bus,
        fast_log,
    )
    reference.reset(entry)
    fast.reset(entry)

    seen = 0
    while not reference.cpu.halted and reference.cycle < max_cycles:
        reference.step()
        fast.step()
        cycle = reference.cycle
        if len(reference_log) != len(fast_log):
            raise LockstepDivergence(
                cycle,
                f"transaction count differs ({len(reference_log) - seen} vs "
                f"{len(fast_log) - seen} this cycle)",
            )
        for index in range(seen, len(reference_log)):
            if reference_log[index] != fast_log[index]:
                raise LockstepDivergence(
                    cycle,
                    f"transaction #{index} differs:\n"
                    f"  micro: {reference_log[index]}\n"
                    f"  fast:  {fast_log[index]}",
                )
        seen = len(reference_log)
        if reference.cpu.halted != fast.cpu.halted:
            raise LockstepDivergence(
                cycle,
                f"halt flag differs (micro={reference.cpu.halted}, "
                f"fast={fast.cpu.halted})",
            )
        if check_state:
            ref_snapshot = reference.cpu.snapshot()
            fast_snapshot = fast.cpu.snapshot()
            if ref_snapshot != fast_snapshot:
                raise LockstepDivergence(
                    cycle,
                    f"cpu state differs:\n  micro: {ref_snapshot}\n"
                    f"  fast:  {fast_snapshot}",
                )

    final_cycle = reference.cycle
    if reference.cycle != fast.cycle:
        raise LockstepDivergence(
            final_cycle,
            f"cycle count differs (micro={reference.cycle}, fast={fast.cycle})",
        )
    if reference.cpu.instruction_count != fast.cpu.instruction_count:
        raise LockstepDivergence(
            final_cycle,
            f"instruction count differs "
            f"(micro={reference.cpu.instruction_count}, "
            f"fast={fast.cpu.instruction_count})",
        )
    if reference.memory.snapshot() != fast.memory.snapshot():
        raise LockstepDivergence(final_cycle, "final memory images differ")
    return LockstepReport(
        cycles=reference.cycle,
        instructions=reference.cpu.instruction_count,
        transactions=len(reference_log),
        halted=reference.cpu.halted,
    )
