"""Golden references and response checking.

The external (low-speed) tester of the paper loads the self-test program,
lets it run at speed, then unloads and compares the test responses.  Here
the golden reference is the final memory image of a fault-free run; a
defective chip is *detected* when its final memory differs anywhere, or
when the program never reaches the halt convention (a crosstalk error
that derails execution — e.g. a corrupted jump — also fails the part,
since the expected signature never materializes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.program_builder import SelfTestProgram
from repro.soc.system import CpuMemorySystem, RunEnd

#: Safety multiplier over the golden cycle count before a run is declared
#: hung.  Crosstalk errors can lengthen execution (extra page-1/page-2
#: detours in the glitch tests), so the bound is generous.
TIMEOUT_FACTOR = 4
TIMEOUT_SLACK = 2000

#: Cycle budget of every fault-free (golden) run.  A program still
#: running after this many cycles is a construction bug, reported as a
#: ``RuntimeError``.  Callers read it at call time, so lowering this one
#: attribute lowers it everywhere.
GOLDEN_CYCLE_BUDGET = 10_000_000


@dataclass(frozen=True)
class GoldenReference:
    """Fault-free outcome of one self-test program."""

    snapshot: bytes
    cycles: int
    instructions: int

    @property
    def max_cycles(self) -> int:
        """Cycle budget for defective runs before declaring a hang."""
        return self.cycles * TIMEOUT_FACTOR + TIMEOUT_SLACK


def build_base_image(program: SelfTestProgram) -> bytes:
    """The full initial memory image of ``program`` as one ``bytes`` blob.

    Replaying a defect library re-creates the same initial memory once
    per defect; materializing the sparse program image into a flat blob
    once and bulk-restoring it is much cheaper than replaying the sparse
    writes thousands of times.
    """
    image = bytearray(program.memory_size)
    for address, value in program.image.items():
        image[address] = value
    return bytes(image)


def make_system(
    program: SelfTestProgram,
    base_image: Optional[bytes] = None,
) -> CpuMemorySystem:
    """A fresh system with ``program`` loaded (memory elsewhere is 0x00).

    ``base_image`` (from :func:`build_base_image`) skips the sparse
    image walk with one bulk memory restore — same result, built for
    callers that create systems in a loop.
    """
    system = CpuMemorySystem(memory_size=program.memory_size)
    if base_image is not None:
        system.memory.restore(base_image)
    else:
        system.load_image(program.image)
    return system


def capture_golden(program: SelfTestProgram) -> GoldenReference:
    """Run ``program`` on a fault-free system and record the reference.

    Raises
    ------
    RuntimeError
        If the program does not halt — that is a program-construction
        bug, not a test outcome.  The message says whether the run was
        proven to loop (and at which cycle) or exhausted the budget.
    """
    system = make_system(program)
    result = system.run(entry=program.entry, max_cycles=GOLDEN_CYCLE_BUDGET)
    if not result.halted:
        end = (
            "proven to loop forever"
            if result.end is RunEnd.LOOP
            else "exhausted the cycle budget"
        )
        raise RuntimeError(
            "golden run did not reach the halt convention: "
            f"{end} at cycle {result.cycles}"
        )
    return GoldenReference(
        snapshot=system.memory.snapshot(),
        cycles=result.cycles,
        instructions=result.instructions,
    )


@dataclass(frozen=True)
class ResponseCheck:
    """Outcome of comparing one run against the golden reference."""

    detected: bool
    timed_out: bool
    mismatches: int

    @property
    def passed(self) -> bool:
        """True when the run is indistinguishable from fault-free."""
        return not self.detected


def count_mismatches(snapshot: bytes, reference: bytes) -> int:
    """Number of differing bytes between two equal-length images.

    Runs at C speed (big-int XOR + ``bytes.count``): a defect campaign
    calls this once per detected defect, and a byte-by-byte Python loop
    over a 4K image would rival the simulation itself in cost.
    """
    if len(snapshot) != len(reference):
        raise ValueError("image size mismatch")
    difference = int.from_bytes(snapshot, "big") ^ int.from_bytes(
        reference, "big"
    )
    return len(snapshot) - difference.to_bytes(len(snapshot), "big").count(0)


def check_response(
    golden: GoldenReference,
    system: CpuMemorySystem,
    halted: bool,
) -> ResponseCheck:
    """Judge a finished (or timed-out) run against the golden reference."""
    if not halted:
        return ResponseCheck(detected=True, timed_out=True, mismatches=0)
    snapshot = system.memory.snapshot()
    if snapshot == golden.snapshot:
        return ResponseCheck(detected=False, timed_out=False, mismatches=0)
    mismatches = count_mismatches(snapshot, golden.snapshot)
    return ResponseCheck(detected=True, timed_out=False, mismatches=mismatches)


def diff_cells(
    golden: GoldenReference, system: CpuMemorySystem
) -> Dict[int, Tuple[int, int]]:
    """``address -> (expected, actual)`` for every mismatched cell."""
    return system.memory.diff(golden.snapshot)
