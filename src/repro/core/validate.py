"""Post-build validation: does the program really apply its tests?

The program builder resolves address conflicts with value adoption,
steered jumps and technique fallbacks; this module closes the loop by
*observing* the built program.  A fault-free run is traced and every
applied test's MA vector pair is checked against the recorded bus
transitions: the pair ``(v1, v2)`` must appear as consecutive settled
words on the bus under test (with the right driving direction on the
bidirectional data bus).

This is the software analogue of validating a hardware pattern generator
against its specification — and it guards the intricate placement logic:
a fragment that was mis-assembled, or whose adopted bytes changed its
semantics, shows up here as a missing transition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Set, Tuple

from repro.core.maf import MAFault, ma_vector_pair
from repro.core import signature
from repro.core.program_builder import SelfTestProgram
from repro.core.signature import make_system
from repro.soc.bus import BusDirection
from repro.soc.tracer import BusTracer


@dataclass
class ValidationReport:
    """Which applied tests demonstrably hit the bus with their MA pair."""

    confirmed: List[MAFault] = field(default_factory=list)
    missing: List[MAFault] = field(default_factory=list)
    halted: bool = True
    cycles: int = 0

    @property
    def all_confirmed(self) -> bool:
        """True when every applied test's transition was observed."""
        return self.halted and not self.missing


def observed_transitions(
    program: SelfTestProgram,
) -> Tuple[Set[tuple], Set[tuple], bool, int]:
    """Trace one fault-free run within the golden cycle budget.

    Returns ``(address transitions, data transitions, halted, cycles)``
    where address transitions are ``(v1, v2)`` pairs and data transitions
    are ``(v1, v2, direction)`` triples.
    """
    system = make_system(program)
    tracer = BusTracer([system.address_bus, system.data_bus])
    result = system.run(
        entry=program.entry, max_cycles=signature.GOLDEN_CYCLE_BUDGET
    )
    address_transitions = {
        (t.previous, t.driven) for t in tracer.on_bus("addr")
    }
    data_transitions = {
        (t.previous, t.driven, t.direction) for t in tracer.on_bus("data")
    }
    return address_transitions, data_transitions, result.halted, result.cycles


def validate_applied_tests(program: SelfTestProgram) -> ValidationReport:
    """Check every applied test's MA transition against a traced run."""
    address_transitions, data_transitions, halted, cycles = observed_transitions(
        program
    )
    report = ValidationReport(halted=halted, cycles=cycles)
    for test in program.applied:
        pair = ma_vector_pair(test.fault)
        if test.fault.direction is None:
            seen = (pair.v1, pair.v2) in address_transitions
        else:
            seen = (pair.v1, pair.v2, test.fault.direction) in data_transitions
        if seen:
            report.confirmed.append(test.fault)
        else:
            report.missing.append(test.fault)
    return report


def transition_direction_of(fault: MAFault) -> BusDirection:
    """The driving direction of the second vector for a data-bus fault."""
    if fault.direction is None:
        raise ValueError("address-bus faults are always CPU-driven")
    return fault.direction
