"""Over-testing analysis: BIST versus functionally excitable errors.

The paper argues (Section 1) that hardware self-test "may cause
over-testing, as not all test patterns generated in the test mode are
valid in the normal operational mode of the system.  ...  the rejection
of a chip due to a failure response in these cases causes unnecessary
yield loss."

This module quantifies that argument for a given functional corpus:

1. collect the set of bus transitions a representative set of programs
   actually produces in the normal operational mode (the SBST programs
   themselves plus any workload programs supplied);
2. for each library defect, check whether *any* functional transition
   is corrupted (functionally relevant defect) and whether the BIST
   pattern set detects it;
3. defects detected by BIST but corrupting no functional transition are
   over-test rejections — yield lost to errors that could never bite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Set, Tuple

from repro.bist.controller import BistController
from repro.core.program_builder import SelfTestProgram
from repro.core.signature import capture_golden
from repro.core.validate import observed_transitions
from repro.soc.bus import BusDirection
from repro.xtalk.calibration import Calibration
from repro.xtalk.defects import DefectLibrary
from repro.xtalk.error_model import CrosstalkErrorModel
from repro.xtalk.params import ElectricalParams


@dataclass
class OverTestReport:
    """Outcome of the over-testing comparison."""

    library_size: int
    bist_detected: int
    functionally_relevant: int
    over_tested: int
    functional_transition_count: int

    @property
    def over_test_rate(self) -> float:
        """Fraction of the library rejected without functional relevance."""
        if self.library_size == 0:
            return 0.0
        return self.over_tested / self.library_size

    @property
    def unnecessary_yield_loss(self) -> float:
        """Fraction of BIST rejections that were unnecessary."""
        if self.bist_detected == 0:
            return 0.0
        return self.over_tested / self.bist_detected


def collect_functional_transitions(
    programs: Sequence[SelfTestProgram], bus: str
) -> Set[Tuple[int, int, BusDirection]]:
    """Transitions (with direction) the corpus produces on ``bus``.

    Raises ``RuntimeError`` for a corpus program that does not halt.
    """
    transitions: Set[Tuple[int, int, BusDirection]] = set()
    for program in programs:
        capture_golden(program)  # raises, naming the end the run hit
        address_t, data_t, _, _ = observed_transitions(program)
        if bus == "addr":
            transitions |= {
                (v1, v2, BusDirection.CPU_TO_MEM) for v1, v2 in address_t
            }
        else:
            transitions |= data_t
    return transitions


def analyze_overtesting(
    library: DefectLibrary,
    params: ElectricalParams,
    calibration: Calibration,
    controller: BistController,
    corpus: Sequence[SelfTestProgram],
    bus: str = "addr",
) -> OverTestReport:
    """Compare BIST rejections against functional excitability.

    ``corpus`` should contain the programs considered representative of
    the normal operational mode.
    """
    transitions = collect_functional_transitions(corpus, bus)
    bist_detected = controller.detected_set(library)
    functionally_relevant = 0
    over_tested = 0
    for defect in library:
        model = CrosstalkErrorModel(defect.caps, params, calibration)
        relevant = any(
            model.corrupt(v1, v2, direction) != v2
            for v1, v2, direction in transitions
        )
        if relevant:
            functionally_relevant += 1
        elif defect.index in bist_detected:
            over_tested += 1
    return OverTestReport(
        library_size=len(library),
        bist_detected=len(bist_detected),
        functionally_relevant=functionally_relevant,
        over_tested=over_tested,
        functional_transition_count=len(transitions),
    )
