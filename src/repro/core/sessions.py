"""Multi-session scheduling of conflicting tests (paper Section 5).

"Some of the tests cannot be applied due to address conflicts — i.e.,
multiple tests compete for the same instruction address.  This problem
can be solved by separating conflicting tests into multiple test
programs, which can be executed in different sessions."

:func:`build_sessions` does exactly that: it builds a first program with
every requested fault, then keeps building follow-up programs from the
skipped remainder until everything is applied or no further progress is
possible (a fault can be *structurally* unapplicable — e.g. the negative
glitch on address line 1, whose corrupted target address coincides with
the test's own instruction byte).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.core.campaign import CampaignSpec, run_campaign
from repro.core.maf import MAFault
from repro.core.program_builder import SelfTestProgram, SelfTestProgramBuilder
from repro.obs import runtime as obs_runtime
from repro.soc.bus import BusDirection
from repro.xtalk.calibration import Calibration
from repro.xtalk.defects import DefectLibrary
from repro.xtalk.params import ElectricalParams


@dataclass
class SessionPlan:
    """The session decomposition of one fault set."""

    programs: List[SelfTestProgram] = field(default_factory=list)
    unapplicable: List[MAFault] = field(default_factory=list)

    @property
    def session_count(self) -> int:
        """Number of test programs (tester sessions)."""
        return len(self.programs)

    @property
    def applied_total(self) -> int:
        """Tests applied across all sessions."""
        return sum(len(program.applied) for program in self.programs)

    @property
    def all_clean(self) -> bool:
        """True when every linted session program is free of errors.

        Programs built without linting (no ``lint_report``) count as
        clean; pass ``lint=True`` to :func:`build_sessions` to make this
        property meaningful for the whole plan.
        """
        return all(
            program.lint_report is None or program.lint_report.clean
            for program in self.programs
        )


def build_sessions(
    builder: Optional[SelfTestProgramBuilder] = None,
    address_faults: Optional[Sequence[MAFault]] = None,
    data_faults: Optional[Sequence[MAFault]] = None,
    max_sessions: int = 8,
    lint: Optional[bool] = None,
) -> SessionPlan:
    """Schedule the given faults into as few programs as conflicts allow.

    ``lint`` overrides the builder's own lint flag for this plan: pass
    ``True`` to statically lint every session program as it is built
    (findings land in each program's ``lint_report``).
    """
    builder = builder or SelfTestProgramBuilder()
    if lint is not None:
        builder.lint = lint
    remaining_address = list(
        builder.address_faults() if address_faults is None else address_faults
    )
    remaining_data = list(
        builder.data_faults() if data_faults is None else data_faults
    )
    plan = SessionPlan()
    while (remaining_address or remaining_data) and len(plan.programs) < max_sessions:
        with obs_runtime.span("sessions.build", session=len(plan.programs)):
            program = builder.build(remaining_address, remaining_data)
        if not program.applied:
            break  # nothing placeable even alone: the rest is unapplicable
        plan.programs.append(program)
        applied = set(program.applied_faults)
        remaining_address = [f for f in remaining_address if f not in applied]
        remaining_data = [f for f in remaining_data if f not in applied]
    plan.unapplicable = [
        fault
        for fault in remaining_address + remaining_data
        if fault.direction is None or isinstance(fault.direction, BusDirection)
    ]
    obs = obs_runtime.active()
    if obs is not None:
        obs.registry.counter("sessions.programs").inc(plan.session_count)
        obs.registry.counter("sessions.tests.applied").inc(plan.applied_total)
        obs.registry.counter("sessions.tests.unapplicable").inc(
            len(plan.unapplicable)
        )
    return plan


def session_coverage(
    plan: SessionPlan,
    library: DefectLibrary,
    params: ElectricalParams,
    calibration: Calibration,
    bus: str = "addr",
    engine: str = "screened",
) -> float:
    """Union defect coverage of every program in a session plan.

    A defect is covered when *any* session detects it (the tester runs
    every session; one failing signature fails the part).  ``engine``
    selects the per-program simulation engine; the default
    ``"screened"`` pays off here because each session program gets its
    own golden trace, and defects clean on a session's trace skip that
    session's replay.
    """
    if len(library) == 0:
        return 0.0
    detected: set = set()
    for session, program in enumerate(plan.programs, start=1):
        spec = CampaignSpec(
            program=program,
            params=params,
            calibration=calibration,
            defects=tuple(library),
            bus=bus,
            engine=engine,
            label=f"session{session}",
        )
        detected |= run_campaign(spec).detected_set()
    return len(detected) / len(library)
