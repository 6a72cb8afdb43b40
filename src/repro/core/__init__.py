"""The paper's contribution: software-based self-test for crosstalk.

This package turns Maximum Aggressor Faults into executable self-test
programs for the PARWAN-class CPU-memory system:

* :mod:`repro.core.maf` — the MAF fault model and MA vector pairs (Fig. 1);
* :mod:`repro.core.image` — conflict-checked memory image with provenance;
* :mod:`repro.core.allocator` — free-space allocation for program glue;
* :mod:`repro.core.databus` — data-bus test fragments (Section 4.1) and
  ADD-based response compaction (Section 4.3);
* :mod:`repro.core.addrbus` — address-bus delay-fault (Section 4.2.1) and
  glitch-fault (Section 4.2.2) test fragments;
* :mod:`repro.core.program_builder` — whole-program construction with
  address-conflict deferral;
* :mod:`repro.core.sessions` — multi-session scheduling of deferred tests;
* :mod:`repro.core.signature` — golden responses, detection checks and
  the golden-run cycle budget;
* :mod:`repro.core.engine` — the exact and screened simulation engines;
* :mod:`repro.core.campaign` — campaign orchestration: specs,
  :func:`run_campaign`, resumable JSONL outcome journals;
* :mod:`repro.core.coverage` — the Fig. 11 per-line coverage report on
  top of the campaign layer.

Only the campaign path is re-exported here; import the session,
coverage, diagnosis and validation helpers from their modules.
"""

from repro.core.maf import (
    FaultType,
    MAFault,
    VectorPair,
    enumerate_bus_faults,
    ma_vector_pair,
)
from repro.core.image import ConflictError, MemoryImage
from repro.core.allocator import GlueAllocator
from repro.core.program_builder import (
    AppliedTest,
    SelfTestProgram,
    SelfTestProgramBuilder,
    SkippedTest,
)
from repro.core.signature import GoldenReference, capture_golden, check_response
from repro.core.engine import (
    ExactEngine,
    ScreenedEngine,
    SimulationEngine,
    capture_golden_with_trace,
)
from repro.core.campaign import (
    CampaignJournal,
    CampaignResult,
    CampaignSpec,
    DetectionOutcome,
    JournalError,
    run_campaign,
)

__all__ = [
    "FaultType",
    "MAFault",
    "VectorPair",
    "enumerate_bus_faults",
    "ma_vector_pair",
    "ConflictError",
    "MemoryImage",
    "GlueAllocator",
    "AppliedTest",
    "SelfTestProgram",
    "SelfTestProgramBuilder",
    "SkippedTest",
    "GoldenReference",
    "capture_golden",
    "check_response",
    "ExactEngine",
    "ScreenedEngine",
    "SimulationEngine",
    "capture_golden_with_trace",
    "CampaignJournal",
    "CampaignResult",
    "CampaignSpec",
    "JournalError",
    "run_campaign",
    "DetectionOutcome",
]
