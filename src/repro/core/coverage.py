"""Defect-coverage aggregation (paper Section 5, Figs. 9 and 11).

Per-defect *execution* lives in :mod:`repro.core.campaign` (specs,
backends, journals); this module is the *aggregation* side: the
:class:`DefectSimulator` convenience wrapper (one program, one engine,
in-process) and the Fig. 11 report builder
:func:`address_bus_line_coverage`, which now routes every per-line
campaign through a :class:`~repro.core.campaign.CampaignRunner` — so it
shards across worker processes (``workers``) and survives interruption
(``journal`` / ``resume``) without the report changing by a bit.

A defect is detected when the final memory image differs from the
fault-free golden image or the run never halts; every bus transition of
the run (fetches included) is subject to corruption, capturing fault
masking exactly as the paper's HDL environment does.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set, Union

from repro.core.campaign import (
    PROGRESS_LOG_EVERY,
    CampaignJournal,
    CampaignRunner,
    CampaignSpec,
    DetectionOutcome,
    ProgressCallback,
    config_digest,
    execute_defect,
    run_defects,
)
from repro.core.engine import ENGINES, SimulationEngine, make_engine
from repro.core.maf import MAFault, enumerate_bus_faults
from repro.core.program_builder import SelfTestProgram, SelfTestProgramBuilder
from repro.core.signature import GoldenReference
from repro.obs import runtime as obs_runtime
from repro.xtalk.calibration import Calibration
from repro.xtalk.defects import Defect, DefectLibrary
from repro.xtalk.params import ElectricalParams

__all__ = [
    "PROGRESS_LOG_EVERY",
    "CoverageReport",
    "DefectSimulator",
    "DetectionOutcome",
    "LineCoverage",
    "address_bus_line_coverage",
    "fig11_fingerprint",
]

logger = logging.getLogger("repro.core.coverage")


class DefectSimulator:
    """Runs one self-test program across a defect library, in process.

    A thin convenience front on the campaign layer: it owns one engine
    and judges defects serially.  For sharded or resumable campaigns
    build a :class:`~repro.core.campaign.CampaignSpec` (see
    :meth:`spec`) and hand it to a
    :class:`~repro.core.campaign.CampaignRunner`.

    Parameters
    ----------
    program:
        The self-test program under evaluation.
    params:
        Electrical parameters of the bus under test.
    calibration:
        Thresholds derived from the *nominal* bus (shared with the defect
        library so defect criterion and error model agree).
    bus:
        ``"addr"`` or ``"data"`` — which bus the defects live on (the
        paper injects defects per bus: "we only consider crosstalk within
        the same bus").
    engine:
        ``"screened"`` (default) screens the library against the golden
        bus trace and replays only defects that provably diverge,
        fast-forwarded from the last clean checkpoint (see
        :mod:`repro.core.engine`); ``"exact"`` replays every defect in
        full and is the oracle the screened engine is tested against.
        Both produce identical :class:`DetectionOutcome` values.
    """

    def __init__(
        self,
        program: SelfTestProgram,
        params: ElectricalParams,
        calibration: Calibration,
        bus: str = "addr",
        engine: str = "screened",
    ):
        if bus not in ("addr", "data"):
            raise ValueError("bus must be 'addr' or 'data'")
        if engine not in ENGINES:
            raise ValueError(f"engine must be one of {ENGINES}")
        self.program = program
        self.params = params
        self.calibration = calibration
        self.bus = bus
        self.engine_name = engine
        self.engine: SimulationEngine = make_engine(
            engine, program, params, calibration, bus
        )
        self.golden: GoldenReference = self.engine.golden

    def spec(
        self, library: Sequence[Defect], label: str = "campaign"
    ) -> CampaignSpec:
        """The picklable campaign spec equivalent to this simulator."""
        return CampaignSpec(
            program=self.program,
            params=self.params,
            calibration=self.calibration,
            defects=tuple(library),
            bus=self.bus,
            engine=self.engine_name,
            label=label,
        )

    def simulate(self, defect: Defect) -> DetectionOutcome:
        """Simulate one defect; return its detection outcome."""
        return execute_defect(self.engine, defect, self.bus)

    def run_library(self, library: DefectLibrary) -> List[DetectionOutcome]:
        """Simulate every defect in the library (the serial inner loop)."""
        return run_defects(self.engine, library, self.bus)

    def detected_set(self, library: DefectLibrary) -> Set[int]:
        """Indices of the defects the program detects."""
        return {
            outcome.defect_index
            for outcome in self.run_library(library)
            if outcome.detected
        }

    def coverage(self, library: DefectLibrary) -> float:
        """Fraction of library defects detected."""
        if len(library) == 0:
            return 0.0
        return len(self.detected_set(library)) / len(library)


@dataclass
class LineCoverage:
    """Fig. 11 data point for one interconnect."""

    line: int  # 1-based, the paper's numbering
    tests_applied: int
    tests_total: int
    individual: float
    cumulative: float
    detected: Set[int] = field(default_factory=set)


@dataclass
class CoverageReport:
    """Fig. 11 data series plus the whole-program coverage."""

    lines: List[LineCoverage]
    library_size: int
    full_program_coverage: Optional[float] = None

    @property
    def cumulative_coverage(self) -> float:
        """Coverage of all per-line tests combined."""
        return self.lines[-1].cumulative if self.lines else 0.0

    def as_rows(self) -> List[Dict[str, object]]:
        """Row dicts for tabular rendering."""
        return [
            {
                "line": line.line,
                "tests": f"{line.tests_applied}/{line.tests_total}",
                "individual": line.individual,
                "cumulative": line.cumulative,
            }
            for line in self.lines
        ]


def fig11_fingerprint(
    library: DefectLibrary,
    params: ElectricalParams,
    calibration: Calibration,
    width: int,
    with_full_program: bool,
) -> str:
    """Campaign fingerprint of a whole Fig. 11 run (all per-line groups).

    The per-line programs are deterministic functions of the builder
    configuration, so the figure-level journal is keyed on the shared
    electrical/defect configuration plus the figure shape — computable
    before any program is built.
    """
    return config_digest(
        params,
        calibration,
        list(library),
        {
            "kind": "fig11",
            "width": width,
            "full_program": bool(with_full_program),
        },
    )


def address_bus_line_coverage(
    library: DefectLibrary,
    params: ElectricalParams,
    calibration: Calibration,
    builder: Optional[SelfTestProgramBuilder] = None,
    full_program: Optional[SelfTestProgram] = None,
    engine: str = "screened",
    workers: int = 1,
    journal: Optional[Union[str, Path]] = None,
    resume: bool = False,
    progress: Optional[ProgressCallback] = None,
) -> CoverageReport:
    """Reproduce Fig. 11: per-interconnect and cumulative coverage.

    For each address-bus line, a dedicated program containing (the
    applicable subset of) that line's four MA tests is built and run
    against the whole library.  The cumulative series is the union of the
    detected sets in line order.  If ``full_program`` is given, its
    overall coverage is evaluated too (the paper's single-test-program
    coverage, 100 % in their experiment).

    ``engine`` selects the defect-simulation engine per program and
    ``workers`` the campaign parallelism (a process pool above 1); the
    report is engine- and worker-independent.  ``journal`` names a JSONL
    outcome journal covering the whole figure (one record group per
    line, plus ``"full"``); with ``resume=True`` an interrupted run is
    picked up where it stopped and the finished report is identical to
    an uninterrupted one.
    """
    builder = builder or SelfTestProgramBuilder()
    width = builder.addr_width
    all_faults = enumerate_bus_faults(width)

    shared_journal: Optional[CampaignJournal] = None
    if journal is not None:
        fingerprint = fig11_fingerprint(
            library, params, calibration, width, full_program is not None
        )
        shared_journal = CampaignJournal(journal, fingerprint, resume=resume)

    lines: List[LineCoverage] = []
    union: Set[int] = set()
    total = len(library)
    obs = obs_runtime.active()
    try:
        for victim in range(width):
            line_faults: Sequence[MAFault] = [
                fault for fault in all_faults if fault.victim == victim
            ]
            with obs_runtime.span("coverage.line", line=victim + 1):
                program = builder.build_address_bus_program(line_faults)
                spec = CampaignSpec(
                    program=program,
                    params=params,
                    calibration=calibration,
                    defects=tuple(library),
                    bus="addr",
                    engine=engine,
                    label=f"line{victim + 1}",
                )
                result = CampaignRunner(
                    spec,
                    backend="process" if workers > 1 else "serial",
                    workers=workers if workers > 1 else None,
                    journal=shared_journal,
                    progress=progress,
                ).run()
                detected = result.detected_set()
            union |= detected
            line = LineCoverage(
                line=victim + 1,
                tests_applied=len(program.applied),
                tests_total=len(line_faults),
                individual=len(detected) / total if total else 0.0,
                cumulative=len(union) / total if total else 0.0,
                detected=detected,
            )
            lines.append(line)
            if obs is not None:
                # Per-MA-test detection stats (Fig. 11 series as live gauges).
                prefix = f"coverage.line.{victim + 1:02d}"
                obs.registry.gauge(f"{prefix}.individual").set(line.individual)
                obs.registry.gauge(f"{prefix}.cumulative").set(line.cumulative)
                obs.registry.counter("coverage.lines.evaluated").inc()
        full_coverage = None
        if full_program is not None:
            spec = CampaignSpec(
                program=full_program,
                params=params,
                calibration=calibration,
                defects=tuple(library),
                bus="addr",
                engine=engine,
                label="full",
            )
            result = CampaignRunner(
                spec,
                backend="process" if workers > 1 else "serial",
                workers=workers if workers > 1 else None,
                journal=shared_journal,
                progress=progress,
            ).run()
            full_coverage = result.coverage()
    finally:
        if shared_journal is not None:
            shared_journal.close()
    return CoverageReport(
        lines=lines,
        library_size=total,
        full_program_coverage=full_coverage,
    )
