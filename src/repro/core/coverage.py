"""Defect-coverage aggregation (paper Section 5, Figs. 9 and 11).

Per-defect *execution* lives in :mod:`repro.core.campaign` (specs, the
campaign loop, journals); this module is the *aggregation* side: the
Fig. 11 report builder :func:`address_bus_line_coverage`, which routes
every per-line campaign through
:func:`~repro.core.campaign.run_campaign` — so it survives
interruption (``journal`` / ``resume``) without the report changing by
a bit.

A defect is detected when the final memory image differs from the
fault-free golden image or the run never halts; every bus transition of
the run (fetches included) is subject to corruption, capturing fault
masking exactly as the paper's HDL environment does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.core.campaign import (
    CampaignJournal,
    CampaignSpec,
    ProgressCallback,
    config_digest,
    run_campaign,
)
from repro.core.maf import MAFault, enumerate_bus_faults
from repro.core.program_builder import SelfTestProgram, SelfTestProgramBuilder
from repro.obs import runtime as obs_runtime
from repro.xtalk.calibration import Calibration
from repro.xtalk.defects import DefectLibrary
from repro.xtalk.params import ElectricalParams

__all__ = [
    "CoverageReport",
    "LineCoverage",
    "address_bus_line_coverage",
    "fig11_fingerprint",
]


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

    ``engine`` selects the defect-simulation engine per program; the
    report is engine-independent.  ``journal`` names a JSONL
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

    # One campaign per address line, then the optional full program;
    # ``None`` faults stand for the full program.
    campaigns: List[Tuple[str, Optional[List[MAFault]]]] = [
        (
            f"line{victim + 1}",
            [fault for fault in all_faults if fault.victim == victim],
        )
        for victim in range(width)
    ]
    if full_program is not None:
        campaigns.append(("full", None))
    defects = tuple(library)
    lines: List[LineCoverage] = []
    union: Set[int] = set()
    total = len(defects)
    full_coverage = None
    obs = obs_runtime.active()
    try:
        for label, line_faults in campaigns:
            with obs_runtime.span("coverage.program", label=label):
                program = (
                    full_program
                    if line_faults is None
                    else builder.build_address_bus_program(line_faults)
                )
                spec = CampaignSpec(
                    program=program,
                    params=params,
                    calibration=calibration,
                    defects=defects,
                    bus="addr",
                    engine=engine,
                    label=label,
                )
                result = run_campaign(
                    spec, journal=shared_journal, progress=progress
                )
            if line_faults is None:
                full_coverage = result.coverage()
                continue
            detected = result.detected_set()
            union |= detected
            line = LineCoverage(
                line=len(lines) + 1,
                tests_applied=len(program.applied),
                tests_total=len(line_faults),
                individual=len(detected) / total if total else 0.0,
                cumulative=len(union) / total if total else 0.0,
                detected=detected,
            )
            lines.append(line)
            if obs is not None:
                # Per-MA-test detection stats (Fig. 11 series as live gauges).
                prefix = f"coverage.line.{line.line:02d}"
                obs.registry.gauge(f"{prefix}.individual").set(line.individual)
                obs.registry.gauge(f"{prefix}.cumulative").set(line.cumulative)
                obs.registry.counter("coverage.lines.evaluated").inc()
    finally:
        if shared_journal is not None:
            shared_journal.close()
    return CoverageReport(
        lines=lines,
        library_size=total,
        full_program_coverage=full_coverage,
    )
