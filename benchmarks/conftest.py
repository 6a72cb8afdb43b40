"""Shared fixtures for the experiment benchmarks.

Each ``bench_eN_*.py`` regenerates one paper artifact (table or figure)
and logs the paper-vs-measured record; pytest-benchmark times the
representative kernel.  Expensive shared artifacts (defect libraries,
built programs) are session-scoped.

Observability: every benchmark runs inside its own
:func:`repro.obs.session`, and an autouse fixture serializes the phases,
metric snapshot, emitted sections and experiment records into a
``BENCH_<name>.json`` :class:`~repro.obs.RunReport` next to the stdout
output (directory override: ``REPRO_BENCH_REPORT_DIR``).  The JSON files
are schema-validated on write, so benchmark trajectories stay
self-describing and machine-readable.

Progress/reporting goes through the ``repro.bench`` logger (stdout, so
pytest capture and ``tee`` keep working) rather than bare ``print``.

Library size: the paper uses 1000 defects per bus.  The benchmarks
default to the full 1000; set REPRO_BENCH_DEFECTS to shrink it for quick
runs.

Engine: the campaign benchmarks run the library's default engine
(``screened``; see ``repro.core.engine``).  Engines are
outcome-identical, so paper records do not depend on it;
``bench_engine_speedup.py`` asserts exactly that against the exact
engine while timing the difference.
"""

from __future__ import annotations

import logging
import os
import re
import sys
from pathlib import Path
from typing import Iterable, Optional

import pytest

from repro import (
    SelfTestProgramBuilder,
    default_address_bus_setup,
    default_data_bus_setup,
    obs,
)
from repro.analysis.records import ExperimentRecord, format_records

DEFECT_COUNT = int(os.environ.get("REPRO_BENCH_DEFECTS", "1000"))
REPORT_DIR = Path(os.environ.get("REPRO_BENCH_REPORT_DIR", "."))

logger = logging.getLogger("repro.bench")


class _CaptureFriendlyHandler(logging.StreamHandler):
    """Stream handler that follows pytest's stdout redirection."""

    def emit(self, record: logging.LogRecord) -> None:
        self.stream = sys.stdout
        super().emit(record)


if not logger.handlers:
    _handler = _CaptureFriendlyHandler()
    _handler.setFormatter(logging.Formatter("%(message)s"))
    logger.addHandler(_handler)
    logger.setLevel(logging.INFO)
    logger.propagate = False


_current_report: Optional[obs.RunReport] = None


def emit(title: str, body: str) -> None:
    """Log one labelled benchmark section and mirror it into the
    current benchmark's RunReport."""
    line = "=" * 72
    logger.info("\n%s\n%s\n%s\n%s", line, title, line, body)
    if _current_report is not None:
        _current_report.add_section(title, body)


def emit_records(title: str, records: Iterable[ExperimentRecord]) -> None:
    """Log a paper-vs-measured record table and store the structured
    records in the RunReport (the machine-readable form of the table)."""
    records = list(records)
    emit(title, format_records(records))
    if _current_report is not None:
        _current_report.add_records(records)


@pytest.fixture(autouse=True)
def bench_report(request):
    """Observe each benchmark and write its RunReport JSON.

    The report lands as ``BENCH_<test name>.json`` in the working
    directory (or ``REPRO_BENCH_REPORT_DIR``), schema-validated.
    """
    global _current_report
    name = re.sub(r"[^A-Za-z0-9_.-]+", "_", request.node.name)
    name = re.sub(r"^test_", "", name)
    report = obs.RunReport(
        kind="benchmark",
        label=f"bench:{request.node.name}",
        config={"defects": DEFECT_COUNT},
    )
    _current_report = report
    try:
        with obs.session(detail="metrics") as session:
            yield report
            report.phases = session.spans.phases()
            report.metrics = session.registry.snapshot()
    finally:
        _current_report = None
    REPORT_DIR.mkdir(parents=True, exist_ok=True)
    path = report.save(REPORT_DIR / f"BENCH_{name}.json")
    logger.info("run report written to %s", path)


@pytest.fixture(scope="session")
def defect_count():
    return DEFECT_COUNT


@pytest.fixture(scope="session")
def address_setup():
    return default_address_bus_setup(defect_count=DEFECT_COUNT)


@pytest.fixture(scope="session")
def data_setup():
    return default_data_bus_setup(defect_count=DEFECT_COUNT)


@pytest.fixture(scope="session")
def builder():
    return SelfTestProgramBuilder()


@pytest.fixture(scope="session")
def address_program(builder):
    return builder.build_address_bus_program()


@pytest.fixture(scope="session")
def data_program(builder):
    return builder.build_data_bus_program()
