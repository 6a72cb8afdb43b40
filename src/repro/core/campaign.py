"""Campaign orchestration: specs, the campaign loop, durable journals.

The paper's Fig. 11 experiments are defect *campaigns* — thousands of
independent per-defect simulations whose :class:`DetectionOutcome`\\ s are
aggregated afterwards.  This module is the orchestration layer those
campaigns run on:

:class:`CampaignSpec`
    An engine-agnostic description of one campaign: the program image,
    the electrical/threshold configuration, the defect slice, and the
    engine selection.  A spec is pure data with two jobs: its
    :meth:`~CampaignSpec.fingerprint` names the campaign a journal
    belongs to, and :meth:`~CampaignSpec.build_engine` is the one place
    an engine (golden capture, screens, scratch systems) is built from a
    campaign's inputs.

:func:`run_campaign`
    The one way to run a campaign.  It loads the journal, judges only
    the defects not already journaled on one engine in this process,
    and returns a :class:`CampaignResult` whose outcome list is
    bit-identical to an uninterrupted run.  Engines are themselves
    outcome-identical (see :mod:`repro.core.engine`).

:class:`CampaignJournal`
    A durable JSONL outcome journal.  Each judged defect is appended
    and flushed immediately, so a crash or Ctrl-C loses at most the
    in-flight defect; resuming with the same spec skips every journaled
    defect.  The file is self-identifying (a header line carries a
    fingerprint of the campaign configuration) and tolerates a
    truncated or corrupt *trailing* line — the signature of a write cut
    short — by repairing the file before appending.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    IO,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.core.engine import ExactEngine, ScreenedEngine, SimulationEngine
from repro.core.program_builder import SelfTestProgram
from repro.obs import runtime as obs_runtime
from repro.xtalk.calibration import Calibration
from repro.xtalk.defects import Defect
from repro.xtalk.params import ElectricalParams

logger = logging.getLogger("repro.core.campaign")

#: Emit a campaign progress log line every this many simulated defects
#: (DEBUG level; only when an observability session is active).
PROGRESS_LOG_EVERY = 200

#: ``(defects judged so far, total defects, detected so far)`` — called
#: after every judged defect.
ProgressCallback = Callable[[int, int, int], None]


@dataclass(frozen=True)
class DetectionOutcome:
    """Result of simulating one defect against one program."""

    defect_index: int
    detected: bool
    timed_out: bool
    mismatches: int


def run_defects(
    engine: SimulationEngine,
    defects: Iterable[Defect],
    bus: str,
    on_outcome: Optional[Callable[[DetectionOutcome], None]] = None,
    progress: Optional[ProgressCallback] = None,
) -> List[DetectionOutcome]:
    """Judge every defect in order on one engine (the serial inner loop).

    ``on_outcome`` fires after every judged defect (the journal's append
    hook).

    Under an active observability session every judgment is timed
    (``coverage.defect.replay``), tallied (``coverage.defects.*``) and
    its error model's verdict statistics are rolled into
    ``xtalk.model.*``; the loop gets a ``coverage.campaign`` span, a
    live ``coverage.campaign.progress`` gauge in [0, 1], and a DEBUG
    progress log line every :data:`PROGRESS_LOG_EVERY` defects.  (A
    screened engine may judge a defect without running a model — its
    screening decisions appear under ``coverage.engine.*`` instead.)
    """
    defects = list(defects)
    total = len(defects)
    obs = obs_runtime.active()
    gauge = obs.registry.gauge("coverage.campaign.progress") if obs else None
    outcomes: List[DetectionOutcome] = []
    detected = 0
    with obs_runtime.span("coverage.campaign", bus=bus, defects=total):
        for count, defect in enumerate(defects, start=1):
            if obs is None:
                check = engine.check(defect)
            else:
                start = time.perf_counter_ns()
                if obs.full_detail:
                    with obs.spans.span("defect", index=defect.index, bus=bus):
                        check = engine.check(defect)
                else:
                    check = engine.check(defect)
                registry = obs.registry
                registry.timer("coverage.defect.replay").observe(
                    time.perf_counter_ns() - start
                )
                registry.counter("coverage.defects.simulated").inc()
                if check.detected:
                    registry.counter("coverage.defects.detected").inc()
                if check.timed_out:
                    registry.counter("coverage.defects.timeouts").inc()
                if engine.last_model is not None:
                    for suffix, value in engine.last_model.stats().items():
                        registry.counter(f"xtalk.model.{suffix}").inc(value)
            outcome = DetectionOutcome(
                defect_index=defect.index,
                detected=check.detected,
                timed_out=check.timed_out,
                mismatches=check.mismatches,
            )
            outcomes.append(outcome)
            if outcome.detected:
                detected += 1
            if on_outcome is not None:
                on_outcome(outcome)
            if gauge is not None:
                gauge.set(count / total)
                if count % PROGRESS_LOG_EVERY == 0 or count == total:
                    logger.debug(
                        "campaign %s: %d/%d defects simulated, %d detected",
                        bus, count, total, detected,
                    )
            if progress is not None:
                progress(count, total, detected)
    return outcomes


# ---------------------------------------------------------------------------
# The campaign spec
# ---------------------------------------------------------------------------


def _json(value: object) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def config_digest(
    params: ElectricalParams,
    calibration: Calibration,
    defects: Sequence[Defect],
    extra: Mapping[str, object],
) -> str:
    """SHA-256 over a canonical JSON form of one campaign configuration.

    The bytes hashed are ``json.dumps(payload, sort_keys=True,
    separators=(",", ":"))`` of ``{"params", "calibration", "defects",
    "extra"}``.

    Engine selection is deliberately *excluded*:
    engines are outcome-identical, so a journal written with the exact
    engine may be resumed with the screened one (and vice versa).
    """
    payload = {
        "params": [
            params.vdd,
            params.r_driver_cpu,
            params.r_driver_mem,
            params.glitch_attenuation,
        ],
        "calibration": {
            "cth": calibration.cth,
            "v_th": calibration.v_th,
            "t_margin": sorted(
                (direction.value, margin)
                for direction, margin in calibration.t_margin.items()
            ),
            "safety_factor": calibration.safety_factor,
        },
        "defects": [
            [defect.index, defect.caps.ground, defect.caps.coupling]
            for defect in defects
        ],
        "extra": dict(extra),
    }
    return hashlib.sha256(_json(payload).encode()).hexdigest()


@dataclass(frozen=True)
class CampaignSpec:
    """Everything needed to judge a slice of defects.

    A spec is pure data: the program image, the electrical and
    threshold configuration, the defect slice, and the engine
    selection.  It references no live system, bus, hook, tracer, or
    open file.  :meth:`fingerprint` identifies the campaign's outcomes;
    :meth:`build_engine` builds the live state, capturing the golden
    run and screening the slice in memory (a few milliseconds), so a
    campaign keeps no on-disk state besides an explicit journal.
    """

    program: SelfTestProgram
    params: ElectricalParams
    calibration: Calibration
    defects: Tuple[Defect, ...]
    bus: str = "addr"
    engine: str = "screened"
    label: str = "campaign"

    def __post_init__(self):
        if self.bus not in ("addr", "data"):
            raise ValueError("bus must be 'addr' or 'data'")
        if self.engine not in ("exact", "screened"):
            raise ValueError("engine must be 'exact' or 'screened'")

    def build_engine(self) -> SimulationEngine:
        """Build the simulation engine this spec describes.

        Both engines simulate their own golden run.  The screened engine
        is prepared with the spec's defects, so replay dedup knows the
        whole slice.
        """
        if self.engine == "exact":
            return ExactEngine(
                self.program, self.params, self.calibration, self.bus
            )
        engine = ScreenedEngine(
            self.program, self.params, self.calibration, self.bus
        )
        engine.prepare(self.defects)
        return engine

    def fingerprint(self) -> str:
        """Stable identity of the campaign's *outcome-determining* config.

        Two specs share a fingerprint iff they provably produce the
        same outcome per defect: same program image and entry, same
        bus, same electrical/threshold configuration, same defect
        slice.  Engine choice is excluded (engines are outcome-identical),
        so a journal can be resumed under a different engine.
        """
        return config_digest(
            self.params,
            self.calibration,
            self.defects,
            {
                "kind": "campaign",
                "bus": self.bus,
                "entry": self.program.entry,
                "memory_size": self.program.memory_size,
                "image": sorted(self.program.image.items()),
            },
        )


# ---------------------------------------------------------------------------
# Durable outcome journal
# ---------------------------------------------------------------------------


class JournalError(ValueError):
    """The journal file cannot back the requested campaign."""


JOURNAL_KIND = "repro-campaign-journal"
JOURNAL_VERSION = 1


def _is_flag(value: object) -> bool:
    """A journaled boolean: the JSON integer 0 or 1, as written."""
    return type(value) is int and value in (0, 1)


class CampaignJournal:
    """Append-only JSONL journal of judged defects, resumable after a crash.

    Line 1 is a header identifying the campaign (``fingerprint`` from
    :meth:`CampaignSpec.fingerprint` or :func:`config_digest`); every
    further line is one outcome record
    ``{"g": group, "i": index, "d": detected, "t": timed_out, "m":
    mismatches}``.  Records are flushed as written, so an interrupted
    campaign loses at most the outcomes still in flight.

    ``resume=True`` loads an existing journal (verifying the
    fingerprint) and appends to it; a truncated or corrupt *trailing*
    line — the signature of a write cut short by the crash — is
    tolerated and repaired by truncating the file back to the last
    intact record.  Corruption anywhere *before* the tail is an error:
    the journal can no longer be trusted.
    """

    def __init__(
        self,
        path: Union[str, Path],
        fingerprint: str,
        resume: bool = False,
    ):
        self.path = Path(path)
        self.fingerprint = fingerprint
        self.repaired = False
        self._done: Dict[str, Dict[int, DetectionOutcome]] = {}
        self._stream: Optional[IO[str]] = None
        if resume and self.path.exists() and self.path.stat().st_size > 0:
            self._load()
            self._stream = open(self.path, "a", encoding="utf-8")
        else:
            self._stream = open(self.path, "w", encoding="utf-8")
            self._write_line({
                "kind": JOURNAL_KIND,
                "version": JOURNAL_VERSION,
                "fingerprint": fingerprint,
            })

    # -- loading / repair ---------------------------------------------------

    def _load(self) -> None:
        raw = self.path.read_bytes()
        records: List[Tuple[int, dict]] = []  # (line number, payload)
        truncate_at: Optional[int] = None
        pos = 0
        lineno = 0
        size = len(raw)
        while pos < size:
            newline = raw.find(b"\n", pos)
            end = size if newline == -1 else newline
            line = raw[pos:end].strip()
            lineno += 1
            if line:
                payload: Optional[dict] = None
                try:
                    decoded = json.loads(line.decode("utf-8"))
                    if isinstance(decoded, dict):
                        payload = decoded
                except (ValueError, UnicodeDecodeError):
                    payload = None
                if payload is None:
                    if raw[end:].strip():
                        raise JournalError(
                            f"{self.path}: corrupt journal line {lineno} is "
                            "followed by further records — refusing to "
                            "resume from an untrustworthy journal"
                        )
                    # A trailing partial line: the interrupted write the
                    # journal exists to survive.  Drop it.
                    truncate_at = pos
                    break
                records.append((lineno, payload))
            if newline == -1:
                pos = size
            else:
                pos = newline + 1
        if not records:
            raise JournalError(f"{self.path}: no journal header")
        header = records[0][1]
        if header.get("kind") != JOURNAL_KIND:
            raise JournalError(f"{self.path}: not a campaign journal")
        if header.get("version") != JOURNAL_VERSION:
            raise JournalError(
                f"{self.path}: unsupported journal version "
                f"{header.get('version')!r}"
            )
        if header.get("fingerprint") != self.fingerprint:
            raise JournalError(
                f"{self.path}: journal belongs to a different campaign "
                "(fingerprint mismatch) — pass a fresh journal path or "
                "drop --resume"
            )
        for lineno, record in records[1:]:
            index, detected, timed_out, mismatches = (
                record.get(key) for key in ("i", "d", "t", "m")
            )
            # Exactly the types the writer emits: a bool or a float would
            # pass int()/bool() and load as a wrong outcome.
            if not (
                type(index) is int
                and type(mismatches) is int
                and mismatches >= 0
                and _is_flag(detected)
                and _is_flag(timed_out)
            ):
                raise JournalError(
                    f"{self.path}: malformed outcome record on line "
                    f"{lineno}: {record!r}"
                )
            outcome = DetectionOutcome(
                defect_index=index,
                detected=bool(detected),
                timed_out=bool(timed_out),
                mismatches=mismatches,
            )
            group = str(record.get("g", "campaign"))
            self._done.setdefault(group, {})[outcome.defect_index] = outcome
        if truncate_at is not None:
            with open(self.path, "r+b") as stream:
                stream.truncate(truncate_at)
            self.repaired = True
        elif raw and not raw.endswith(b"\n"):
            # Intact final record without its newline: complete the line
            # so the next append starts fresh.
            with open(self.path, "a", encoding="utf-8") as stream:
                stream.write("\n")

    # -- recording ----------------------------------------------------------

    def done(self, group: str = "campaign") -> Dict[int, DetectionOutcome]:
        """Already-journaled outcomes of ``group``, by defect index."""
        return dict(self._done.get(group, {}))

    @property
    def completed(self) -> int:
        """Total outcome records across all groups."""
        return sum(len(outcomes) for outcomes in self._done.values())

    def record(
        self, outcome: DetectionOutcome, group: str = "campaign"
    ) -> None:
        """Append one outcome and flush it to disk."""
        self._write_line({
            "g": group,
            "i": outcome.defect_index,
            "d": int(outcome.detected),
            "t": int(outcome.timed_out),
            "m": outcome.mismatches,
        })
        self._done.setdefault(group, {})[outcome.defect_index] = outcome

    def _write_line(self, payload: dict) -> None:
        if self._stream is None:
            raise JournalError(f"{self.path}: journal is closed")
        self._stream.write(json.dumps(payload, separators=(",", ":")))
        self._stream.write("\n")
        self._stream.flush()

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Running a campaign
# ---------------------------------------------------------------------------


@dataclass
class CampaignResult:
    """Merged outcome of one campaign run.

    ``outcomes`` is sorted by defect index and bit-identical to an
    uninterrupted run of the same spec, whatever the resume history
    that produced it.
    """

    label: str
    outcomes: List[DetectionOutcome]
    executed: int
    resumed: int

    def detected_set(self) -> Set[int]:
        """Indices of the defects the program detects."""
        return {
            outcome.defect_index
            for outcome in self.outcomes
            if outcome.detected
        }

    @property
    def detected(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.detected)

    @property
    def timeouts(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.timed_out)

    def coverage(self) -> float:
        """Fraction of the campaign's defects detected."""
        if not self.outcomes:
            return 0.0
        return self.detected / len(self.outcomes)


def run_campaign(
    spec: CampaignSpec,
    journal: Optional[Union[str, Path, CampaignJournal]] = None,
    resume: bool = False,
    progress: Optional[ProgressCallback] = None,
) -> CampaignResult:
    """Judge every defect of ``spec``; return the index-sorted result.

    The defects the journal does not already hold are judged in order
    on one engine built by :meth:`CampaignSpec.build_engine`.

    ``journal`` is ``None``, a path (a :class:`CampaignJournal` is
    opened against the spec's fingerprint and closed afterwards), or an
    open journal shared with other campaigns (multi-program campaigns
    keep their records apart by ``spec.label``).  ``resume=True``
    skips every defect the journal already holds; it requires a
    journal.  ``progress`` is an optional :data:`ProgressCallback`.
    """
    if resume and journal is None:
        raise ValueError("resume requires a journal")
    owned: Optional[CampaignJournal] = None
    if journal is not None and not isinstance(journal, CampaignJournal):
        journal = owned = CampaignJournal(
            journal, spec.fingerprint(), resume=resume
        )
    try:
        done: Dict[int, DetectionOutcome] = (
            journal.done(spec.label) if journal is not None else {}
        )
        pending = [
            defect for defect in spec.defects if defect.index not in done
        ]
        on_outcome: Optional[Callable[[DetectionOutcome], None]] = None
        if journal is not None:
            on_outcome = functools.partial(journal.record, group=spec.label)
        executed: List[DetectionOutcome] = []
        if pending:
            executed = run_defects(
                spec.build_engine(),
                pending,
                spec.bus,
                on_outcome=on_outcome,
                progress=progress,
            )
    finally:
        if owned is not None:
            owned.close()
    resumed = [
        done[defect.index] for defect in spec.defects if defect.index in done
    ]
    outcomes = sorted(
        resumed + executed, key=lambda outcome: outcome.defect_index
    )
    registry = obs_runtime.registry()
    registry.counter("campaign.outcomes.executed").inc(len(executed))
    registry.counter("campaign.outcomes.resumed").inc(len(resumed))
    return CampaignResult(
        label=spec.label,
        outcomes=outcomes,
        executed=len(executed),
        resumed=len(resumed),
    )


__all__ = [
    "CampaignJournal",
    "CampaignResult",
    "CampaignSpec",
    "DetectionOutcome",
    "JournalError",
    "config_digest",
    "run_campaign",
    "run_defects",
]
