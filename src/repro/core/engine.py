"""Two-tier defect-simulation engines: exact replay and screen-then-replay.

The defect simulator's contract is per-defect :class:`DetectionOutcome`
values; *how* a defect is judged is an engine concern:

:class:`ExactEngine`
    One full cycle-accurate replay per defect with the crosstalk error
    model installed on the bus under test — the oracle every shortcut is
    tested against.

:class:`ScreenedEngine`
    Exploits the screening invariant (see :mod:`repro.xtalk.screen`):
    the system is deterministic and the error model is a pure function
    of each bus transition, so a defective run is cycle-identical to the
    golden run up to its first corrupted transaction.  The engine

    1. captures the golden run **once** with the full transaction trace
       of the bus under test,
    2. screens the whole library against that trace in one gather from
       the library's per-wire decision tables (built at :meth:`prepare`),
    3. skips simulation entirely for defects whose trace is clean
       (provably undetected — outcome identical to fault-free),
    4. groups the corrupting defects by their first corrupted
       transaction and replays one defect per behavior from reset: the
       fault-free prefix up to that transaction is stepped without a
       hook, and the hooked run starts just before it,
    5. and *dedups* the rest of the group against that replay in one
       pass: the replay's bus hook judges every transition from the
       replayed defect's own decision-table row (one
       :class:`~repro.xtalk.screen.TransitionMemo` per table names the
       columns a transition reads) and records the ``transition ->
       received`` decisions its run actually used (a map of the ones
       judged one at a time, plus the arrays of every sled it jumped),
       :func:`~repro.xtalk.screen.first_mismatch` tests every pending
       defect of the group against them in one gather from the table
       rows :meth:`ScreenedEngine.prepare` learned, and each
       defect whose kernel agrees on every one provably reproduces the
       run cycle for cycle, so it gets the replay's outcome without
       simulating (random capacitance perturbations cluster heavily —
       thousands of corrupting defects typically collapse to a few
       dozen behaviors).

    The outcomes are bit-identical to :class:`ExactEngine` by
    construction: clean defects cannot diverge, a deduped defect's run
    is forced through the same decisions as the recorded run it matched
    (the bus hook is the *only* path a defect influences the system
    through), and a replay's unhooked prefix ends before the first
    cycle at which the defective run can differ from the golden one.

Engines do not do their own per-defect observability — the campaign
loop (:func:`repro.core.campaign.run_defects`) does — but the screened
engine counts its
triage decisions (``coverage.engine.screened_clean`` /
``coverage.engine.replay_deduped`` / ``coverage.engine.replayed``)
through the null-safe registry so campaign reports can show how much
work screening saved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Protocol, Tuple

import numpy as np

from repro.core import signature
from repro.core.program_builder import SelfTestProgram
from repro.core.signature import (
    GoldenReference,
    ResponseCheck,
    build_base_image,
    check_response,
    make_system,
)
from repro.obs import runtime as obs_runtime
from repro.soc.bus import Bus, BusDirection, BusTransaction
from repro.soc.system import CpuMemorySystem
from repro.xtalk.calibration import Calibration
from repro.xtalk.defects import Defect
from repro.xtalk.error_model import CrosstalkErrorModel
from repro.xtalk.params import ElectricalParams
from repro.xtalk.screen import (
    DIRECTION_INDEX,
    ScreenVerdict,
    TraceScreen,
    TransitionMemo,
    decide_many,
    decision_tables,
    first_mismatch,
)


def _bus_of(system: CpuMemorySystem, bus: str) -> Bus:
    return system.address_bus if bus == "addr" else system.data_bus


@dataclass(frozen=True)
class GoldenCapture:
    """One golden run's reference and bus trace."""

    golden: GoldenReference
    trace: List[BusTransaction]


def _count_golden_cycles(cycles: int) -> None:
    """Tally fault-free simulation work (``coverage.engine.golden_cycles``)."""
    obs_runtime.registry().counter("coverage.engine.golden_cycles").inc(cycles)


def capture_golden_with_trace(
    program: SelfTestProgram,
    bus: str,
    base_image: Optional[bytes] = None,
) -> GoldenCapture:
    """Run ``program`` fault-free, recording the trace of ``bus``.

    The run is :meth:`CpuMemorySystem.run` with a trace observer on the
    bus, so the captured trace is exactly what every defective replay
    reproduces up to its first corruption.

    A plain :func:`~repro.core.signature.capture_golden` probe runs
    first (negligible against a library-sized campaign).  It raises the
    ``RuntimeError`` for a program that does not halt, naming the end it
    hit (proven loop or exhausted budget), and bounds the traced run.
    """
    probe = signature.capture_golden(program)
    _count_golden_cycles(probe.cycles)
    system = make_system(program, base_image)
    trace: List[BusTransaction] = []
    _bus_of(system, bus).add_observer(trace.append)
    result = system.run(entry=program.entry, max_cycles=probe.cycles)
    if not result.halted:
        raise RuntimeError("traced golden run diverged from its probe")
    _count_golden_cycles(result.cycles)
    golden = GoldenReference(
        snapshot=system.memory.snapshot(),
        cycles=result.cycles,
        instructions=result.instructions,
    )
    return GoldenCapture(golden=golden, trace=trace)


class ModelTallies(Protocol):
    """The error-model tallies a simulated check leaves behind."""

    def stats(self) -> Dict[str, int]:
        """``invocations``, ``corruptions``, ``glitch_errors`` and
        ``delay_errors`` of the run, keyed by metric suffix."""
        ...


class SimulationEngine:
    """Judges one defect at a time against one self-test program.

    Contract shared by every engine:

    * :attr:`golden` is the fault-free reference of the program.
    * :meth:`check` returns the :class:`ResponseCheck` the paper's
      external tester would produce for the defective chip — engines
      must be outcome-equivalent, whatever shortcut they take.
    * :attr:`last_model` holds the tallies of the error model that
      judged the most recent :meth:`check` call's run, or ``None`` when
      the engine judged the defect without simulating (callers roll its
      statistics into observability when present).
    """

    name: str
    golden: GoldenReference
    last_model: Optional[ModelTallies]

    def check(self, defect: Defect) -> ResponseCheck:
        raise NotImplementedError


class ExactEngine(SimulationEngine):
    """One full replay per defect (the original simulator behavior).

    It simulates its own golden run, so the oracle shares no state with
    the screened path.
    """

    name = "exact"

    def __init__(
        self,
        program: SelfTestProgram,
        params: ElectricalParams,
        calibration: Calibration,
        bus: str,
    ):
        self.program = program
        self.params = params
        self.calibration = calibration
        self.bus = bus
        self._base_image = build_base_image(program)
        self.golden = signature.capture_golden(program)
        _count_golden_cycles(self.golden.cycles)
        self.last_model = None

    def check(self, defect: Defect) -> ResponseCheck:
        system = make_system(self.program, self._base_image)
        model = CrosstalkErrorModel(defect.caps, self.params, self.calibration)
        _bus_of(system, self.bus).install_corruption_hook(model.corrupt)
        result = system.run(
            entry=self.program.entry, max_cycles=self.golden.max_cycles
        )
        self.last_model = model
        return check_response(self.golden, system, result.halted)


#: A fault-free run is indistinguishable from golden by definition.
CLEAN_CHECK = ResponseCheck(detected=False, timed_out=False, mismatches=0)


class _RecordingHook:
    """A screened replay's bus hook: one defect's decisions from its
    decision-table row, recorded for dedup.

    A transition is judged from the defect's flip row ``table[row]``:
    the table's :class:`~repro.xtalk.screen.TransitionMemo` names the
    columns it reads, and every set entry flips its wire, which equals
    :meth:`~repro.xtalk.error_model.CrosstalkErrorModel.corrupt` word
    for word and tally for tally.  :attr:`decisions` maps every
    transition the run judged one at a time (``previous != driven``:
    no-transition words corrupt for no set) to the word received.  The
    batch form (``corrupt_many`` / ``consume``) lets the system
    fast-forward through a sled; it keeps each consumed sled's arrays
    in :attr:`sleds`, never the rest of a predicted sled, so
    :meth:`recorded` holds exactly the decisions a stepped run makes
    (some of them more than once).
    """

    __slots__ = (
        "decisions", "sleds", "invocations", "corruptions",
        "glitch_errors", "delay_errors", "_memo", "_row", "_flips",
    )

    def __init__(self, memo: TransitionMemo, row: int):
        self._memo = memo
        self._row = memo.table[row]
        self._flips = self._row.tobytes()
        self.decisions: Dict[Tuple[int, int, BusDirection], int] = {}
        self.sleds: List[
            Tuple[np.ndarray, np.ndarray, BusDirection, np.ndarray]
        ] = []
        self.invocations = 0
        self.corruptions = 0
        self.glitch_errors = 0
        self.delay_errors = 0

    def __call__(
        self, previous: int, driven: int, direction: BusDirection
    ) -> int:
        self.invocations += 1
        if previous == driven:
            return driven
        key = (previous, driven, direction)
        received = self.decisions.get(key)
        if received is None:
            received = driven
            flips = self._flips
            for bit, column in self._memo[key]:
                if flips[column]:
                    received ^= bit
            self.decisions[key] = received
        if received != driven:
            # A flipped switching wire is a delay error (the receiver
            # sampled its old value); a flipped stable wire a glitch.
            flipped = received ^ driven
            delays = bin(flipped & (previous ^ driven)).count("1")
            self.corruptions += 1
            self.glitch_errors += bin(flipped).count("1") - delays
            self.delay_errors += delays
        return received

    def corrupt_many(
        self, previous: np.ndarray, driven: np.ndarray, direction: BusDirection
    ) -> np.ndarray:
        return decide_many(previous, driven, direction, self._row)

    def consume(
        self,
        previous: np.ndarray,
        driven: np.ndarray,
        direction: BusDirection,
        received: np.ndarray,
    ) -> None:
        self.sleds.append((previous, driven, direction, received))
        self.invocations += len(received)
        flips = received ^ driven
        corruptions = int(np.count_nonzero(flips))
        if corruptions:
            flipped = int(np.bitwise_count(flips).sum())
            delays = int(np.bitwise_count(flips & (previous ^ driven)).sum())
            self.corruptions += corruptions
            self.glitch_errors += flipped - delays
            self.delay_errors += delays

    def stats(self) -> Dict[str, int]:
        """The tallies, keyed by metric suffix (see :class:`ModelTallies`)."""
        return {
            "invocations": self.invocations,
            "corruptions": self.corruptions,
            "glitch_errors": self.glitch_errors,
            "delay_errors": self.delay_errors,
        }

    def recorded(self) -> List[np.ndarray]:
        """``[previous, driven, directions, received]``: every decision
        the run used, as int64 arrays (see
        :func:`~repro.xtalk.screen.first_mismatch`)."""
        decisions = self.decisions
        old, new, directions = zip(*decisions) if decisions else ((), (), ())
        chunks = [(
            np.array(old, dtype=np.int64),
            np.array(new, dtype=np.int64),
            np.array([DIRECTION_INDEX[d] for d in directions], dtype=np.int64),
            np.array(list(decisions.values()), dtype=np.int64),
        )]
        chunks += [
            (previous, driven, np.full(len(driven), DIRECTION_INDEX[direction]),
             received)
            for previous, driven, direction, received in self.sleds
        ]
        return [np.concatenate(column) for column in zip(*chunks)]


class ScreenedEngine(SimulationEngine):
    """Screen the library against the golden trace; replay only divergers.

    The engine captures its golden run and trace when it is built.
    :attr:`verdicts` maps every defect screened so far to its verdict.
    The engine learns its library from :meth:`prepare`; only prepared
    defects are deduplicated against a replay of their group.
    """

    name = "screened"

    def __init__(
        self,
        program: SelfTestProgram,
        params: ElectricalParams,
        calibration: Calibration,
        bus: str,
    ):
        self.program = program
        self.params = params
        self.calibration = calibration
        self.bus = bus
        self._base_image = build_base_image(program)
        capture = capture_golden_with_trace(
            program, bus, base_image=self._base_image
        )
        self.golden = capture.golden
        self.screen = TraceScreen(capture.trace, params, calibration)
        self._scratch = make_system(program, self._base_image)
        self.verdicts: Dict[int, ScreenVerdict] = {}
        # defect index -> (decision table, its row), for every prepared
        # corrupting defect.
        self._rows: Dict[int, Tuple[np.ndarray, int]] = {}
        # first corrupted trace index -> prepared defects of that group
        # not judged yet, with their rows, in library order.
        self._pending: Dict[int, Dict[int, Tuple[np.ndarray, int]]] = {}
        # id(table) -> its transition memo, shared by every replay of a
        # defect of that table (the memo keeps the table, so its id).
        self._memos: Dict[int, TransitionMemo] = {}
        # defect index -> outcome of a replay it provably reproduces.
        self._deduped: Dict[int, ResponseCheck] = {}
        self.last_model = None

    # -- screening ----------------------------------------------------------

    def prepare(self, defects: Iterable[Defect]) -> None:
        """Screen, in one vectorized pass, every defect not yet in
        :attr:`verdicts`, and group the corrupting ones by their first
        corrupted transaction for replay dedup.  :meth:`check` prepares
        a defect it meets unprepared on its own, so without a library
        ``prepare`` every corrupting defect is replayed.  Raises
        ``ValueError`` for a defect that couples wires that are not
        neighbours (the decision tables cannot describe it;
        :class:`ExactEngine` can)."""
        defects = list(defects)
        missing = [
            defect for defect in defects if defect.index not in self.verdicts
        ]
        for defect, verdict in zip(missing, self.screen.screen(missing)):
            self.verdicts[defect.index] = verdict
        pending = [
            defect for defect in defects
            if not self.verdicts[defect.index].clean
            and defect.index not in self._deduped
        ]
        if not pending:
            return
        table, rows = decision_tables(
            [defect.caps for defect in pending], self.params, self.calibration
        )
        for defect, row in zip(pending, rows.tolist()):
            first_index = self.verdicts[defect.index].first_index
            group = self._pending.setdefault(first_index, {})
            group[defect.index] = self._rows[defect.index] = (table, row)

    def _memo(self, table: np.ndarray) -> TransitionMemo:
        """The transition memo of ``table``, one per engine."""
        memo = self._memos.get(id(table))
        if memo is None:
            memo = self._memos[id(table)] = TransitionMemo(table)
        return memo

    # -- judging ------------------------------------------------------------

    def check(self, defect: Defect) -> ResponseCheck:
        verdict = self.verdicts.get(defect.index)
        if verdict is None:
            self.prepare([defect])
            verdict = self.verdicts[defect.index]
        registry = obs_runtime.registry()
        if verdict.clean:
            # Provably identical to the fault-free run: no simulation.
            self.last_model = None
            registry.counter("coverage.engine.screened_clean").inc()
            return CLEAN_CHECK
        known = self._deduped.get(defect.index)
        if known is not None:
            # Provably identical to an already-simulated defective run.
            self.last_model = None
            registry.counter("coverage.engine.replay_deduped").inc()
            return known
        group = self._pending.get(verdict.first_index, {})
        group.pop(defect.index, None)
        registry.counter("coverage.engine.replayed").inc()
        # The fault-free prefix, stepped without a hook.  A transaction
        # stamped with cycle *c* happens during the step that advances
        # the clock to *c*, so stopping at ``c - 1`` precedes the first
        # corrupted one.
        system = self._scratch
        system.memory.restore(self._base_image)
        system.reset(self.program.entry)
        while system.cycle < verdict.first_cycle - 1:
            system.step()
        table, row = self._rows[defect.index]
        hook = _RecordingHook(self._memo(table), row)
        bus = _bus_of(system, self.bus)
        bus.install_corruption_hook(hook)
        try:
            result = system.resume(max_cycles=self.golden.max_cycles)
        finally:
            bus.install_corruption_hook(None)
        self.last_model = hook
        outcome = check_response(self.golden, system, result.halted)
        if group:
            # Agreement must hold on *every* transition the recorded run
            # pushed through its hook, including the ones it left
            # intact: a defect that corrupts one more of them diverges
            # there.  A defect that agrees on all of them drives the
            # deterministic system through this run cycle for cycle.
            # Pending defects prepared together share one table.
            by_table: Dict[int, Tuple[np.ndarray, List[int], List[int]]] = {}
            for index, (table, row) in group.items():
                _, indices, rows = by_table.setdefault(id(table), (table, [], []))
                indices.append(index)
                rows.append(row)
            recorded = hook.recorded()
            for table, indices, rows in by_table.values():
                positions = first_mismatch(
                    *recorded, table, np.array(rows, dtype=np.intp)
                )
                for index, position in zip(indices, positions.tolist()):
                    if position < 0:
                        self._deduped[index] = outcome
                        del group[index]
        return outcome


__all__ = [
    "GoldenCapture",
    "ModelTallies",
    "SimulationEngine",
    "ExactEngine",
    "ScreenedEngine",
    "capture_golden_with_trace",
]
