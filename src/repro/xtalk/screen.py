"""Whole-library trace screening against a golden transaction trace.

The defect simulation invariant this module exploits: the cycle-accurate
system is deterministic and the error model is a pure function of the
transition ``(previous, driven, direction)``.  By induction over the
transaction stream, a defective run is **cycle-identical** to the
fault-free golden run up to (and excluding) the first golden transaction
whose transition the defect's kernel corrupts.  Therefore:

* a defect that corrupts *no* transaction of the golden trace provably
  behaves identically to the fault-free run — no simulation needed;
* a defect whose first corrupted transaction is at cycle *c* runs the
  fault-free prefix up to *c*, so a replay needs its hook only from
  there (see :mod:`repro.core.engine`).

A :class:`TraceScreen` evaluates a whole
:class:`~repro.xtalk.defects.DefectLibrary` against one captured trace
and returns, per defect, the index/cycle of its first corrupted
transaction or a ``clean`` verdict.

The vectorized work reads per-wire **decision tables**.  Every bus here
couples nearest neighbours only (:attr:`CapacitanceSet.reach` is 1), so
the kernel's decision for wire *i* depends only on the direction and the
previous and driven bits of wires *i*-1, *i* and *i*+1: one of 64
windows.  :func:`decision_tables` evaluates a library once over all
``2 directions x n wires x 64 windows`` with the kernel's own float
operations in the kernel's own order, so every entry equals
:meth:`TransitionKernel.decide` bit for bit.  Transitions travel as
int64 word arrays, and a transition's table columns are two gathers
from window tables over the bus's whole word space
(:func:`_word_windows`, 4K words for the 12-wire address bus).
:func:`first_mismatch` scatters a transition list's ``(window, required
flip)`` pairs (at most ``2 x 2 x n x 64``) to their first occurrence,
gathers the present ones for every defect and reports each defect's
first transition whose received word differs from a target: the driven
words for :meth:`TraceScreen.screen`, a recorded replay's received
words for the engine's replay dedup.  :func:`decide_many` reads one
set's received words for an array, the batch form of a screened
replay's bus hook for a run fast-forwarding through an empty-memory
sled.  A :class:`TransitionMemo` gives the same hook, one transition at
a time, the columns a transition reads from a table, so a replay judges
each transition from its defect's flip row without a kernel.

:meth:`TraceScreen.screen_one` is the scalar reference: one
:class:`TransitionKernel` scan over the deduplicated transitions with
early exit, bit-identical to the error model by construction.  Tests
hold :meth:`~TraceScreen.screen` to it; the engines never call it.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import product
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.soc.bus import BusDirection
from repro.xtalk.calibration import Calibration
from repro.xtalk.capacitance import CapacitanceSet
from repro.xtalk.defects import Defect
from repro.xtalk.kernel import TransitionKernel
from repro.xtalk.params import LN2, ElectricalParams

#: ``(left, right)`` neighbour weights of a switching victim's load
#: (``2 * cc`` is the kernel's ``cc + cc``, exactly) and signs of a
#: stable victim's injected charge.
_LOAD_WEIGHTS = np.array(list(product((0.0, 1.0, 2.0), repeat=2)))
_CHARGE_SIGNS = np.array(list(product((-1.0, 0.0, 1.0), repeat=2)))


def _window_outcomes() -> np.ndarray:
    """For each window ``previous bits << 3 | driven bits`` (bit 0 wire
    *i*-1, bit 1 wire *i*, bit 2 wire *i*+1), the column of
    :func:`_build`'s outcomes that decides it: a delay load ``0..8``, a
    glitch on a stable 0 ``9..17``, on a stable 1 ``18..26``."""
    outcomes = []
    for window in range(64):
        changed, after = (window >> 3) ^ (window & 7), window & 7
        high = after >> 1 & 1
        moved = [(changed >> b & 1, after >> b & 1) for b in (0, 2)]
        if changed & 2:  # switching victim: 2x opposite, 0x same, 1x quiet
            left, right = ((2 if up != high else 0) if m else 1 for m, up in moved)
            outcomes.append(left * 3 + right)
        else:  # stable victim: +1 rising, -1 falling, 0 quiet
            left, right = ((1 if up else -1) if m else 0 for m, up in moved)
            outcomes.append(9 + 9 * high + (left + 1) * 3 + right + 1)
    return np.array(outcomes)


_WINDOW_OUTCOMES = _window_outcomes()


def _build(
    caps: Sequence[CapacitanceSet],
    params: ElectricalParams,
    calibration: Calibration,
) -> np.ndarray:
    """The ``[sets, 2 * n * 64]`` flip table of ``caps``.

    Each term is the kernel's: a load is ``(0.0 + left term) + right
    term``, an injected charge ``(0.0 +- left) +- right``, the glitch
    threshold ``v_th * (ground + net) / scale`` with ``net`` exactly
    ``left + right``, and the delay slack ``margin_cap - ground``.
    Adding or scaling a zero, or multiplying by 1 or 2, is exact, so the
    vector form rounds exactly where the scalar loop does.
    """
    for c in caps:
        if c.reach > 1:
            i, j = next(
                (i, j) for i, row in enumerate(c.coupling)
                for j, value in enumerate(row) if value and abs(i - j) > 1
            )
            raise ValueError(
                f"wires {i} and {j} are coupled; decision tables need "
                "nearest-neighbour coupling only"
            )
    count, width = len(caps), caps[0].wire_count
    if width > MAX_WIRES:
        raise ValueError(
            f"a {width}-wire bus is wider than the {MAX_WIRES} wires "
            "decision tables serve"
        )
    left = np.zeros((count, width))
    right = np.zeros((count, width))
    if width > 1:
        left[:, 1:] = [
            [row[i - 1] for i, row in enumerate(c.coupling) if i] for c in caps
        ]
        right[:, :-1] = [
            [row[i + 1] for i, row in enumerate(c.coupling[:-1])] for c in caps
        ]
    ground = np.array([c.ground for c in caps], dtype=np.float64)
    margin_cap = np.array([
        calibration.margin_for(direction)
        / (LN2 * params.r_for(direction) * 1e-15)
        for direction in (BusDirection.CPU_TO_MEM, BusDirection.MEM_TO_CPU)
    ])
    slack = margin_cap[None, :, None] - ground[:, None, :]  # [m, 2, n]
    scale = params.glitch_attenuation * params.vdd
    threshold = (calibration.v_th * (ground + (left + right)) / scale)[..., None]
    left, right = left[..., None], right[..., None]
    # One [m, n, 9] float buffer at a time keeps the build's peak memory
    # low; ``-x > t`` is ``x < -t`` exactly.
    sums = _LOAD_WEIGHTS[:, 0] * left
    sums += _LOAD_WEIGHTS[:, 1] * right
    delay = sums[:, None] > slack[..., None]  # [m, 2, n, 9]
    np.multiply(_CHARGE_SIGNS[:, 0], left, out=sums)
    sums += _CHARGE_SIGNS[:, 1] * right
    glitch = np.concatenate([sums > threshold, sums < -threshold], -1)
    del sums
    outcomes = np.concatenate(
        [delay, np.broadcast_to(glitch[:, None], (count, 2, width, 18))], -1
    )  # [m, 2, n, 27]
    return outcomes.take(_WINDOW_OUTCOMES, axis=-1).reshape(count, -1)


#: ``id(set) -> (weak reference to the set, params, calibration, table,
#: row)``: the set's flip row is ``table[row]``.  Sets built together
#: share one table, so a call over a library gathers from one matrix.
#: Keyed by identity because a library-sized lookup runs on every dedup
#: call; the weak reference tells a live set from a reused id, and each
#: build drops the entries of dead sets.
_TABLES: Dict[int, tuple] = {}


def decision_tables(
    caps: Sequence[CapacitanceSet],
    params: ElectricalParams,
    calibration: Calibration,
) -> Tuple[np.ndarray, np.ndarray]:
    """``(table, rows)``: ``table[rows[k]]`` is the flip row of
    ``caps[k]``, indexed by ``(direction * n + wire) * 64 + window``
    (direction 0 is ``CPU_TO_MEM``).

    The rows come from the cache when one earlier call built them all
    together with the same ``params`` and ``calibration``; otherwise one
    new table is built for all of ``caps``.  Raises ``ValueError`` when
    a set couples wires that are not neighbours.
    """
    entries = [_TABLES.get(id(c)) for c in caps]
    first = entries[0]
    if (
        first is not None
        and first[1] is params
        and first[2] is calibration
        and all(
            entry is not None and entry[3] is first[3] and entry[0]() is c
            for entry, c in zip(entries, caps)
        )
    ):
        return first[3], np.array([entry[4] for entry in entries], dtype=np.intp)
    table = _build(caps, params, calibration)
    for key in [key for key, entry in _TABLES.items() if entry[0]() is None]:
        del _TABLES[key]
    for row, c in enumerate(caps):
        _TABLES[id(c)] = (weakref.ref(c), params, calibration, table, row)
    return table, np.arange(len(caps))


#: Each direction's index in a flip row (see :func:`decision_tables`).
DIRECTION_INDEX = {BusDirection.CPU_TO_MEM: 0, BusDirection.MEM_TO_CPU: 1}

#: The widest bus the decision tables serve: :func:`_word_windows`
#: spans every word of the bus.
MAX_WIRES = 16

#: ``width -> (before, after)``, see :func:`_word_windows`.
_WORD_WINDOWS: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}


def _word_windows(width: int) -> Tuple[np.ndarray, np.ndarray]:
    """Every ``width``-bit word's ``[n]`` windows, as table-column
    parts: ``before[previous] | after[driven]`` is a ``CPU_TO_MEM``
    transition's column at each wire (``MEM_TO_CPU`` adds ``n * 64``).

    A wire's window is bits *i*-1 .. *i*+1 of the word, so ``after`` is
    that 3-bit field and ``before`` holds it shifted over the driven
    field, plus the wire's block ``i * 64``.  Built once per width: 4K
    words for the 12-wire address bus.
    """
    tables = _WORD_WINDOWS.get(width)
    if tables is None:
        words = np.arange(1 << width, dtype=np.int32) << 1
        after = np.empty((words.size, width), dtype=np.int16)
        for wire in range(width):
            after[:, wire] = (words >> wire) & 7
        before = after << 3
        before |= np.arange(width, dtype=np.int16) << 6
        tables = _WORD_WINDOWS[width] = (before, after)
    return tables


def _columns(previous: np.ndarray, driven: np.ndarray, width: int) -> np.ndarray:
    """The ``[T, n]`` ``CPU_TO_MEM`` table columns of transitions
    between ``width``-bit words: each transition's window at each wire."""
    before, after = _word_windows(width)
    return before.take(previous, axis=0) | after.take(driven, axis=0)


def first_mismatch(
    previous: np.ndarray,
    driven: np.ndarray,
    directions: np.ndarray,
    targets: np.ndarray,
    table: np.ndarray,
    rows: np.ndarray,
) -> np.ndarray:
    """Each set's first transition whose received word is not its target.

    The transitions are the int64 arrays ``previous``, ``driven`` and
    ``directions`` (:data:`DIRECTION_INDEX` values); the sets are
    ``table[rows]`` (see :func:`decision_tables`).  For every set, the
    kernel's received word is computed for the transitions in order and
    compared with ``targets`` (one word per transition); the result is
    the position of the first difference, or ``-1`` when the set
    reproduces every target.  The library screen asks with ``targets``
    equal to the driven words (first corrupted transition); the engine's
    replay dedup asks with the words a recorded replay received (first
    disagreement with that run).

    Each ``(transition, wire)`` is a table column plus the flip its
    target requires: one of ``2 x 2 x n x 64`` pairs.  Only the first
    occurrence of each pair can be a set's first mismatch, so one
    scatter finds every present pair's first occurrence, the present
    pairs, sorted by it, are gathered once for every set, and a set's
    first mismatching pair gives its position.  A transition with
    ``previous == driven`` is received as driven by every set.
    """
    first = np.full(len(rows), -1, dtype=np.int64)
    moving = np.flatnonzero(previous != driven)
    if moving.size and first.size:
        width = table.shape[1] >> 7
        shifts = np.arange(width)
        old, new = previous[moving], driven[moving]
        required = ((new ^ targets[moving])[:, None] >> shifts) & 1
        columns = _columns(old, new, width) + (
            directions[moving] * (width << 6)
        )[:, None]
        pairs = ((columns << 1) | required).ravel()
        # seen[pair]: the pair's first index in ``pairs``, whose
        # transition is ``moving[index // width]``.
        seen = np.full(width << 8, pairs.size, dtype=np.int64)
        np.minimum.at(seen, pairs, np.arange(pairs.size))
        present = np.flatnonzero(seen < pairs.size)
        present = present[np.argsort(seen[present])]
        at = moving[seen[present] // width]
        # [D, K] bool: two ``take`` calls gather faster than one fancy index.
        mismatch = table.take(rows, axis=0).take(present >> 1, axis=1)
        mismatch ^= (present & 1).astype(bool)
        first = np.where(mismatch.any(axis=1), at[mismatch.argmax(axis=1)], -1)
    stuck = np.flatnonzero((previous == driven) & (targets != driven))
    if stuck.size:
        first[(first < 0) | (first > stuck[0])] = stuck[0]
    return first


def decide_many(
    previous: np.ndarray,
    driven: np.ndarray,
    direction: BusDirection,
    row: np.ndarray,
) -> np.ndarray:
    """The received word of every transition, for one capacitance set.

    ``previous`` and ``driven`` are int64 arrays of transitions made in
    one ``direction``; ``row`` is the set's flip row (one row of
    :func:`decision_tables`).  The table form of ``TransitionKernel(caps,
    params, calibration).decide(...)[0]``: one gather from the row,
    which equals that kernel entry for entry.  A transition with
    ``previous == driven`` is received as driven.
    """
    width = row.size >> 7
    block = DIRECTION_INDEX[direction] * (width << 6)
    flips = row[block:block + (width << 6)].take(_columns(previous, driven, width))
    flips[previous == driven] = False
    return driven ^ (flips @ (1 << np.arange(width)))


class TransitionMemo(dict):
    """``(previous, driven, direction) -> ((wire bit, column), ...)``
    for one decision table.

    An entry lists, for every wire, the flip-row column the transition
    reads (see :func:`decision_tables`), but only the columns some row
    of :attr:`table` can flip (``table.any(axis=0)``); a wire no row can
    flip there is received as driven by every set of the table.  So
    ``driven`` XOR the bits of the entry whose ``row[column]`` is set is
    ``TransitionKernel(caps, ...).decide(...)[0]`` for the set of any
    row, whatever the physics or calibration that built the table.
    Entries are built on first lookup and serve every row, so a
    transition judged for one defect is not worked out again for the
    next.
    """

    __slots__ = ("table", "_live", "_width")

    def __init__(self, table: np.ndarray):
        super().__init__()
        self.table = table
        self._live = table.any(axis=0).tobytes()
        self._width = table.shape[1] >> 7

    def __missing__(
        self, key: Tuple[int, int, BusDirection]
    ) -> Tuple[Tuple[int, int], ...]:
        previous, driven, direction = key
        before, after = _word_windows(self._width)
        block = DIRECTION_INDEX[direction] * (self._width << 6)
        live = self._live
        entry = self[key] = tuple(
            (1 << wire, column)
            for wire, column in enumerate(
                (before[previous] + (after[driven] + block)).tolist()
            )
            if live[column]
        )
        return entry


@dataclass(frozen=True)
class ScreenVerdict:
    """Screening result for one defect against one golden trace.

    ``clean`` means no transaction of the trace is corrupted — the
    defective run is provably identical to the fault-free run.
    Otherwise ``first_index``/``first_cycle`` locate the first corrupted
    transaction (trace position and bus cycle).
    """

    defect_index: int
    clean: bool
    first_index: Optional[int] = None
    first_cycle: Optional[int] = None


class TraceScreen:
    """Screens defect libraries against one golden transaction trace.

    Parameters
    ----------
    trace:
        The golden run's transactions of the bus under test, in order.
        Any objects with ``previous``, ``driven``, ``direction`` and
        ``cycle`` attributes work (e.g.
        :class:`~repro.soc.bus.BusTransaction`).
    params / calibration:
        Electrical parameters and nominal-bus thresholds, shared with
        the error model so screen and replay agree.
    """

    def __init__(
        self,
        trace: Sequence[object],
        params: ElectricalParams,
        calibration: Calibration,
    ):
        self.params = params
        self.calibration = calibration
        self.trace_length = len(trace)
        # Deduplicate: identical transitions corrupt identically, so the
        # kernel only ever needs to judge each unique (previous, driven,
        # direction) triple once.  first_occurrence maps each unique
        # transition to its earliest trace position; the first corrupted
        # transaction of a defect is then the minimum first occurrence
        # over its corrupted uniques.
        seen: Dict[Tuple[int, int, BusDirection], int] = {}
        for index, transaction in enumerate(trace):
            previous, driven = transaction.previous, transaction.driven
            if previous != driven:  # a non-transition never corrupts
                seen.setdefault((previous, driven, transaction.direction), index)
        # Increasing by construction (first encounters are in trace
        # order), so the first corrupted unique is the first corrupted
        # transaction.
        self._uniques = list(seen)
        self._first_occurrence = list(seen.values())
        self._cycles = [trace[index].cycle for index in self._first_occurrence]
        self._previous, self._driven, self._directions = np.array(
            [
                (previous, driven, DIRECTION_INDEX[direction])
                for previous, driven, direction in self._uniques
            ],
            dtype=np.int64,
        ).reshape(-1, 3).T.copy()

    @property
    def unique_transitions(self) -> int:
        """Distinct corruptible transitions in the trace."""
        return len(self._uniques)

    def _verdict(self, defect: Defect, position: int) -> ScreenVerdict:
        """Verdict for ``defect`` whose first corrupted unique is
        ``position`` (``-1``: none)."""
        if position < 0:
            return ScreenVerdict(defect_index=defect.index, clean=True)
        return ScreenVerdict(
            defect_index=defect.index,
            clean=False,
            first_index=self._first_occurrence[position],
            first_cycle=self._cycles[position],
        )

    # -- scalar reference ---------------------------------------------------

    def screen_one(self, defect: Defect) -> ScreenVerdict:
        """Evaluate a single defect with the scalar kernel (the
        reference :meth:`screen` is tested against)."""
        decide = TransitionKernel(
            defect.caps, self.params, self.calibration
        ).decide
        for position, (previous, driven, direction) in enumerate(self._uniques):
            if decide(previous, driven, direction)[0] != driven:
                return self._verdict(defect, position)
        return self._verdict(defect, -1)

    # -- vectorized library screen ------------------------------------------

    def screen(self, defects: Iterable[Defect]) -> List[ScreenVerdict]:
        """Evaluate every defect; one table gather for the library."""
        defects = list(defects)
        if not defects:
            return []
        table, rows = decision_tables(
            [defect.caps for defect in defects], self.params, self.calibration
        )
        positions = first_mismatch(
            self._previous, self._driven, self._directions, self._driven,
            table, rows,
        )
        return [
            self._verdict(defect, position)
            for defect, position in zip(defects, positions.tolist())
        ]
