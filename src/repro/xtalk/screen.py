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

The vectorized work is :func:`first_mismatch`, one block scan that
computes the received word per ``(defect, transition)`` and reports
each defect's first transition whose word differs from a target.
:meth:`TraceScreen.screen` uses it with the driven words as targets:
unique transitions, in first-occurrence order, are reduced to aggressor
weight vectors once, per-defect thresholds (which only depend on each
defect's capacitance matrix) are computed in bulk, and batched matrix
products classify ``(defect, transition)`` pairs.  The transitions are
scanned in blocks of increasing size and a defect retires at the first
block that corrupts it; the first corrupted position inside that block
is its verdict.  Because first occurrences increase along the unique
list, this is the same verdict as a full scan, but most defects of a
corrupting library never see the later blocks.  The screened engine's
replay dedup uses the same scan with a recorded replay's received words
as targets.  :func:`decide_many` is the same vector kernel for one
defect: the received word of every transition of a list, which the
error model's batch hook gives a replay fast-forwarding through an
empty-memory sled.  Comparisons use a small epsilon band: a row with a
margin inside it goes to the scalar kernel, so a float summation-order
difference can never change an answer.

:meth:`TraceScreen.screen_one` is the scalar reference: one
:class:`TransitionKernel` scan over the deduplicated transitions with
early exit, bit-identical to the error model by construction.  The
screened engine uses it for defects it was never asked to
:meth:`~TraceScreen.screen` in bulk.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.soc.bus import BusDirection
from repro.xtalk.calibration import Calibration
from repro.xtalk.capacitance import CapacitanceSet
from repro.xtalk.defects import Defect
from repro.xtalk.kernel import TransitionKernel
from repro.xtalk.params import LN2, ElectricalParams

#: Relative half-width of the borderline band around every threshold
#: comparison in :func:`first_mismatch`.  float64 dot products over a
#: dozen terms are accurate to ~1e-15 relative, so 1e-9 is a generous
#: safety margin while keeping scalar fallbacks to (essentially) zero.
EPSILON = 1e-9

#: Transitions in the first block of a scan; each later block is twice
#: the size of the one before, so a scan costs O(log U) passes.
FIRST_BLOCK = 16

#: Memory bound, not a tuning knob: elements in one ``[defects, block,
#: wires]`` temporary of :func:`first_mismatch` (256 KiB of float64).
MAX_BLOCK_ELEMENTS = 32_768


#: ``CapacitanceSet -> (coupling [n, n], ground [n])`` float64 arrays.
#: Campaigns evaluate the same defect library against many programs, so
#: the list-of-lists -> ndarray conversion is paid once per defect, not
#: once per (defect, program).  Weak keys: entries die with their set.
_DEFECT_ARRAY_CACHE: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def _defect_arrays(caps: CapacitanceSet):
    cached = _DEFECT_ARRAY_CACHE.get(caps)
    if cached is None:
        cached = (
            np.array(caps.coupling, dtype=np.float64),
            np.array(caps.ground, dtype=np.float64),
        )
        _DEFECT_ARRAY_CACHE[caps] = cached
    return cached


class _Geometry:
    """Per-transition aggressor geometry of a transition list.

    The vector form of what :meth:`TransitionKernel.decide` derives per
    call: quiet aggressors weigh 1x, opposite-direction aggressors 2x,
    same-direction aggressors 0x, and stable victims see the signed
    injected charge of their switching neighbours.  Rows are
    transitions, columns wires.
    """

    __slots__ = (
        "previous", "driven", "direction_index", "powers", "switching",
        "high", "up", "weights_rising", "weights_falling", "signed",
    )

    def __init__(
        self, transitions: Sequence[Tuple[int, int, BusDirection]], width: int
    ):
        self.previous = np.array([t[0] for t in transitions], dtype=np.int64)
        self.driven = np.array([t[1] for t in transitions], dtype=np.int64)
        self.direction_index = np.array(
            [0 if t[2] is BusDirection.CPU_TO_MEM else 1 for t in transitions],
            dtype=np.int64,
        )
        self.powers = powers = 1 << np.arange(width, dtype=np.int64)
        self.switching = (
            (self.previous ^ self.driven)[:, None] & powers
        ) != 0  # [T, n]
        self.high = (self.driven[:, None] & powers) != 0  # [T, n]
        self.up = self.switching & self.high  # victims switching 0 -> 1
        up = self.up.astype(np.float64)
        down = self.switching.astype(np.float64) - up
        stable = 1.0 - up - down
        self.weights_rising = stable + 2.0 * down
        self.weights_falling = stable + 2.0 * up
        self.signed = up - down


class _Thresholds:
    """Per-defect thresholds in the capacitance domain, one row per
    capacitance set: the vector form of :class:`TransitionKernel`'s
    constructor."""

    __slots__ = ("coupling", "glitch_threshold", "eps_glitch", "slack")

    def __init__(
        self,
        caps: Sequence[CapacitanceSet],
        params: ElectricalParams,
        calibration: Calibration,
    ):
        margin_cap = np.array(
            [
                calibration.margin_for(direction)
                / (LN2 * params.r_for(direction) * 1e-15)
                for direction in (
                    BusDirection.CPU_TO_MEM,
                    BusDirection.MEM_TO_CPU,
                )
            ]
        )  # [2]
        scale = params.glitch_attenuation * params.vdd
        arrays = [_defect_arrays(c) for c in caps]
        self.coupling = coupling = np.stack([a[0] for a in arrays])  # [D, n, n]
        ground = np.stack([a[1] for a in arrays])  # [D, n]
        self.glitch_threshold = (
            calibration.v_th * (ground + coupling.sum(axis=2)) / scale
        )  # [D, n]
        self.eps_glitch = EPSILON * (np.abs(self.glitch_threshold) + 1.0)
        self.slack = margin_cap[None, :, None] - ground[:, None, :]  # [D, 2, n]


def _flip_block(
    geometry: _Geometry,
    thresholds: _Thresholds,
    start: int,
    stop: int,
    chunk: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Flipped-wire words and borderline flags of transitions
    ``start:stop`` for the defects ``chunk``, both ``[d, B]``.

    Every threshold comparison is made with an :data:`EPSILON` band; a
    row with any wire inside the band is borderline and its word must
    come from the scalar kernel.
    """
    switching = geometry.switching[start:stop]
    c = thresholds.coupling[chunk]
    # coupling is symmetric, so W @ coupling sums over neighbours j of
    # victim i as the kernel's loop does.
    load = np.where(
        geometry.up[start:stop],
        np.matmul(geometry.weights_rising[start:stop], c),
        np.matmul(geometry.weights_falling[start:stop], c),
    )  # [d, B, n]
    slack = thresholds.slack[chunk][:, geometry.direction_index[start:stop], :]
    delay_margin = load - slack
    eps_delay = EPSILON * (np.abs(slack) + 1.0)
    injected = np.matmul(geometry.signed[start:stop], c)
    glitch_margin = (
        np.where(geometry.high[start:stop], -injected, injected)
        - thresholds.glitch_threshold[chunk][:, None, :]
    )
    eps_glitch = thresholds.eps_glitch[chunk][:, None, :]
    flipped = np.where(
        switching, delay_margin > eps_delay, glitch_margin > eps_glitch
    )
    borderline = np.where(
        switching,
        np.abs(delay_margin) <= eps_delay,
        np.abs(glitch_margin) <= eps_glitch,
    ).any(axis=2)
    return flipped.astype(np.int64) @ geometry.powers, borderline


def first_mismatch(
    transitions: Sequence[Tuple[int, int, BusDirection]],
    targets: Sequence[int],
    defects: Sequence[Defect],
    params: ElectricalParams,
    calibration: Calibration,
) -> List[int]:
    """Each defect's first transition whose received word is not its target.

    For every defect, the kernel's received word is computed for
    ``transitions`` in order and compared with ``targets`` (one word per
    transition); the result is the position of the first difference, or
    ``-1`` when the defect reproduces every target.  The library screen
    asks with ``targets`` equal to the driven words (first corrupted
    transition); the engine's replay dedup asks with the words a recorded
    replay received (first disagreement with that run).

    The transitions are scanned in blocks of :data:`FIRST_BLOCK`, then
    twice that, and so on, and a defect is dropped at the first block
    that holds a difference, so a library that mostly differs early
    never pays for the later blocks.  Every threshold comparison is made
    with a :data:`EPSILON` band: a row with any wire inside the band is
    borderline, and its received word comes from the scalar
    :meth:`TransitionKernel.decide`, so the answer is exact.
    """
    first = np.full(len(defects), -1, dtype=np.int64)
    count = len(transitions)
    if not defects or not count:
        return first.tolist()
    width = defects[0].caps.wire_count
    geometry = _Geometry(transitions, width)
    expected_flips = geometry.driven ^ np.array(targets, dtype=np.int64)  # [T]
    thresholds = _Thresholds([d.caps for d in defects], params, calibration)

    max_block = max(FIRST_BLOCK, MAX_BLOCK_ELEMENTS // width)
    kernels: Dict[int, TransitionKernel] = {}  # borderline rows only
    active = np.arange(len(defects))
    start, block = 0, FIRST_BLOCK
    while start < count and active.size:
        stop = min(count, start + block)
        rows = max(1, MAX_BLOCK_ELEMENTS // ((stop - start) * width))
        for lo in range(0, active.size, rows):
            chunk = active[lo:lo + rows]
            flips, borderline = _flip_block(
                geometry, thresholds, start, stop, chunk
            )
            differs = flips != expected_flips[start:stop]  # [d, B]
            for row, column in zip(*np.nonzero(borderline)):
                index = chunk[row]
                if index not in kernels:
                    kernels[index] = TransitionKernel(
                        defects[index].caps, params, calibration
                    )
                position = start + column
                received = kernels[index].decide(*transitions[position])[0]
                differs[row, column] = received != targets[position]
            hit = differs.any(axis=1)
            first[chunk[hit]] = start + differs[hit].argmax(axis=1)
        active = active[first[active] < 0]
        start, block = stop, min(2 * block, max_block)
    return first.tolist()


def decide_many(
    transitions: Sequence[Tuple[int, int, BusDirection]],
    kernel: TransitionKernel,
    caps: CapacitanceSet,
    params: ElectricalParams,
    calibration: Calibration,
) -> List[int]:
    """The received word of every transition, for one capacitance set.

    The vector form of ``kernel.decide(...)[0]`` over a whole list, with
    the same geometry and thresholds :func:`first_mismatch` uses;
    ``kernel`` must be built from ``(caps, params, calibration)`` and
    judges the borderline rows, so every word equals the scalar one.
    A transition with ``previous == driven`` is received as driven.
    """
    count = len(transitions)
    if not count:
        return []
    width = caps.wire_count
    geometry = _Geometry(transitions, width)
    thresholds = _Thresholds([caps], params, calibration)
    only = np.zeros(1, dtype=np.int64)
    flips = np.empty(count, dtype=np.int64)
    block = max(1, MAX_BLOCK_ELEMENTS // width)
    for start in range(0, count, block):
        stop = min(count, start + block)
        words, borderline = _flip_block(geometry, thresholds, start, stop, only)
        flips[start:stop] = words[0]
        for column in np.flatnonzero(borderline[0]):
            position = start + int(column)
            previous, driven, direction = transitions[position]
            flips[position] = kernel.decide(previous, driven, direction)[0] ^ driven
    flips[geometry.previous == geometry.driven] = 0
    return (geometry.driven ^ flips).tolist()


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
        uniques: List[Tuple[int, int, BusDirection]] = []
        first_occurrence: List[int] = []
        cycles: List[int] = []
        seen = set()
        for index, transaction in enumerate(trace):
            previous = transaction.previous
            driven = transaction.driven
            if previous == driven:
                continue  # no transition, can never corrupt
            key = (previous, driven, transaction.direction)
            if key in seen:
                continue
            seen.add(key)
            uniques.append(key)
            first_occurrence.append(index)
            cycles.append(transaction.cycle)
        # Increasing by construction (first encounters are in trace
        # order), which is what lets the block scan retire defects early.
        self._uniques = uniques
        self._first_occurrence = first_occurrence
        self._cycles = cycles

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
        """Evaluate a single defect with the scalar kernel."""
        decide = TransitionKernel(
            defect.caps, self.params, self.calibration
        ).decide
        for position, (previous, driven, direction) in enumerate(self._uniques):
            if decide(previous, driven, direction)[0] != driven:
                return self._verdict(defect, position)
        return self._verdict(defect, -1)

    # -- vectorized library screen ------------------------------------------

    def screen(self, defects: Iterable[Defect]) -> List[ScreenVerdict]:
        """Evaluate every defect; one vectorized pass with early exit."""
        defects = list(defects)
        positions = first_mismatch(
            self._uniques, [driven for _, driven, _ in self._uniques],
            defects, self.params, self.calibration,
        )
        return [
            self._verdict(defect, position)
            for defect, position in zip(defects, positions)
        ]
