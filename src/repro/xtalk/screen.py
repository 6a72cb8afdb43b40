"""Whole-library trace screening against a golden transaction trace.

The defect simulation invariant this module exploits: the cycle-accurate
system is deterministic and the error model is a pure function of the
transition ``(previous, driven, direction)``.  By induction over the
transaction stream, a defective run is **cycle-identical** to the
fault-free golden run up to (and excluding) the first golden transaction
whose transition the defect's kernel corrupts.  Therefore:

* a defect that corrupts *no* transaction of the golden trace provably
  behaves identically to the fault-free run — no simulation needed;
* a defect whose first corrupted transaction is at cycle *c* can be
  replayed from any fault-free checkpoint taken before *c* (see
  :mod:`repro.core.engine`).

A :class:`TraceScreen` evaluates a whole
:class:`~repro.xtalk.defects.DefectLibrary` against one captured trace
and returns, per defect, the index/cycle of its first corrupted
transaction or a ``clean`` verdict.

:meth:`TraceScreen.screen` is vectorized: unique transitions are reduced
to aggressor weight vectors once, per-defect thresholds (which only
depend on each defect's capacitance matrix) are computed in bulk, and
batched matrix products classify ``(defect, transition)`` pairs.  The
unique transitions are scanned in blocks of increasing size, in
first-occurrence order, and a defect retires at the first block that
corrupts it; the first corrupted position inside that block is its
verdict.  Because first occurrences increase along the unique list,
this is the same verdict as a full scan, but most defects of a
corrupting library never see the later blocks.  Comparisons use a small
conservative epsilon band: a borderline margin is treated as
*corrupting*, so a float summation-order difference against the scalar
kernel can only cause a redundant replay, never a missed one.

:meth:`TraceScreen.screen_one` is the scalar reference: one
:class:`TransitionKernel` scan over the deduplicated transitions with
early exit, bit-identical to the error model by construction.  The
screened engine uses it for defects it was never asked to
:meth:`~TraceScreen.screen` in bulk.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.soc.bus import BusDirection
from repro.xtalk.calibration import Calibration
from repro.xtalk.capacitance import CapacitanceSet
from repro.xtalk.defects import Defect
from repro.xtalk.kernel import TransitionKernel
from repro.xtalk.params import LN2, ElectricalParams

#: Relative half-width of the borderline band around every threshold
#: comparison in the vectorized paths.  float64 dot products over a
#: dozen terms are accurate to ~1e-15 relative, so 1e-9 is a generous
#: safety margin while keeping spurious replays to (essentially) zero.
EPSILON = 1e-9

#: Unique transitions in the first screening block; each later block is
#: twice the size of the one before, so a scan costs O(log U) passes.
FIRST_BLOCK = 16

#: Bound on the elements of one ``[defects, block, wires]`` temporary.
MAX_BLOCK_ELEMENTS = 8_000_000


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


def _margin_caps(params: ElectricalParams, calibration: Calibration):
    """Per-direction delay margins in the capacitance domain, ``[2]``
    (ordered CPU_TO_MEM, MEM_TO_CPU), plus the glitch scale factor."""
    margin_cap = np.array(
        [
            calibration.margin_for(direction)
            / (LN2 * params.r_for(direction) * 1e-15)
            for direction in (
                BusDirection.CPU_TO_MEM,
                BusDirection.MEM_TO_CPU,
            )
        ]
    )
    scale = params.glitch_attenuation * params.vdd
    return margin_cap, scale


class _TransitionFeatures:
    """Per-transition aggressor geometry shared by the vectorized paths.

    For a list of transitions, precomputes the bit masks and Miller
    aggressor-weight matrices that :meth:`TransitionKernel.decide`
    derives per call: quiet aggressors weigh 1x, opposite-direction
    aggressors 2x, same-direction aggressors 0x, and stable victims see
    the signed injected charge of their switching neighbours.
    """

    __slots__ = (
        "bits",
        "switching_mask",
        "up_mask",
        "high_mask",
        "weights_rising",
        "weights_falling",
        "signed",
    )

    def __init__(self, previous, driven, width: int):
        bits = (1 << np.arange(width, dtype=np.int64))[None, :]
        changed = ((previous ^ driven)[:, None] & bits) != 0  # [T, n]
        high = (driven[:, None] & bits) != 0  # [T, n]
        switching = changed.astype(np.float64)
        stable = 1.0 - switching
        up = (changed & high).astype(np.float64)
        down = switching - up
        self.bits = bits
        self.switching_mask = changed
        self.up_mask = changed & high  # victims switching 0 -> 1
        self.high_mask = high
        self.weights_rising = stable + 2.0 * down
        self.weights_falling = stable + 2.0 * up
        self.signed = up - down  # injected-charge sign for stable victims


def _direction_indices(directions: Sequence[BusDirection]):
    return np.array(
        [0 if d is BusDirection.CPU_TO_MEM else 1 for d in directions],
        dtype=np.int64,
    )


class DecisionEvaluator:
    """Vectorized re-evaluation of recorded corruption decisions.

    Built by the screened engine's replay-dedup tier from the decisions
    one recorded replay pushed through its corruption hook:
    ``decisions`` is a sequence of ``((previous, driven, direction),
    received)`` entries (several runs' records may be concatenated — the
    caller keeps track of the slices).  :meth:`agreement` answers, for
    one capacitance set, on which entries the scalar
    :meth:`~repro.xtalk.kernel.TransitionKernel.decide` would sample the
    same received word — in a handful of matrix products instead of a
    Python loop per wire.

    Exactness: comparisons use the same conservative :data:`EPSILON`
    band as the library screen, but here a borderline entry cannot be
    resolved safely in either direction (agreement feeds outcome
    *reuse*, where both false positives and false negatives would be
    wrong), so :meth:`agreement` returns ``None`` and the caller falls
    back to the scalar kernel.
    """

    def __init__(
        self,
        decisions: Sequence[Tuple[Tuple[int, int, BusDirection], int]],
        params: ElectricalParams,
        calibration: Calibration,
        width: int,
    ):
        self.calibration = calibration
        transitions = [t for t, _ in decisions]
        self._previous = np.array([t[0] for t in transitions], dtype=np.int64)
        self._driven = np.array([t[1] for t in transitions], dtype=np.int64)
        self._direction_index = _direction_indices([t[2] for t in transitions])
        self._expected = np.array([r for _, r in decisions], dtype=np.int64)
        self._features = _TransitionFeatures(
            self._previous, self._driven, width
        )
        self._margin_cap, self._scale = _margin_caps(params, calibration)

    def __len__(self) -> int:
        return int(self._expected.shape[0])

    def agreement(self, caps: CapacitanceSet):
        """Per-entry agreement with the recorded received words.

        Returns a boolean array (one entry per decision), or ``None``
        when any comparison fell inside the borderline band and the
        scalar kernel must decide instead.
        """
        f = self._features
        coupling, ground = _defect_arrays(caps)
        glitch_threshold = (
            self.calibration.v_th * (ground + coupling.sum(axis=1))
            / self._scale
        )  # [n]
        slack = self._margin_cap[:, None] - ground[None, :]  # [2, n]

        # coupling is symmetric, so W @ coupling sums over neighbours j
        # of victim i exactly as the kernel's inner loop does.
        load_rising = f.weights_rising @ coupling  # [T, n]
        load_falling = f.weights_falling @ coupling
        injected = f.signed @ coupling

        load = np.where(f.up_mask, load_rising, load_falling)
        slack_t = slack[self._direction_index, :]  # [T, n]
        delay_margin = load - slack_t
        eps_delay = EPSILON * (np.abs(slack_t) + 1.0)

        polarity = np.where(f.high_mask, -injected, injected)
        glitch_margin = polarity - glitch_threshold[None, :]
        eps_glitch = EPSILON * (np.abs(glitch_threshold)[None, :] + 1.0)

        uncertain = (
            (f.switching_mask & (np.abs(delay_margin) <= eps_delay))
            | (~f.switching_mask & (np.abs(glitch_margin) <= eps_glitch))
        )
        if uncertain.any():
            return None
        delay_hit = f.switching_mask & (delay_margin > eps_delay)
        glitch_hit = ~f.switching_mask & (glitch_margin > eps_glitch)
        flips = np.where(delay_hit | glitch_hit, f.bits, 0).sum(axis=1)
        return (self._driven ^ flips) == self._expected


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
        self._features = None

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

    def _prepare(self, width: int):
        """Per-transition arrays, built once per screen instance."""
        previous = np.array([u[0] for u in self._uniques], dtype=np.int64)
        driven = np.array([u[1] for u in self._uniques], dtype=np.int64)
        direction_index = _direction_indices([u[2] for u in self._uniques])
        features = _TransitionFeatures(previous, driven, width)
        margin_cap, scale = _margin_caps(self.params, self.calibration)
        return direction_index, features, margin_cap, scale

    def screen(self, defects: Iterable[Defect]) -> List[ScreenVerdict]:
        """Evaluate every defect; one vectorized pass with early exit."""
        defects = list(defects)
        if not defects or not self._uniques:
            return [self._verdict(defect, -1) for defect in defects]
        count = len(self._uniques)
        width = defects[0].caps.wire_count
        if self._features is None:
            self._features = self._prepare(width)
        direction_index, f, margin_cap, scale = self._features

        arrays = [_defect_arrays(d.caps) for d in defects]
        coupling = np.stack([a[0] for a in arrays])  # [D, n, n]
        ground = np.stack([a[1] for a in arrays])  # [D, n]
        glitch_threshold = (
            self.calibration.v_th * (ground + coupling.sum(axis=2)) / scale
        )  # [D, n]
        eps_glitch = EPSILON * (np.abs(glitch_threshold) + 1.0)
        slack = margin_cap[None, :, None] - ground[:, None, :]  # [D, 2, n]

        first = np.full(len(defects), -1, dtype=np.int64)
        active = np.arange(len(defects))
        start, block = 0, FIRST_BLOCK
        while start < count and active.size:
            stop = min(count, start + block)
            rows = max(1, MAX_BLOCK_ELEMENTS // ((stop - start) * width))
            up = f.up_mask[start:stop]
            switching = f.switching_mask[start:stop]
            high = f.high_mask[start:stop]
            rising = f.weights_rising[start:stop]
            falling = f.weights_falling[start:stop]
            signed = f.signed[start:stop]
            directions = direction_index[start:stop]
            for lo in range(0, active.size, rows):
                chunk = active[lo:lo + rows]
                c = coupling[chunk]
                # coupling is symmetric, so W @ coupling sums over
                # neighbours j of victim i as the kernel's loop does.
                load = np.where(
                    up, np.matmul(rising, c), np.matmul(falling, c)
                )  # [d, B, n]
                slack_t = slack[chunk][:, directions, :]  # [d, B, n]
                delay_hit = switching & (
                    load - slack_t > -EPSILON * (np.abs(slack_t) + 1.0)
                )
                injected = np.matmul(signed, c)
                polarity = np.where(high, -injected, injected)
                glitch_hit = ~switching & (
                    polarity - glitch_threshold[chunk][:, None, :]
                    > -eps_glitch[chunk][:, None, :]
                )
                corrupted = (delay_hit | glitch_hit).any(axis=2)  # [d, B]
                hit = corrupted.any(axis=1)
                first[chunk[hit]] = start + corrupted[hit].argmax(axis=1)
            active = active[first[active] < 0]
            start, block = stop, 2 * block
        return [
            self._verdict(defect, position)
            for defect, position in zip(defects, first.tolist())
        ]
