"""The shared pure transition kernel of the crosstalk error model.

One :class:`TransitionKernel` holds the precomputed capacitance-domain
thresholds for one (possibly defect-perturbed) capacitance set and
answers, for a single bus transition ``previous -> driven``, which wires
the receiver samples wrongly:

* a *stable* wire flips if the net signed coupling injected by switching
  neighbours exceeds the glitch threshold (positive glitch on a stable-0
  wire, negative on a stable-1 wire);
* a *switching* wire is sampled at its old value if its Miller-weighted
  coupling load exceeds the per-direction delay slack.

The kernel is **pure**: :meth:`decide` and :meth:`explain` depend only
on the constructor arguments and mutate nothing.  It backs the scalar
error model (:class:`~repro.xtalk.error_model.CrosstalkErrorModel`,
which adds tallies), the bus corruption hook that the exact engine,
BIST and the diagnostics install; the wire-by-wire diagnostics
(:meth:`explain`); and the screen's scalar reference
``TraceScreen.screen_one``.  The screened engine never builds one: its
screen, its replay dedup and its replays' bus hook read
:func:`~repro.xtalk.screen.decision_tables` instead, the same sums and
thresholds evaluated once per wire window with this class's float
operations in this class's order, so they agree bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.soc.bus import BusDirection
from repro.xtalk.calibration import Calibration
from repro.xtalk.capacitance import CapacitanceSet
from repro.xtalk.params import LN2, ElectricalParams


@dataclass(frozen=True)
class WireError:
    """Diagnostic record for one corrupted wire in one transition."""

    wire: int
    effect: str  # "positive_glitch", "negative_glitch", "delay"
    magnitude: float  # coupled capacitance (fF) that caused the error
    threshold: float  # the threshold it exceeded (fF)


class TransitionKernel:
    """Per-wire corruption decision for one capacitance set.

    Parameters
    ----------
    caps:
        The (possibly defect-perturbed) capacitance parameter set.
    params:
        Driver/receiver electrical parameters.
    calibration:
        Thresholds; derive them from the *nominal* capacitances so that a
        perturbed bus is judged against the design's margins, not its own.
    """

    __slots__ = ("width", "neighbours", "glitch_threshold", "delay_slack")

    def __init__(
        self,
        caps: CapacitanceSet,
        params: ElectricalParams,
        calibration: Calibration,
    ):
        self.width = caps.wire_count
        # Neighbour lists: (other wire index, other wire bit mask, coupling).
        self.neighbours: List[Tuple[Tuple[int, int, float], ...]] = [
            tuple((j, 1 << j, cc) for j, cc in caps.neighbours(i))
            for i in range(self.width)
        ]
        # Glitch: error iff |sum of signed switching coupling| exceeds
        #   v_th * (Cg + Cnet) / (alpha * Vdd)   [capacitance domain]
        scale = params.glitch_attenuation * params.vdd
        self.glitch_threshold = [
            calibration.v_th * (caps.ground[i] + caps.net_coupling(i)) / scale
            for i in range(self.width)
        ]
        # Delay: error iff Cg + sum(mf * Cc) exceeds
        #   t_margin / (ln2 * R * 1e-15)          [capacitance domain]
        self.delay_slack: Dict[BusDirection, List[float]] = {}
        for direction in BusDirection:
            margin_cap = calibration.margin_for(direction) / (
                LN2 * params.r_for(direction) * 1e-15
            )
            self.delay_slack[direction] = [
                margin_cap - caps.ground[i] for i in range(self.width)
            ]

    # -- the hot path -------------------------------------------------------

    def decide(
        self, previous: int, driven: int, direction: BusDirection
    ) -> Tuple[int, int, int]:
        """Evaluate one transition.

        Returns ``(received, glitch_flips, delay_flips)``: the word the
        receiver samples plus how many wires each error mechanism flipped.
        """
        if previous == driven:
            return driven, 0, 0
        changed = previous ^ driven
        received = driven
        glitch_flips = 0
        delay_flips = 0
        neighbours = self.neighbours
        delay_slack = self.delay_slack[direction]
        glitch_threshold = self.glitch_threshold
        for i in range(self.width):
            bit = 1 << i
            if changed & bit:
                # Switching victim: Miller-weighted coupling load.
                load = 0.0
                rising = driven & bit
                for j, bitj, cc in neighbours[i]:
                    if changed & bitj:
                        if bool(driven & bitj) != bool(rising):
                            load += cc + cc  # opposite transition: 2x
                        # same-direction transition: 0x
                    else:
                        load += cc  # quiet aggressor: 1x
                if load > delay_slack[i]:
                    # Receiver samples the old (pre-transition) value.
                    received = (received & ~bit) | (previous & bit)
                    delay_flips += 1
            else:
                # Stable victim: signed injected coupling.
                injected = 0.0
                for j, bitj, cc in neighbours[i]:
                    if changed & bitj:
                        if driven & bitj:
                            injected += cc
                        else:
                            injected -= cc
                if driven & bit:
                    if -injected > glitch_threshold[i]:
                        received &= ~bit  # negative glitch on stable 1
                        glitch_flips += 1
                else:
                    if injected > glitch_threshold[i]:
                        received |= bit  # positive glitch on stable 0
                        glitch_flips += 1
        return received, glitch_flips, delay_flips

    # -- diagnostics --------------------------------------------------------

    def explain(
        self, previous: int, driven: int, direction: BusDirection
    ) -> List[WireError]:
        """Describe every wire error the transition would produce.

        The decisions agree with :meth:`decide` wire for wire: a
        :class:`WireError` is reported for wire *i* exactly when
        :meth:`decide` flips it.
        """
        errors: List[WireError] = []
        if previous == driven:
            return errors
        changed = previous ^ driven
        for i in range(self.width):
            bit = 1 << i
            if changed & bit:
                load = 0.0
                rising = driven & bit
                for j, bitj, cc in self.neighbours[i]:
                    if changed & bitj:
                        if bool(driven & bitj) != bool(rising):
                            load += cc + cc
                    else:
                        load += cc
                slack = self.delay_slack[direction][i]
                if load > slack:
                    errors.append(WireError(i, "delay", load, slack))
            else:
                injected = 0.0
                for j, bitj, cc in self.neighbours[i]:
                    if changed & bitj:
                        if driven & bitj:
                            injected += cc
                        else:
                            injected -= cc
                threshold = self.glitch_threshold[i]
                if driven & bit:
                    if -injected > threshold:
                        errors.append(
                            WireError(i, "negative_glitch", -injected, threshold)
                        )
                elif injected > threshold:
                    errors.append(
                        WireError(i, "positive_glitch", injected, threshold)
                    )
        return errors
