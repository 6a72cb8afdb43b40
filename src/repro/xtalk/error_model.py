"""High-level crosstalk error model (after Bai & Dey, VTS 2001).

Given the capacitance parameter set of a bus and a transition
``previous -> driven``, the model decides, wire by wire, whether the
receiving end samples a corrupted word:

* a *stable* wire flips if the net coupled charge from switching
  neighbours produces a glitch beyond the receiver threshold
  (positive glitch on a stable-0 wire, negative on a stable-1 wire);
* a *switching* wire is sampled at its old value if its Miller-weighted
  RC delay exceeds the settling margin.

The model is installed as a :class:`~repro.soc.bus.Bus` corruption hook,
so during an exact defect simulation **every** bus transition of the
executing self-test program passes through it — including instruction fetches.
This is what lets the simulation capture fault masking and secondary
corruption effects, as the paper's HDL environment does.

The per-wire decision itself lives in the shared pure
:class:`~repro.xtalk.kernel.TransitionKernel` (all thresholds are
precomputed into the capacitance domain at construction time).  The
model adds native tallies and the hook signature.  It is the scalar
oracle: :class:`~repro.core.engine.ExactEngine`, the BIST comparison
and the diagnostics install it.  A screened replay judges from the
defect's row of the per-wire decision tables instead
(:mod:`repro.xtalk.screen`), which equal this model word for word;
:class:`~repro.xtalk.screen.TraceScreen` uses the same tables to
pre-screen whole defect libraries against a golden transaction trace
without simulating anything.
"""

from __future__ import annotations

from typing import Dict, List

from repro.soc.bus import BusDirection
from repro.xtalk.calibration import Calibration, calibrate
from repro.xtalk.capacitance import CapacitanceSet
from repro.xtalk.kernel import TransitionKernel, WireError
from repro.xtalk.params import ElectricalParams

__all__ = ["CrosstalkErrorModel", "WireError"]


class CrosstalkErrorModel:
    """Receiver-side corruption of bus transitions for one capacitance set.

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

    def __init__(
        self,
        caps: CapacitanceSet,
        params: ElectricalParams,
        calibration: Calibration,
    ):
        self.caps = caps
        self.params = params
        self.calibration = calibration
        self.kernel = TransitionKernel(caps, params, calibration)
        self.width = caps.wire_count
        # Native tallies (plain int increments, always on): how often the
        # model ran and what it decided.  The observability layer snapshots
        # these per defect replay (see repro.core.coverage), so enabling
        # telemetry adds no per-transition work here.
        self.invocations = 0
        self.corruptions = 0
        self.glitch_errors = 0
        self.delay_errors = 0
        self._decide = self.kernel.decide

    @classmethod
    def nominal(
        cls,
        caps: CapacitanceSet,
        params: ElectricalParams,
        safety_factor: float = 1.25,
    ) -> "CrosstalkErrorModel":
        """Model for a defect-free bus, with self-derived calibration."""
        return cls(caps, params, calibrate(caps, params, safety_factor))

    # -- the hot path -------------------------------------------------------

    def corrupt(self, previous: int, driven: int, direction: BusDirection) -> int:
        """Return the word the receiver samples for this transition.

        Matches the :class:`~repro.soc.bus.Bus` corruption-hook signature.
        """
        self.invocations += 1
        if previous == driven:
            return driven
        received, glitch_flips, delay_flips = self._decide(
            previous, driven, direction
        )
        if received != driven:
            self.corruptions += 1
            self.glitch_errors += glitch_flips
            self.delay_errors += delay_flips
        return received

    def stats(self) -> Dict[str, int]:
        """The native tallies, keyed by metric suffix."""
        return {
            "invocations": self.invocations,
            "corruptions": self.corruptions,
            "glitch_errors": self.glitch_errors,
            "delay_errors": self.delay_errors,
        }

    # -- diagnostics ----------------------------------------------------------

    def explain(
        self, previous: int, driven: int, direction: BusDirection
    ) -> List[WireError]:
        """Describe every wire error the transition would produce.

        Shares the Miller-weighting logic with :meth:`corrupt` through
        the kernel, so a :class:`WireError` is reported for a wire
        exactly when :meth:`corrupt` flips it.
        """
        return self.kernel.explain(previous, driven, direction)

    def would_corrupt(
        self, previous: int, driven: int, direction: BusDirection
    ) -> bool:
        """True if the transition is corrupted in the given direction."""
        return self.corrupt(previous, driven, direction) != driven
