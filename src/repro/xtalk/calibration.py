"""Consistent calibration of defect threshold and receiver margins.

The paper generates its defect library with a *capacitance* criterion —
"if a perturbation in capacitance causes the net coupling capacitance (C)
on any interconnect to be larger than a threshold value (Cth), it is
recorded as a defect" — and notes that "the value of Cth depends on the
value of acceptable delay length or glitch height".

This module makes that dependency explicit and bidirectional.  Starting
from a chosen safety factor over the nominal worst net coupling, it
derives:

* ``cth``       — the net-coupling defect threshold (fF),
* ``v_th``      — the receiver glitch threshold (volts) such that the MA
  glitch pattern produces an error on wire *i* **iff** ``Cnet_i > cth``,
* ``t_margin``  — the allowed settling time per driving direction such
  that the MA delay pattern produces an error on wire *i* **iff**
  ``Cnet_i > cth``.

With uniform ground capacitance this gives the in-model version of the
ICCAD'99 result (MA tests are necessary and sufficient for all coupling
defects in an RC network), which the property-based tests verify.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.soc.bus import BusDirection
from repro.xtalk.capacitance import CapacitanceSet
from repro.xtalk.params import LN2, ElectricalParams


@dataclass(frozen=True)
class Calibration:
    """Derived defect/error thresholds for one bus.

    Attributes
    ----------
    cth:
        Net-coupling defect threshold in fF.
    v_th:
        Receiver glitch threshold in volts.
    t_margin:
        Allowed settling time (seconds) per driving direction.
    safety_factor:
        ``cth`` as a multiple of the worst nominal net coupling.
    """

    cth: float
    v_th: float
    t_margin: Dict[BusDirection, float]
    safety_factor: float

    def margin_for(self, direction: BusDirection) -> float:
        """Settling-time margin for the given driving direction."""
        return self.t_margin[direction]

    def is_defective(self, caps: CapacitanceSet) -> bool:
        """Paper's defect criterion: any wire's net coupling above cth."""
        return any(net > self.cth for net in caps.net_couplings())

    def defective_wires(self, caps: CapacitanceSet) -> tuple:
        """Wires whose net coupling exceeds cth."""
        return self.wires_over(caps.net_couplings())

    def wires_over(self, nets: Sequence[float]) -> tuple:
        """Indices of the per-wire net couplings ``nets`` that exceed cth."""
        return tuple(i for i, net in enumerate(nets) if net > self.cth)


def calibrate(
    nominal: CapacitanceSet,
    params: ElectricalParams,
    safety_factor: float = 1.25,
) -> Calibration:
    """Derive a consistent :class:`Calibration` for a nominal bus.

    ``safety_factor`` expresses the design margin: how much the worst
    net coupling may grow before timing/integrity budgets are violated.
    Must be > 1 so the nominal (defect-free) bus passes every MA test.
    """
    if safety_factor <= 1.0:
        raise ValueError("safety_factor must exceed 1.0")
    grounds = set(nominal.ground)
    if len(grounds) != 1:
        raise ValueError(
            "calibration assumes uniform ground capacitance across the bus"
        )
    cg = nominal.ground[0]
    cth = safety_factor * max(nominal.net_couplings())
    # Glitch: alpha * Vdd * Cnet / (Cg + Cnet) is monotone in Cnet, so
    # setting the receiver threshold at Cnet == cth makes "MA glitch
    # pattern fails" equivalent to "Cnet > cth".
    v_th = params.glitch_attenuation * params.vdd * cth / (cg + cth)
    # Delay: the MA pattern gives t50 = ln2 * R * (Cg + 2 Cnet); placing
    # the margin at Cnet == cth gives the same equivalence, per direction.
    t_margin = {
        direction: LN2 * params.r_for(direction) * (cg + 2.0 * cth) * 1e-15
        for direction in BusDirection
    }
    return Calibration(
        cth=cth, v_th=v_th, t_margin=t_margin, safety_factor=safety_factor
    )
