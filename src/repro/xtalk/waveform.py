"""Detailed coupled-RC waveform simulation.

The lumped estimators in :mod:`repro.xtalk.rc_model` reduce each
transition to closed-form glitch/delay expressions.  This module solves
the actual linear network so those reductions can be validated
(experiment E10):

Each wire is one node with a driver modelled as a resistor ``R`` to its
target rail, a ground capacitor ``Cg`` and coupling capacitors ``Cc`` to
its neighbours.  Node equations in Maxwell form::

    C dV/dt = G (Vin - V)

with ``C[i][i] = Cg_i + sum_j Cc_ij``, ``C[i][j] = -Cc_ij`` and
``G = I/R`` (every driver of one transfer has the same resistance).
``C`` is symmetric positive definite, so with the eigen-decomposition
``C = Q diag(lambda) Q^T`` the network decouples into ``N`` modes, and
the deviation from the driven levels at time ``t`` is
``V(t) - Vin = Q diag(exp(-t / (R lambda))) Q^T (V(0) - Vin)``,
evaluated on a fixed time grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.soc.bus import BusDirection
from repro.xtalk.capacitance import CapacitanceSet
from repro.xtalk.params import ElectricalParams
from repro.xtalk.rc_model import TransitionKindBits, classify_transition


@dataclass
class WaveformResult:
    """Waveforms of one simulated bus transition.

    ``voltages[i, k]`` is the voltage of wire ``i`` at ``times[k]``.
    """

    times: np.ndarray
    voltages: np.ndarray
    kinds: list
    vdd: float

    def glitch_peak(self, wire: int) -> float:
        """Signed peak excursion of a stable wire from its rail (volts).

        Positive values are upward excursions.  Returns 0.0 for a
        switching wire.
        """
        kind = self.kinds[wire]
        if kind.switching:
            return 0.0
        level = self.vdd if kind is TransitionKindBits.STABLE1 else 0.0
        excursion = self.voltages[wire] - level
        peak_index = int(np.argmax(np.abs(excursion)))
        return float(excursion[peak_index])

    def delay_to_half(self, wire: int) -> float:
        """Time of the *final* 50 %-crossing of a switching wire (seconds).

        Strong coupling can drag a victim back across the threshold after
        a first crossing, so the settling-relevant delay is the last
        crossing.  Returns ``inf`` if the wire never settles past 50 %
        within the window, and 0.0 for stable wires.
        """
        kind = self.kinds[wire]
        if not kind.switching:
            return 0.0
        half = self.vdd / 2.0
        v = self.voltages[wire]
        if kind is TransitionKindBits.RISING:
            settled = v >= half
        else:
            settled = v <= half
        if not settled[-1]:
            return float("inf")
        # Last index where the wire was on the wrong side of 50 %.
        wrong = np.nonzero(~settled)[0]
        if len(wrong) == 0:
            return float(self.times[0])
        last_wrong = wrong[-1]
        if last_wrong + 1 >= len(self.times):
            return float("inf")
        # Linear interpolation between the bracketing samples.
        t0, t1 = self.times[last_wrong], self.times[last_wrong + 1]
        v0, v1 = v[last_wrong], v[last_wrong + 1]
        if v1 == v0:
            return float(t1)
        return float(t0 + (half - v0) * (t1 - t0) / (v1 - v0))


def simulate_transition(
    caps: CapacitanceSet,
    params: ElectricalParams,
    v1: int,
    v2: int,
    direction: BusDirection = BusDirection.CPU_TO_MEM,
    t_end: Optional[float] = None,
    points: int = 600,
) -> WaveformResult:
    """Simulate the bus transition ``v1 -> v2`` and return the waveforms.

    Raises
    ------
    ValueError
        If the capacitance matrix is not positive definite (a wire, or a
        group of coupled wires, with no capacitance to ground), so the
        network has no unique solution.
    """
    n = caps.wire_count
    kinds = classify_transition(v1, v2, n)
    r = params.r_for(direction)

    c_matrix = np.zeros((n, n))
    for i in range(n):
        c_matrix[i, i] = (caps.ground[i] + caps.net_coupling(i)) * 1e-15
        for j, cc in caps.neighbours(i):
            c_matrix[i, j] = -cc * 1e-15
    eigenvalues, modes = np.linalg.eigh(c_matrix)
    # The numerical-rank tolerance: a smaller eigenvalue is round-off of
    # zero, and its mode would never decay.
    if eigenvalues[0] <= eigenvalues[-1] * n * np.finfo(float).eps:
        raise ValueError(
            "capacitance set is not positive definite: a group of "
            "coupled wires has no capacitance to ground"
        )

    v_initial = np.array(
        [params.vdd if (v1 >> i) & 1 else 0.0 for i in range(n)]
    )
    v_final = np.array(
        [params.vdd if (v2 >> i) & 1 else 0.0 for i in range(n)]
    )

    if t_end is None:
        # Cover several times the worst Miller-boosted time constant.
        worst = max(
            caps.ground[i] + 2.0 * caps.net_coupling(i) for i in range(n)
        )
        t_end = 10.0 * r * worst * 1e-15

    times = np.linspace(0.0, t_end, points)
    decay = np.exp(np.outer(-1.0 / (r * eigenvalues), times))
    modal = modes.T @ (v_initial - v_final)
    voltages = v_final[:, None] + modes @ (decay * modal[:, None])
    return WaveformResult(
        times=times, voltages=voltages, kinds=kinds, vdd=params.vdd
    )
