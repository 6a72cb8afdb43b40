"""Tests for the coupled-RC waveform simulator and its agreement with the
lumped estimators (experiment E10's foundation)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.soc.bus import BusDirection
from repro.xtalk.capacitance import CapacitanceSet, extract_capacitance
from repro.xtalk.geometry import BusGeometry
from repro.xtalk.params import ElectricalParams
from repro.xtalk.rc_model import worst_case_delay
from repro.xtalk.waveform import simulate_transition

WIDTH = 8
ONES = (1 << WIDTH) - 1


@pytest.fixture(scope="module")
def setup():
    caps = extract_capacitance(BusGeometry.uniform(WIDTH))
    return caps, ElectricalParams()


def test_quiet_bus_stays_quiet(setup):
    caps, params = setup
    result = simulate_transition(caps, params, 0x55, 0x55)
    for wire in range(WIDTH):
        assert abs(result.glitch_peak(wire)) < 1e-9


def test_switching_wires_settle_to_targets(setup):
    caps, params = setup
    result = simulate_transition(caps, params, 0x00, 0xFF)
    for wire in range(WIDTH):
        assert result.voltages[wire, -1] == pytest.approx(params.vdd, rel=1e-3)


def test_ma_glitch_polarity(setup):
    caps, params = setup
    victim = 4
    result = simulate_transition(caps, params, 0, ONES & ~(1 << victim))
    assert result.glitch_peak(victim) > 0.1  # visible upward glitch
    down = simulate_transition(caps, params, ONES, 1 << victim)
    assert down.glitch_peak(victim) < -0.1


def test_delay_monotone_in_aggressor_opposition(setup):
    caps, params = setup
    victim = 4
    bit = 1 << victim
    quiet = simulate_transition(caps, params, 0, bit)
    opposed = simulate_transition(caps, params, ONES & ~bit, bit)
    assert opposed.delay_to_half(victim) > quiet.delay_to_half(victim)


def test_lumped_delay_matches_ode_within_tolerance(setup):
    # The Miller-factor Elmore estimate should track the network solution
    # for the MA pattern (this is what justifies the lumped error model).
    caps, params = setup
    victim = 3
    bit = 1 << victim
    result = simulate_transition(caps, params, ONES & ~bit, bit)
    ode_delay = result.delay_to_half(victim)
    lumped = worst_case_delay(caps, params, victim, BusDirection.CPU_TO_MEM)
    assert ode_delay == pytest.approx(lumped, rel=0.25)


def test_delay_zero_for_stable_and_inf_for_unsettled(setup):
    caps, params = setup
    victim = 4
    result = simulate_transition(caps, params, 0, ONES & ~(1 << victim))
    assert result.delay_to_half(victim) == 0.0
    # A ridiculously short window leaves switching wires unsettled.
    short = simulate_transition(
        caps, params, ONES & ~(1 << victim), 1 << victim, t_end=1e-15, points=8
    )
    assert short.delay_to_half(victim) == float("inf")


def _pair(ground, coupling):
    return CapacitanceSet(
        coupling=((0.0, coupling), (coupling, 0.0)), ground=ground
    )


def test_two_wire_modes_match_closed_form():
    # Two equal wires decouple into a common mode (time constant r*Cg)
    # and a differential mode (r*(Cg + 2*Cc)).  Wire 0 rising from a
    # quiet bus excites both: V0 = vdd - vdd/2 (e_c + e_d) and
    # V1 = -vdd/2 (e_c - e_d).
    cg, cc = 10.0, 25.0
    params = ElectricalParams()
    r = params.r_for(BusDirection.CPU_TO_MEM)
    result = simulate_transition(_pair((cg, cg), cc), params, 0b00, 0b01)
    t = result.times
    e_c = np.exp(-t / (r * cg * 1e-15))
    e_d = np.exp(-t / (r * (cg + 2.0 * cc) * 1e-15))
    half = params.vdd / 2.0
    expected = np.vstack([params.vdd - half * (e_c + e_d), -half * (e_c - e_d)])
    np.testing.assert_allclose(
        result.voltages, expected, rtol=1e-9, atol=1e-9 * params.vdd
    )


def test_singular_capacitance_matrix_is_refused():
    # No wire has a path to ground: the common mode never decays.
    with pytest.raises(ValueError, match="not positive definite"):
        simulate_transition(_pair((0.0, 0.0), 5.0), ElectricalParams(), 0, 1)


def test_one_grounded_wire_still_simulates():
    params = ElectricalParams()
    result = simulate_transition(_pair((0.0, 5.0), 5.0), params, 0b01, 0b10)
    assert np.isfinite(result.voltages).all()
    np.testing.assert_allclose(
        result.voltages[:, -1], [0.0, params.vdd], atol=1e-3 * params.vdd
    )


def test_import_does_not_load_scipy():
    """The waveform solver needs numpy only: importing it (and with it
    ``repro``) loads no scipy module."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")])
    )
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro.xtalk.waveform; print(*sys.modules, sep=chr(10))"],
        capture_output=True, text=True, env=env, check=True, timeout=120,
    ).stdout.splitlines()
    assert "repro.xtalk.waveform" in loaded
    assert not [name for name in loaded if name.startswith("scipy")]
