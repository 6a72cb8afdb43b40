"""The shared transition kernel: purity, model agreement, explain/decide
consistency (the Miller-weighting logic used to be duplicated between
``corrupt`` and ``explain``; these properties pin the deduplicated one)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.soc.bus import BusDirection
from repro.xtalk.calibration import calibrate
from repro.xtalk.capacitance import extract_capacitance
from repro.xtalk.error_model import CrosstalkErrorModel
from repro.xtalk.geometry import BusGeometry
from repro.xtalk.kernel import TransitionKernel
from repro.xtalk.params import ElectricalParams

WIDTH = 8
ONES = (1 << WIDTH) - 1


@pytest.fixture(scope="module")
def nominal():
    caps = extract_capacitance(BusGeometry.edge_relaxed(WIDTH))
    params = ElectricalParams()
    return caps, params, calibrate(caps, params)


def perturbed_kernel(nominal, factor):
    caps, params, calibration = nominal
    n = caps.wire_count
    factors = [[factor] * n for _ in range(n)]
    return TransitionKernel(caps.perturbed(factors), params, calibration)


@settings(max_examples=80)
@given(
    v1=st.integers(0, ONES),
    v2=st.integers(0, ONES),
    factor=st.sampled_from([1.0, 1.6, 2.2, 3.0]),
)
def test_explain_reports_exactly_the_flipped_wires(v1, v2, factor):
    """explain() names wire *i* iff decide() flips wire *i* — per wire."""
    caps = extract_capacitance(BusGeometry.edge_relaxed(WIDTH))
    params = ElectricalParams()
    kernel = TransitionKernel(
        caps.perturbed([[factor] * WIDTH for _ in range(WIDTH)]),
        params,
        calibrate(caps, params),
    )
    for direction in BusDirection:
        received, glitches, delays = kernel.decide(v1, v2, direction)
        errors = kernel.explain(v1, v2, direction)
        assert {e.wire for e in errors} == {
            i for i in range(WIDTH) if (received ^ v2) & (1 << i)
        }
        assert glitches == sum(1 for e in errors if e.effect.endswith("glitch"))
        assert delays == sum(1 for e in errors if e.effect == "delay")


@settings(max_examples=60)
@given(v1=st.integers(0, ONES), v2=st.integers(0, ONES))
def test_kernel_agrees_with_error_model(v1, v2):
    caps = extract_capacitance(BusGeometry.edge_relaxed(WIDTH))
    params = ElectricalParams()
    calibration = calibrate(caps, params)
    bad = caps.perturbed([[2.4] * WIDTH for _ in range(WIDTH)])
    kernel = TransitionKernel(bad, params, calibration)
    model = CrosstalkErrorModel(bad, params, calibration)
    for direction in BusDirection:
        assert model.corrupt(v1, v2, direction) == kernel.decide(
            v1, v2, direction
        )[0]


def test_kernel_is_pure(nominal):
    kernel = perturbed_kernel(nominal, 2.5)
    first = kernel.decide(0x00, 0x55, BusDirection.CPU_TO_MEM)
    thresholds = list(kernel.glitch_threshold)
    for _ in range(3):
        assert kernel.decide(0x00, 0x55, BusDirection.CPU_TO_MEM) == first
    assert kernel.glitch_threshold == thresholds


def test_no_transition_is_never_an_error(nominal):
    kernel = perturbed_kernel(nominal, 3.0)
    assert kernel.decide(0x33, 0x33, BusDirection.MEM_TO_CPU) == (0x33, 0, 0)
    assert kernel.explain(0x33, 0x33, BusDirection.MEM_TO_CPU) == []
