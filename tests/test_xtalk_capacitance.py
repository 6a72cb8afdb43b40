"""Unit and property tests for capacitance extraction and perturbation."""

import pytest
from hypothesis import given, strategies as st

from repro.xtalk.capacitance import CapacitanceSet, extract_capacitance
from repro.xtalk.geometry import BusGeometry


def test_extraction_shape():
    caps = extract_capacitance(BusGeometry.uniform(4))
    assert caps.wire_count == 4
    # Nearest-neighbour only.
    assert caps.coupling[0][2] == 0.0
    assert caps.coupling[0][1] > 0.0


def test_coupling_inverse_with_spacing():
    near = extract_capacitance(BusGeometry.uniform(2, spacing_um=0.5))
    far = extract_capacitance(BusGeometry.uniform(2, spacing_um=1.0))
    assert near.coupling[0][1] == pytest.approx(2.0 * far.coupling[0][1])


def test_net_coupling_profile_edge_relaxed():
    caps = extract_capacitance(BusGeometry.edge_relaxed(12))
    nets = caps.net_couplings()
    # Side wires have markedly less net coupling (the paper's Fig. 11
    # observation about lines 1, 2, 11, 12).
    assert nets[0] < nets[1] < nets[2] < nets[3]
    assert nets[3] == pytest.approx(max(nets))
    assert nets == pytest.approx(list(reversed(nets)))


def test_validation_rejects_asymmetry():
    with pytest.raises(ValueError):
        CapacitanceSet(
            coupling=((0.0, 1.0), (2.0, 0.0)),
            ground=(1.0, 1.0),
        )


def test_validation_rejects_nonzero_diagonal():
    with pytest.raises(ValueError):
        CapacitanceSet(coupling=((1.0,),), ground=(1.0,))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "coupling, ground",
    [
        (((0.0, NAN), (NAN, 0.0)), (1.0, 1.0)),
        (((0.0, INF), (INF, 0.0)), (1.0, 1.0)),
        (((0.0, 1.0), (1.0, 0.0)), (NAN, 1.0)),
        (((0.0, 1.0), (1.0, 0.0)), (1.0, INF)),
        (((0.0,),), (NAN,)),
    ],
    ids=["nan-coupling", "inf-coupling", "nan-ground", "inf-ground", "one-wire"],
)
def test_validation_rejects_non_finite(coupling, ground):
    with pytest.raises(ValueError, match="finite and non-negative"):
        CapacitanceSet(coupling=coupling, ground=ground)


def test_validation_rejects_negative_ground():
    with pytest.raises(ValueError, match="finite and non-negative"):
        CapacitanceSet(coupling=((0.0,),), ground=(-1.0,))


def test_validation_rejects_empty_set():
    with pytest.raises(ValueError, match="at least one wire"):
        CapacitanceSet(coupling=(), ground=())


def test_reach_is_the_widest_coupled_distance():
    assert extract_capacitance(BusGeometry.uniform(6)).reach == 1
    assert CapacitanceSet(coupling=((0.0,),), ground=(1.0,)).reach == 0
    far = ((0.0, 0.0, 1.0), (0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
    assert CapacitanceSet(coupling=far, ground=(1.0,) * 3).reach == 2


def test_perturbed_scales_symmetrically():
    caps = extract_capacitance(BusGeometry.uniform(3))
    factors = [[1.0, 2.0, 1.0], [2.0, 1.0, 0.5], [1.0, 0.5, 1.0]]
    perturbed = caps.perturbed(factors)
    assert perturbed.coupling[0][1] == pytest.approx(2.0 * caps.coupling[0][1])
    assert perturbed.coupling[1][2] == pytest.approx(0.5 * caps.coupling[1][2])
    assert perturbed.ground == caps.ground


def test_perturbed_rejects_asymmetric_factors():
    caps = extract_capacitance(BusGeometry.uniform(2))
    with pytest.raises(ValueError):
        caps.perturbed([[1.0, 2.0], [3.0, 1.0]])


@given(st.floats(0.1, 10.0))
def test_perturbation_scales_net_coupling(factor):
    caps = extract_capacitance(BusGeometry.uniform(2))
    n = caps.wire_count
    factors = [[factor] * n for _ in range(n)]
    perturbed = caps.perturbed(factors)
    assert perturbed.net_coupling(0) == pytest.approx(
        factor * caps.net_coupling(0)
    )


def test_neighbours():
    caps = extract_capacitance(BusGeometry.uniform(3))
    assert [j for j, _ in caps.neighbours(1)] == [0, 2]
    assert [j for j, _ in caps.neighbours(0)] == [1]
