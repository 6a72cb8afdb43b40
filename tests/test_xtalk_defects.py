"""Unit tests for defect library generation."""

import hashlib
import random

import pytest

from repro import default_address_bus_setup, default_data_bus_setup
from repro.xtalk.calibration import calibrate
from repro.xtalk.capacitance import extract_capacitance
from repro.xtalk.defects import (
    DEFAULT_SIGMA,
    _perturbation_factors,
    generate_defect_library,
)
from repro.xtalk.geometry import BusGeometry
from repro.xtalk.params import ElectricalParams


@pytest.fixture(scope="module")
def setup():
    caps = extract_capacitance(BusGeometry.edge_relaxed(12))
    params = ElectricalParams()
    return caps, calibrate(caps, params)


def test_requested_count(setup):
    caps, calibration = setup
    library = generate_defect_library(caps, calibration, count=50, seed=1)
    assert len(library) == 50
    assert library.attempts >= 50


def test_every_defect_violates_cth(setup):
    caps, calibration = setup
    library = generate_defect_library(caps, calibration, count=40, seed=2)
    for defect in library:
        assert defect.defective_wires
        assert calibration.is_defective(defect.caps)
        assert defect.severity > 1.0


def test_determinism(setup):
    caps, calibration = setup
    a = generate_defect_library(caps, calibration, count=20, seed=42)
    b = generate_defect_library(caps, calibration, count=20, seed=42)
    assert [d.defective_wires for d in a] == [d.defective_wires for d in b]
    assert [d.severity for d in a] == [d.severity for d in b]


def test_side_wires_rarely_defective(setup):
    # The paper: "no perturbation is large enough to cause Lines 1, 2,
    # 11, and 12 to be defective" in their 1000-defect library.
    caps, calibration = setup
    library = generate_defect_library(caps, calibration, count=300, seed=3)
    incidence = library.per_wire_incidence()
    assert incidence[0] == 0
    assert incidence[1] == 0
    assert incidence[10] == 0
    assert incidence[11] == 0
    center_total = sum(incidence[w] for w in range(3, 9))
    assert center_total > 0.8 * sum(incidence.values())


def test_acceptance_rate_and_histogram(setup):
    caps, calibration = setup
    library = generate_defect_library(caps, calibration, count=60, seed=4)
    assert 0.0 < library.acceptance_rate <= 1.0
    histogram = library.severity_histogram(bins=5)
    assert sum(count for _, count in histogram) == 60


def test_attempt_budget_enforced(setup):
    caps, _ = setup
    params = ElectricalParams()
    # An absurd safety factor makes defects (nearly) impossible.
    strict = calibrate(caps, params, safety_factor=50.0)
    with pytest.raises(RuntimeError):
        generate_defect_library(
            caps, strict, count=5, seed=5, max_attempts=200
        )


def test_bad_arguments(setup):
    caps, calibration = setup
    with pytest.raises(ValueError):
        generate_defect_library(caps, calibration, count=0)
    with pytest.raises(ValueError):
        generate_defect_library(caps, calibration, count=5, sigma=0.0)


# The seed-2001 libraries every campaign judges, pinned bit for bit:
# attempts drawn and a sha256 over each defect's repr'd fields.
LIBRARY_FINGERPRINTS = {
    12: (1407, "275c4efaf974b7fe4f9a80b71732d7d8c967549b2d8c1b070ad4e1cc3e7c9af9"),
    8: (2501, "e240e4e1787f26b7ada42cf6021f0d0a65b45b1961fc4b40d70c59ef6a6f97bc"),
}


@pytest.mark.parametrize(
    "make_setup, wires",
    [(default_address_bus_setup, 12), (default_data_bus_setup, 8)],
    ids=["address", "data"],
)
def test_default_library_fingerprint(make_setup, wires):
    library = make_setup().library
    digest = hashlib.sha256()
    for d in library:
        digest.update(repr(
            (d.index, d.caps.coupling, d.caps.ground, d.defective_wires, d.severity)
        ).encode())
    assert len(library) == 1000
    assert (library.attempts, digest.hexdigest()) == LIBRARY_FINGERPRINTS[wires]


@pytest.mark.parametrize("wires", [12, 8])
def test_accepted_defects_equal_perturbed_sets(wires):
    # The generator scales rows itself; each accepted defect must be what
    # ``nominal.perturbed`` builds from the same factors.
    nominal = extract_capacitance(BusGeometry.edge_relaxed(wires))
    calibration = calibrate(nominal, ElectricalParams())
    library = generate_defect_library(nominal, calibration, count=200, seed=7)
    rng = random.Random(7)
    expected = []
    for _ in range(library.attempts):
        caps = nominal.perturbed(_perturbation_factors(nominal, rng, DEFAULT_SIGMA))
        defective = calibration.defective_wires(caps)
        if defective:
            expected.append(
                (caps, defective, max(caps.net_couplings()) / calibration.cth)
            )
    assert [(d.caps, d.defective_wires, d.severity) for d in library] == expected
