"""Tests for the defect simulation campaign (Fig. 9 / Fig. 11)."""

import pytest

from repro.core.campaign import CampaignSpec, run_campaign
from repro.core.coverage import address_bus_line_coverage


def spec_for(setup, program, bus):
    return CampaignSpec(
        program, setup.params, setup.calibration, tuple(setup.library), bus
    )


@pytest.fixture(scope="module")
def address_result(address_setup, address_program):
    return run_campaign(spec_for(address_setup, address_program, "addr"))


def test_bus_argument_validated(address_setup, address_program):
    with pytest.raises(ValueError):
        spec_for(address_setup, address_program, "ctrl")


def test_single_defect_outcomes(address_setup, address_program, address_result):
    defect = address_setup.library[0]
    check = spec_for(address_setup, address_program, "addr").build_engine().check(
        defect
    )
    outcome = address_result.outcomes[0]
    assert outcome.defect_index == defect.index == 0
    assert isinstance(check.detected, bool)
    assert (check.detected, check.timed_out, check.mismatches) == (
        outcome.detected, outcome.timed_out, outcome.mismatches
    )


def test_full_program_coverage_high(address_result):
    # Paper: "the defect coverage of the test program is 100% on both
    # address and data busses."
    assert address_result.coverage() >= 0.95


def test_data_bus_coverage_full(data_setup, data_program):
    result = run_campaign(spec_for(data_setup, data_program, "data"))
    assert result.coverage() == 1.0


def test_fig11_shape(address_setup, builder, address_program):
    report = address_bus_line_coverage(
        address_setup.library,
        address_setup.params,
        address_setup.calibration,
        builder=builder,
        full_program=address_program,
    )
    lines = {line.line: line for line in report.lines}
    # Side lines have no individual coverage (paper: lines 1, 2, 11, 12).
    assert lines[1].individual == 0.0
    assert lines[2].individual == 0.0
    assert lines[11].individual == 0.0
    assert lines[12].individual == 0.0
    # Center lines dominate.
    assert lines[6].individual > 0.3
    # Cumulative coverage is monotone and reaches ~100 %.
    values = [line.cumulative for line in report.lines]
    assert values == sorted(values)
    assert report.cumulative_coverage >= 0.95
    assert report.full_program_coverage >= 0.95
    assert report.as_rows()[0]["line"] == 1


def test_detected_set_is_subset_of_library(address_setup, address_result):
    detected = address_result.detected_set()
    assert detected <= {d.index for d in address_setup.library}
