"""Shared fixtures.

Expensive artifacts (defect libraries, built programs, golden runs) are
session-scoped: they are deterministic, and dozens of tests read them.
"""

from __future__ import annotations

import pytest

from repro import (
    SelfTestProgramBuilder,
    default_address_bus_setup,
    default_data_bus_setup,
)


@pytest.fixture(scope="session")
def address_setup():
    """Address-bus setup with a small (fast) defect library."""
    return default_address_bus_setup(defect_count=60, seed=7)


@pytest.fixture(scope="session")
def data_setup():
    """Data-bus setup with a small (fast) defect library."""
    return default_data_bus_setup(defect_count=60, seed=7)


@pytest.fixture(scope="session")
def builder():
    """A default program builder for the demonstrator system."""
    return SelfTestProgramBuilder()


@pytest.fixture(scope="session")
def address_program(builder):
    """The single-session address-bus self-test program."""
    return builder.build_address_bus_program()


@pytest.fixture(scope="session")
def data_program(builder):
    """The single-session data-bus self-test program."""
    return builder.build_data_bus_program()


@pytest.fixture(scope="session")
def combined_program(builder):
    """One program covering both buses."""
    return builder.build()
