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


@pytest.fixture(autouse=True, scope="session")
def session_golden_cache(tmp_path_factory):
    """Give module- and session-scoped fixtures a golden-run cache too.

    They are set up before the per-test override below, so without
    this their campaigns would write ``.repro-cache`` into the working
    directory.
    """
    patch = pytest.MonkeyPatch()
    patch.setenv(
        "REPRO_CACHE_DIR", str(tmp_path_factory.mktemp("session-golden-cache"))
    )
    yield
    patch.undo()


@pytest.fixture(autouse=True)
def isolated_golden_cache(tmp_path, monkeypatch):
    """Point the golden-run artifact cache at a per-test directory.

    Keeps tests hermetic: no test sees entries (or cache-counter
    effects) created by another test or by a developer's ambient
    ``.repro-cache``.
    """
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "golden-cache"))


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
