"""The content-addressed golden-run artifact cache.

Contract under test: a warm cache entry replaces *all* golden
simulation (``coverage.engine.golden_cycles`` stays zero) without
changing a single campaign outcome; corrupt entries are evicted, never
trusted.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import cache as golden_cache
from repro.core.cache import CachedCampaign
from repro.core.campaign import CampaignSpec, run_campaign
from repro.core.engine import capture_golden_with_trace
from repro.obs import runtime as obs_runtime
from repro.xtalk.screen import ScreenVerdict


@pytest.fixture()
def small_spec(address_setup, address_program):
    """A small, fast campaign over the first 12 library defects."""
    return CampaignSpec(
        program=address_program,
        params=address_setup.params,
        calibration=address_setup.calibration,
        defects=tuple(address_setup.library)[:12],
        bus="addr",
        engine="screened",
        label="cache-test",
    )


def _counter(snapshot, name):
    metric = snapshot.get(name)
    return int(metric["value"]) if metric else 0


def _cache_counters(snapshot):
    return {
        name: _counter(snapshot, f"coverage.engine.golden_cache.{name}")
        for name in ("hits", "misses", "stores", "corrupt_evicted")
    }


# ---------------------------------------------------------------- store/load


def test_store_load_round_trip(small_spec):
    capture = capture_golden_with_trace(small_spec.program, "addr")
    verdicts = {
        0: ScreenVerdict(defect_index=0, clean=True),
        3: ScreenVerdict(defect_index=3, clean=False, first_index=7,
                         first_cycle=41),
    }
    store = golden_cache.default_cache()
    fingerprint = small_spec.fingerprint()
    path = store.store(fingerprint, "addr", capture, verdicts)
    assert path.exists()

    entry = store.load(fingerprint)
    assert isinstance(entry, CachedCampaign)
    assert entry.bus == "addr"
    assert entry.capture.golden == capture.golden
    assert entry.capture.trace == capture.trace
    assert entry.capture.checkpoints == capture.checkpoints
    assert entry.verdicts == verdicts


def test_load_miss_and_stable_key(small_spec):
    store = golden_cache.default_cache()
    fingerprint = small_spec.fingerprint()
    assert store.load(fingerprint) is None
    capture = capture_golden_with_trace(small_spec.program, "addr")
    store.store(fingerprint, "addr", capture)
    assert store.load(fingerprint) is not None
    # The key bytes predate the fixed checkpoint spacing; keeping them
    # keeps existing entries loadable.
    payload = f"repro-golden-cache:v1:{fingerprint}:auto".encode("utf-8")
    assert store.key_for(fingerprint) == hashlib.sha256(payload).hexdigest()


def test_corrupt_entry_is_evicted(small_spec):
    capture = capture_golden_with_trace(small_spec.program, "addr")
    store = golden_cache.default_cache()
    fingerprint = small_spec.fingerprint()
    path = store.store(fingerprint, "addr", capture)

    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0xFF  # flip a body byte -> sha256 mismatch
    path.write_bytes(bytes(data))

    with obs_runtime.session(detail="metrics") as session:
        assert store.load(fingerprint) is None
        counters = _cache_counters(session.registry.snapshot())
    assert counters["corrupt_evicted"] == 1
    assert counters["misses"] == 1
    assert not path.exists()  # evicted, not retried forever


def test_merge_verdicts(small_spec):
    capture = capture_golden_with_trace(small_spec.program, "addr")
    store = golden_cache.default_cache()
    fingerprint = small_spec.fingerprint()
    store.store(fingerprint, "addr", capture,
                {0: ScreenVerdict(defect_index=0, clean=True)})
    store.merge_verdicts(
        fingerprint, "addr", capture,
        {1: ScreenVerdict(defect_index=1, clean=False, first_index=2,
                          first_cycle=9)},
    )
    entry = store.load(fingerprint)
    assert set(entry.verdicts) == {0, 1}


# ---------------------------------------------------------------- engine


def test_warm_build_engine_skips_golden_simulation(small_spec):
    with obs_runtime.session(detail="metrics") as session:
        small_spec.build_engine()
        cold = _cache_counters(session.registry.snapshot())
    assert cold["misses"] == 1
    assert cold["stores"] >= 1

    with obs_runtime.session(detail="metrics") as session:
        engine = small_spec.build_engine()
        snapshot = session.registry.snapshot()
        warm = _cache_counters(snapshot)
    assert warm["hits"] == 1
    assert warm["misses"] == 0
    assert warm["stores"] == 0
    assert _counter(snapshot, "coverage.engine.golden_cycles") == 0
    assert engine.golden.cycles > 0  # the golden reference is still there


def test_cold_and_warm_campaigns_are_identical(small_spec):
    cold = run_campaign(small_spec)
    with obs_runtime.session(detail="metrics") as session:
        warm = run_campaign(small_spec)
        counters = _cache_counters(session.registry.snapshot())
        golden_cycles = _counter(
            session.registry.snapshot(), "coverage.engine.golden_cycles"
        )
    assert counters["hits"] == 1
    assert golden_cycles == 0
    assert warm.outcomes == cold.outcomes
    assert warm.coverage() == cold.coverage()


def test_warm_worker_campaign(small_spec):
    """Workers each hit the cache; their counters roll up to the parent."""
    cold = run_campaign(small_spec)
    with obs_runtime.session(detail="metrics") as session:
        warm = run_campaign(small_spec, workers=2)
        snapshot = session.registry.snapshot()
    counters = _cache_counters(snapshot)
    assert counters["hits"] >= 2  # one per worker
    assert _counter(snapshot, "coverage.engine.golden_cycles") == 0
    assert warm.outcomes == cold.outcomes


# ---------------------------------------------------------------- maintenance


def test_entries_prune_clear(small_spec, address_program):
    store = golden_cache.default_cache()
    capture = capture_golden_with_trace(small_spec.program, "addr")
    store.store(small_spec.fingerprint(), "addr", capture)
    store.store("another-campaign", "addr", capture)

    infos = store.entries()
    assert len(infos) == 2
    assert all(info.ok for info in infos)
    assert all(info.cycles == capture.golden.cycles for info in infos)

    removed = store.prune(max_entries=1)
    assert len(removed) == 1
    assert len(store.entries()) == 1

    assert store.clear() == 1
    assert store.entries() == []


def test_prune_removes_corrupt_headers(small_spec):
    store = golden_cache.default_cache()
    capture = capture_golden_with_trace(small_spec.program, "addr")
    path = store.store(small_spec.fingerprint(), "addr", capture)
    path.write_bytes(b"not a cache entry")
    infos = store.entries()
    assert len(infos) == 1 and not infos[0].ok
    assert store.prune() == [path]
    assert store.entries() == []


# ---------------------------------------------------------------- cli


def test_cli_cache_ls_and_clear(small_spec, capsys):
    from repro.cli import main

    assert main(["cache"]) == 0
    assert "cache is empty" in capsys.readouterr().out

    store = golden_cache.default_cache()
    capture = capture_golden_with_trace(small_spec.program, "addr")
    store.store(small_spec.fingerprint(), "addr", capture)

    assert main(["cache", "ls"]) == 0
    out = capsys.readouterr().out
    assert "golden-run cache" in out
    assert str(capture.golden.cycles) in out

    assert main(["cache", "clear"]) == 0
    assert "removed 1" in capsys.readouterr().out
    assert store.entries() == []
