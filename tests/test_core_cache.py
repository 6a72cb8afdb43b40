"""The content-addressed golden-run artifact cache.

Contract under test: a warm cache entry replaces *all* golden
simulation (``coverage.engine.golden_cycles`` stays zero) without
changing a single campaign outcome; a cold screened build writes one
complete entry; exact campaigns never touch the cache; corrupt or
unreadable entries, and verdicts that do not point into the trace, are
misses, never trusted.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

from repro.core import cache as golden_cache
from repro.core.cache import CachedCampaign
from repro.core.campaign import CampaignJournal, CampaignSpec, run_campaign
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


def _entry_sections(path):
    """The header (without its section table) and the ``{name:
    (payload, codec)}`` sections of the entry at ``path``."""
    header, body = golden_cache._decode_header(path.read_bytes())
    sections = {
        name: (golden_cache._read_section(header, body, name), meta["codec"])
        for name, meta in header["sections"].items()
    }
    del header["sections"]
    return header, sections


# ---------------------------------------------------------------- store/load


def test_store_load_round_trip(small_spec):
    capture = capture_golden_with_trace(small_spec.program, "addr")
    verdicts = {
        0: ScreenVerdict(defect_index=0, clean=True),
        3: ScreenVerdict(defect_index=3, clean=False, first_index=7,
                         first_cycle=capture.trace[7].cycle),
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


@pytest.mark.parametrize(
    "first_index, first_cycle",
    [(None, 2**40), (10**6, None), (-1, None), ("clean", None)],
)
def test_verdict_outside_the_trace_is_evicted(
    small_spec, first_index, first_cycle
):
    """A hash-valid entry whose verdict does not point into its trace
    is a miss: trusting it could step a replay past the golden run."""
    exact = run_campaign(dataclasses.replace(small_spec, engine="exact"))
    run_campaign(small_spec)  # the cold build stores a complete entry
    store = golden_cache.default_cache()
    entry = store.load(small_spec.fingerprint())
    index, verdict = next(
        (index, verdict) for index, verdict in entry.verdicts.items()
        if not verdict.clean
    )
    if first_index == "clean":  # clean, yet naming a transaction
        bad = dataclasses.replace(verdict, clean=True)
    else:
        bad = dataclasses.replace(
            verdict,
            first_index=(
                verdict.first_index if first_index is None else first_index
            ),
            first_cycle=(
                verdict.first_cycle if first_cycle is None else first_cycle
            ),
        )
    path = store._path(store.key_for(small_spec.fingerprint()))
    header, sections = _entry_sections(path)
    sections["verdicts"] = (
        golden_cache._pack_verdicts({**entry.verdicts, index: bad}), "raw"
    )
    path.write_bytes(golden_cache._encode_entry(header, sections))

    with obs_runtime.session(detail="metrics") as session:
        result = run_campaign(small_spec)
        counters = _cache_counters(session.registry.snapshot())
    assert counters["corrupt_evicted"] == 1
    assert counters["misses"] == 1
    assert counters["stores"] == 1  # the rebuilt entry replaces it
    assert result.outcomes == exact.outcomes


def test_entry_with_a_checkpoints_section_loads(small_spec):
    """Entries of the older layout carry golden-run ``checkpoints``
    (and header fields describing them); the section is never read, so
    they still load as hits with zero golden cycles."""
    cold = run_campaign(small_spec)
    store = golden_cache.default_cache()
    path = store._path(store.key_for(small_spec.fingerprint()))
    header, sections = _entry_sections(path)
    older = {
        "golden": sections["golden"],
        "trace": sections["trace"],
        "checkpoints": (bytes(range(256)) * 64, "zlib"),
        "verdicts": sections["verdicts"],
    }
    header.update(interval="auto", checkpoint_count=64)
    path.write_bytes(golden_cache._encode_entry(header, older))

    with obs_runtime.session(detail="metrics") as session:
        warm = run_campaign(small_spec)
        snapshot = session.registry.snapshot()
    counters = _cache_counters(snapshot)
    assert counters["hits"] == 1
    assert counters["misses"] == counters["corrupt_evicted"] == 0
    assert _counter(snapshot, "coverage.engine.golden_cycles") == 0
    assert warm.outcomes == cold.outcomes


# ---------------------------------------------------------------- engine


def test_warm_build_engine_skips_golden_simulation(small_spec):
    with obs_runtime.session(detail="metrics") as session:
        small_spec.build_engine()
        cold = _cache_counters(session.registry.snapshot())
    assert cold["misses"] == 1
    assert cold["stores"] == 1
    entry = golden_cache.default_cache().load(small_spec.fingerprint())
    assert set(entry.verdicts) == {d.index for d in small_spec.defects}

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


def test_warm_build_dedups_like_a_cold_build(address_setup, builder):
    """A warm engine groups its library for dedup: no extra replays."""
    faults = [f for f in builder.address_faults() if f.victim == 5]
    spec = CampaignSpec(
        program=builder.build_address_bus_program(faults),
        params=address_setup.params,
        calibration=address_setup.calibration,
        defects=tuple(address_setup.library),
        bus="addr",
    )
    runs = []
    for _ in ("cold", "warm"):
        with obs_runtime.session(detail="metrics") as session:
            result = run_campaign(spec)
            snapshot = session.registry.snapshot()
        runs.append((
            result.outcomes,
            _counter(snapshot, "coverage.engine.replayed"),
            _counter(snapshot, "coverage.engine.replay_deduped"),
            _cache_counters(snapshot)["hits"],
        ))
    (cold, cold_replayed, cold_deduped, cold_hits), warm = runs
    assert (cold_hits, warm[3]) == (0, 1)
    assert cold_deduped > 0, "expected defects to share a replay behavior"
    assert warm[:3] == (cold, cold_replayed, cold_deduped)


def test_warm_worker_campaign(small_spec):
    """Warm workers hit the cache; their counters roll up to the parent.

    Only workers that judge a shard report back, and one worker may
    take every shard, so the parent sees at least one hit — and no
    miss and no golden cycle from any worker that did report.
    """
    cold = run_campaign(small_spec)
    with obs_runtime.session(detail="metrics") as session:
        warm = run_campaign(small_spec, workers=2)
        snapshot = session.registry.snapshot()
    counters = _cache_counters(snapshot)
    assert counters["misses"] == 0
    assert counters["hits"] >= 1
    assert _counter(snapshot, "coverage.engine.golden_cycles") == 0
    assert warm.outcomes == cold.outcomes


def test_incomplete_entry_is_completed_without_golden_simulation(small_spec):
    """An entry whose verdicts miss defects gets one complete rewrite."""
    store = golden_cache.default_cache()
    capture = capture_golden_with_trace(small_spec.program, "addr")
    store.store(small_spec.fingerprint(), "addr", capture,
                {0: ScreenVerdict(defect_index=0, clean=True)})
    with obs_runtime.session(detail="metrics") as session:
        small_spec.build_engine()
        snapshot = session.registry.snapshot()
    counters = _cache_counters(snapshot)
    assert counters["hits"] == 1
    assert counters["stores"] == 1
    assert _counter(snapshot, "coverage.engine.golden_cycles") == 0
    entry = store.load(small_spec.fingerprint())
    assert set(entry.verdicts) == {d.index for d in small_spec.defects}


def test_resumed_campaign_caches_every_defect(small_spec, tmp_path):
    """A resume judges only the pending half but caches the whole spec."""
    exact = run_campaign(dataclasses.replace(small_spec, engine="exact"))
    journal_path = tmp_path / "journal.jsonl"
    with CampaignJournal(journal_path, small_spec.fingerprint()) as journal:
        for outcome in exact.outcomes[: len(exact.outcomes) // 2]:
            journal.record(outcome, group=small_spec.label)

    resumed = run_campaign(small_spec, journal=journal_path, resume=True)
    assert resumed.resumed == len(small_spec.defects) // 2
    assert resumed.outcomes == exact.outcomes
    entry = golden_cache.default_cache().load(small_spec.fingerprint())
    assert set(entry.verdicts) == {d.index for d in small_spec.defects}


def test_cold_worker_campaign_stores_complete_entry(small_spec):
    """Workers that miss together each store the whole entry: none is lost."""
    serial = run_campaign(dataclasses.replace(small_spec, engine="exact"))
    pooled = run_campaign(small_spec, workers=3)
    assert pooled.outcomes == serial.outcomes
    entry = golden_cache.default_cache().load(small_spec.fingerprint())
    assert set(entry.verdicts) == {d.index for d in small_spec.defects}


def test_exact_campaign_does_no_cache_io(small_spec):
    spec = dataclasses.replace(small_spec, engine="exact")
    with obs_runtime.session(detail="metrics") as session:
        run_campaign(spec)
        snapshot = session.registry.snapshot()
    assert not any(
        metric["value"]
        for name, metric in snapshot.items()
        if name.startswith("coverage.engine.golden_cache.")
    )
    assert _counter(snapshot, "coverage.engine.golden_cycles") > 0
    assert not golden_cache.cache_root().exists()


def test_unreadable_cache_dir_is_a_miss(small_spec, tmp_path, monkeypatch):
    """A cache root that is a regular file costs time, never the run."""
    expected = run_campaign(small_spec).outcomes
    not_a_dir = tmp_path / "not-a-directory"
    not_a_dir.write_text("")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(not_a_dir))
    with obs_runtime.session(detail="metrics") as session:
        result = run_campaign(small_spec)
        counters = _cache_counters(session.registry.snapshot())
    assert result.outcomes == expected
    assert counters["misses"] == 1
    assert counters["stores"] == 0
