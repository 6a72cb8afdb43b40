"""Golden-run artifact cache — cold vs warm campaign setup.

Runs the same screened address-bus campaign three times against one
cache directory: cold (serial), warm (serial), warm (2-worker process
pool).  Asserts the cache contract the issue specifies: the warm runs
report ``golden_cache.hits >= 1`` with **zero** golden-simulation
cycles (``coverage.engine.golden_cycles`` stays flat) and bit-identical
outcomes; the worker run proves the per-process counters roll up.
"""

import time

from conftest import DEFECT_COUNT, emit, emit_records

from repro.analysis.records import ExperimentRecord
from repro.analysis.tables import format_table
from repro.core.campaign import CampaignSpec, run_campaign
from repro.obs import runtime as obs_runtime

#: Campaign size for the cache benchmark — setup cost dominates, so a
#: modest slice keeps the three runs quick without changing the contract.
CACHE_DEFECTS = min(DEFECT_COUNT, 200)


def _counter(name):
    snapshot = obs_runtime.registry().snapshot()
    metric = snapshot.get(name)
    return int(metric["value"]) if metric else 0


def _cache_counter(name):
    return _counter(f"coverage.engine.golden_cache.{name}")


def _timed_run(spec, workers=1):
    before = {
        "hits": _cache_counter("hits"),
        "misses": _cache_counter("misses"),
        "golden_cycles": _counter("coverage.engine.golden_cycles"),
    }
    start = time.perf_counter()
    result = run_campaign(spec, workers=workers)
    elapsed = time.perf_counter() - start
    delta = {
        "hits": _cache_counter("hits") - before["hits"],
        "misses": _cache_counter("misses") - before["misses"],
        "golden_cycles": (
            _counter("coverage.engine.golden_cycles")
            - before["golden_cycles"]
        ),
    }
    return result, elapsed, delta


def test_golden_cache_warm_runs(
    benchmark, address_setup, address_program, tmp_path, monkeypatch
):
    # The cold run needs an empty cache: every campaign stores its entry,
    # so an earlier benchmark over the same defects would make it warm.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "golden-cache"))
    spec = CampaignSpec(
        program=address_program,
        params=address_setup.params,
        calibration=address_setup.calibration,
        defects=tuple(address_setup.library)[:CACHE_DEFECTS],
        bus="addr",
        engine="screened",
        label="bench:golden-cache",
    )

    cold, cold_time, cold_delta = _timed_run(spec)
    warm, warm_time, warm_delta = _timed_run(spec)
    pool, pool_time, pool_delta = _timed_run(spec, workers=2)

    # The issue's acceptance contract, as counter deltas per run.
    assert cold_delta["misses"] >= 1 and cold_delta["golden_cycles"] > 0
    assert warm_delta["hits"] >= 1 and warm_delta["misses"] == 0
    assert warm_delta["golden_cycles"] == 0
    assert pool_delta["hits"] >= 2  # one per worker, rolled up
    assert pool_delta["golden_cycles"] == 0

    # Bit-identical outcomes, cold or warm, serial or pooled.
    assert warm.outcomes == cold.outcomes
    assert pool.outcomes == cold.outcomes
    assert warm.coverage() == cold.coverage() == pool.coverage()

    emit(
        f"golden-run cache — screened campaign, {CACHE_DEFECTS} defects",
        format_table(
            ("run", "wall clock", "cache hits", "golden cycles"),
            [
                ("cold (serial)", f"{cold_time:.2f}s",
                 str(cold_delta["hits"]), str(cold_delta["golden_cycles"])),
                ("warm (serial)", f"{warm_time:.2f}s",
                 str(warm_delta["hits"]), str(warm_delta["golden_cycles"])),
                ("warm (2 workers)", f"{pool_time:.2f}s",
                 str(pool_delta["hits"]), str(pool_delta["golden_cycles"])),
            ],
        ),
    )
    emit_records("golden-run cache — record", [
        ExperimentRecord(
            "cache", "warm outcomes vs cold", "identical", "identical"
        ),
        ExperimentRecord(
            "cache", "warm golden simulation", "0 cycles",
            f"{warm_delta['golden_cycles']} cycles "
            f"({warm_delta['hits']} hits)",
        ),
        ExperimentRecord(
            "cache", "worker cache hits (2 workers)", ">= 2",
            str(pool_delta["hits"]),
        ),
    ])

    # Time the warm engine build alone (what the cache accelerates).
    benchmark.pedantic(spec.build_engine, rounds=3, iterations=1)
