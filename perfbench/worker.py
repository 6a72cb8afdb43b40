"""One benchmark process: build the inputs, run the campaigns, report.

``run.py`` starts a fresh process for every sample so that no
in-process memo carries from one campaign sweep to the next; only the
on-disk golden-run cache (``REPRO_CACHE_DIR``) does, and only where the
workload means it to.

Modes::

    worker.py campaign --inputs KIND --seed N --out FILE [--spans FILE]
    worker.py oracle --inputs KIND --seed N --shard K --shards S --out FILE
    worker.py warmup

``campaign`` times the screened campaigns through the public API and
writes the outcomes and timings as JSON.  With ``--spans`` the run is
traced (see ``tracer.py``) and the span dump goes to that file.
``oracle`` judges every ``S``-th defect, starting at ``K``, with
``ExactEngine``.  ``warmup`` only imports the package.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import tracer as tracing

SRC = Path(__file__).resolve().parent.parent / "src"
INPUTS = ("fig11", "addr-full", "data-e5")


def make_inputs(repro, kind: str, seed: int, tracer):
    """The workload's bus, setup, defect tuple and programs."""
    with tracer.span("xtalk.library"):
        if kind == "data-e5":
            setup = repro.default_data_bus_setup(seed=seed)
        else:
            setup = repro.default_address_bus_setup(seed=seed)
    builder = repro.SelfTestProgramBuilder()
    if kind == "fig11":
        # One program per address line: the line's MA tests only.
        faults = builder.address_faults()
        groups = [
            [fault for fault in faults if fault.victim == victim]
            for victim in range(builder.addr_width)
        ]
        build = builder.build_address_bus_program
    elif kind == "addr-full":
        groups, build = [None], builder.build_address_bus_program
    else:
        groups, build = [None], builder.build_data_bus_program
    programs = []
    for group in groups:
        with tracer.span("program_builder.build"):
            programs.append(build(group))
    bus = "data" if kind == "data-e5" else "addr"
    defects = tuple(sorted(setup.library, key=lambda defect: defect.index))
    return bus, setup, defects, programs


def run_campaigns(repro, bus, setup, defects, programs, tracer):
    """The timed work: one serial screened campaign per program."""
    results = []
    for program in programs:
        with tracer.campaign():
            spec = repro.CampaignSpec(
                program, setup.params, setup.calibration, defects, bus,
                engine="screened",
            )
            results.append(repro.run_campaign(spec))
    return results


def cpu_seconds() -> float:
    """CPU time of this process and its waited-for children."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in (
            resource.getrusage(resource.RUSAGE_SELF),
            resource.getrusage(resource.RUSAGE_CHILDREN),
        )
    )


def outcome_rows(outcomes, defects):
    """``[[detected, timed_out, mismatches], ...]`` in defect order.

    ``None`` when the outcomes do not cover exactly the given defects,
    which the caller counts as every judgment failed.
    """
    if [o.defect_index for o in outcomes] != [d.index for d in defects]:
        return None
    return [[int(o.detected), int(o.timed_out), o.mismatches] for o in outcomes]


def campaign(args) -> dict:
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import repro

    traced = args.spans is not None
    tracer = tracing.Tracer()
    tracing.install(tracer, None if traced else tracing.PROBES)
    bus, setup, defects, programs = make_inputs(repro, args.inputs, args.seed, tracer)
    setup_s = time.perf_counter() - started

    wall = time.perf_counter()
    cpu = cpu_seconds()
    results = run_campaigns(repro, bus, setup, defects, programs, tracer)
    campaign_s = time.perf_counter() - wall
    campaign_cpu_s = cpu_seconds() - cpu
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    from repro.core import capture_golden

    report = {
        "setup_s": setup_s,
        "campaign_s": campaign_s,
        "campaign_cpu_s": campaign_cpu_s,
        "peak_rss_mb": peak_rss_mb,
        "test_cycles": sum(capture_golden(p).cycles for p in programs),
        "programs": len(programs),
        "outcomes": [outcome_rows(r.outcomes, defects) for r in results],
    }
    layers = tracing.layer_metrics(tracer, int(campaign_s * 1e9))
    report["cache"] = {
        key: layers[key]
        for key in ("cache.hits", "engine.golden_cycles")
    }
    if traced:
        report["layers"] = layers
        with open(args.spans, "w") as handle:
            json.dump(tracer.dump(), handle, separators=(",", ":"))
    return report


def oracle(args) -> dict:
    sys.path.insert(0, str(SRC))
    import repro

    bus, setup, defects, programs = make_inputs(
        repro, args.inputs, args.seed, tracing.Tracer()
    )
    mine = defects[args.shard::args.shards]
    golden_cycles, outcomes = [], []
    for program in programs:
        engine = repro.ExactEngine(program, setup.params, setup.calibration, bus)
        golden_cycles.append(engine.golden.cycles)
        rows = []
        for defect in mine:
            check = engine.check(defect)
            rows.append(
                [defect.index, int(check.detected), int(check.timed_out),
                 check.mismatches]
            )
        outcomes.append(rows)
    return {"golden_cycles": golden_cycles, "outcomes": outcomes}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("campaign", "oracle", "warmup"))
    parser.add_argument("--inputs", choices=INPUTS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out")
    parser.add_argument("--spans")
    parser.add_argument("--shard", type=int, default=0)
    parser.add_argument("--shards", type=int, default=1)
    args = parser.parse_args()
    if args.mode == "warmup":
        sys.path.insert(0, str(SRC))
        import repro  # noqa: F401  (compiles and caches the package)

        return 0
    report = campaign(args) if args.mode == "campaign" else oracle(args)
    with open(args.out, "w") as handle:
        json.dump(report, handle, separators=(",", ":"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
