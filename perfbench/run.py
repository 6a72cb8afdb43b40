"""Defect-campaign benchmark: screened campaigns checked against ExactEngine.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig11-sweep --seed 2001 --seconds 20 --trace 0

Each sample is a fresh ``worker.py`` process that builds the inputs from
the seed, runs one serial screened campaign per program through
``CampaignSpec`` / ``run_campaign``, and reports timings and outcomes.
Samples repeat until ``--seconds`` have passed (at least
``MIN_SAMPLES``); timings are reported as medians.  Every judgment is
diffed against the exact engine's outcome: stored in
``oracle/seed2001.json`` for the default seed, computed untimed before
measuring for any other seed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced samples and prints the per-layer metrics of the
traced ones (see ``tracer.py``); ``trace.overhead_s`` is the traced
minus the untraced median ``campaign_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` (judgments that differ from the
oracle) and ``metrics``.  See README.md for the workloads and what each
metric should show.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
ORACLE_FILE = HERE / "oracle" / "seed2001.json"
ORACLE_SEED = 2001

#: name -> (inputs, warm cache)
WORKLOADS = {
    "fig11-sweep": ("fig11", False),
    "fig11-warm": ("fig11", True),
    "addr-full": ("addr-full", False),
    "data-e5": ("data-e5", False),
}

END_TO_END = {
    "campaign_s": "s",
    "campaign_cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "test_cycles": "cycles",
}

MIN_SAMPLES = 3
ORACLE_SHARDS = 2
WORKER_TIMEOUT_S = 60
#: No new sample starts after this many seconds of the whole run, which
#: must end within 180 s.
DEADLINE_S = 100


class BenchmarkError(Exception):
    """A run that cannot produce a result."""


def worker_env(cache_dir: Path) -> dict:
    """The environment with every ``REPRO_*`` setting removed.

    The benchmark drives the package's defaults; only the golden-run
    cache directory is set, per sample.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def start_worker(args, cache_dir: Path) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT,
        env=worker_env(cache_dir),
        stdout=subprocess.DEVNULL,
    )


def finish_worker(process: subprocess.Popen) -> None:
    """Wait for a worker; kill it if the wait times out or is interrupted."""
    try:
        code = process.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = "a timeout"
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    if code != 0:
        raise BenchmarkError(f"worker ended with {code}: {process.args}")


def run_worker(args, cache_dir: Path, out: Path) -> dict:
    finish_worker(start_worker([*args, "--out", str(out)], cache_dir))
    return json.loads(out.read_text())


def compute_oracle(inputs: str, seed: int, work: Path) -> dict:
    """Exact-engine outcomes, judged in ``ORACLE_SHARDS`` processes."""
    outs = [work / f"oracle-{shard}.json" for shard in range(ORACLE_SHARDS)]
    processes = [
        start_worker(
            ["oracle", "--inputs", inputs, "--seed", str(seed),
             "--shard", str(shard), "--shards", str(ORACLE_SHARDS),
             "--out", str(out)],
            work / "oracle-cache",
        )
        for shard, out in enumerate(outs)
    ]
    try:
        for process in processes:
            finish_worker(process)
    finally:
        for process in processes:
            if process.poll() is None:
                process.kill()
                process.wait()
    shards = [json.loads(out.read_text()) for out in outs]
    outcomes = []
    for program in range(len(shards[0]["outcomes"])):
        rows = sorted(row for shard in shards for row in shard["outcomes"][program])
        outcomes.append([row[1:] for row in rows])
    return {"golden_cycles": shards[0]["golden_cycles"], "outcomes": outcomes}


def source_digest() -> str:
    """Digest of the package sources and the worker, for oracle reuse."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + [WORKER]:
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def load_oracle(inputs: str, seed: int, work: Path) -> dict:
    """The stored oracle at the default seed, else a computed one.

    A computed oracle is kept under ``out/`` for later runs of the same
    inputs, seed and sources.  When nothing was computed, one import of
    the package stands in for the oracle processes' warm-up, so the
    first sample does not pay for byte-compiling it.
    """
    if seed == ORACLE_SEED:
        oracle = json.loads(ORACLE_FILE.read_text())[inputs]
    else:
        kept = HERE / "out" / f"oracle-{inputs}-seed{seed}-{source_digest()}.json"
        if not kept.exists():
            oracle = compute_oracle(inputs, seed, work)
            partial = work / "oracle.json"
            partial.write_text(json.dumps(oracle, separators=(",", ":")))
            os.replace(partial, kept)
            return oracle
        oracle = json.loads(kept.read_text())
    finish_worker(start_worker(["warmup"], work / "oracle-cache"))
    return oracle


def diff_judgments(sample: dict, oracle: dict) -> tuple:
    """``(judgments, failed)`` of one sample against the oracle."""
    judgments = failed = 0
    expected_programs = oracle["outcomes"]
    if len(sample["outcomes"]) != len(expected_programs):
        total = sum(len(rows) for rows in expected_programs)
        return total, total
    for rows, expected in zip(sample["outcomes"], expected_programs):
        judgments += len(expected)
        if rows is None or len(rows) != len(expected):
            failed += len(expected)
            continue
        failed += sum(1 for got, want in zip(rows, expected) if got != want)
    return judgments, failed


def cache_problems(sample: dict) -> list:
    """Violations of the workload's cache state, from the sample's counts.

    Cold samples start from an empty cache and must never hit; warm
    samples must hit for every program and simulate no golden run.  A
    count whose wrapped call no longer exists is ``None`` and not checked;
    without a cache there is no warm state to prove.
    """
    counts = sample["cache"]
    hits = counts["cache.hits"]
    golden = counts["engine.golden_cycles"]
    if hits is None:
        return []
    warm = sample["warm"]
    want = sample["programs"] if warm else 0
    problems = []
    if hits != want:
        problems.append(f"{hits} cache hits, want {want}")
    if warm and golden:
        problems.append(f"warm run simulated {golden} golden cycles")
    return problems


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    began = time.monotonic()
    inputs, warm = WORKLOADS[workload]
    oracle = load_oracle(inputs, seed, work)
    expected_cycles = sum(oracle["golden_cycles"])
    campaign_args = ["campaign", "--inputs", inputs, "--seed", str(seed)]

    checked = []
    filled = work / "filled"
    if warm:
        # Filled by a cold sweep in its own process: only the on-disk
        # cache carries over into the measured samples.
        filled.mkdir()
        fill = run_worker(campaign_args, filled, work / "fill.json")
        fill.update(traced=False, warm=False)
        checked.append(fill)

    samples = []
    start = time.monotonic()
    while True:
        untraced = sum(1 for s in samples if not s["traced"])
        traced = len(samples) - untraced
        minimum = (untraced >= 1 and traced >= 1) if trace else untraced >= MIN_SAMPLES
        if minimum and (
            time.monotonic() - start >= seconds
            or time.monotonic() - began >= DEADLINE_S
        ):
            break
        take_trace = trace and traced < untraced
        index = len(samples)
        cache_dir = work / f"cache-{index}"
        if warm:
            shutil.copytree(filled, cache_dir)
        spans = work / f"spans-{index}.json"
        sample = run_worker(
            campaign_args + (["--spans", str(spans)] if take_trace else []),
            cache_dir, work / f"sample-{index}.json",
        )
        sample.update(traced=take_trace, warm=warm)
        samples.append(sample)
        if take_trace:
            shutil.copyfile(spans, HERE / "out" / f"spans-{workload}-seed{seed}.json")
        shutil.rmtree(cache_dir, ignore_errors=True)

    attempted = failed = 0
    problems = []
    for sample in checked + samples:
        judgments, wrong = diff_judgments(sample, oracle)
        attempted += judgments
        failed += wrong
        if sample["test_cycles"] != expected_cycles:
            problems.append(
                f"test_cycles {sample['test_cycles']} != oracle golden {expected_cycles}"
            )
        problems += cache_problems(sample)
    if failed:
        problems.append(f"{failed} of {attempted} judgments differ from ExactEngine")
    return {
        "samples": samples,
        "attempted": attempted,
        "failed": failed,
        "problems": list(dict.fromkeys(problems)),
    }


def summarize(name: str, values: list, unit: str) -> float:
    q1, median, q3 = quartiles(values)
    print(f"{name}: median {median:.6g} {unit}, quartiles {q1:.6g}..{q3:.6g}, n={len(values)}")
    return median


def end_to_end(samples: list) -> dict:
    metrics = {}
    for name, unit in END_TO_END.items():
        values = [sample[name] for sample in samples]
        metrics[name] = {"value": summarize(name, values, unit), "unit": unit}
    return metrics


def per_layer(samples: list) -> dict:
    traced = [s for s in samples if s["traced"]]
    untraced = [s for s in samples if not s["traced"]]
    layers = tracing.median_metrics([s["layers"] for s in traced])
    layers["trace.overhead_s"] = statistics.median(
        s["campaign_s"] for s in traced
    ) - statistics.median(s["campaign_s"] for s in untraced)
    absent = sorted(name for name, value in layers.items() if value is None)
    if absent:
        print("absent (wrapped entry point no longer exists): " + ", ".join(absent))
    share = layers["trace.layer_share"]
    if share is not None and share < 0.95:
        print(f"warning: layer spans cover only {share:.1%} of campaign time")
    print(f"traced samples: {len(traced)}, untraced: {len(untraced)}")
    metrics = {}
    for name, (unit, _) in tracing.LAYER_METRICS.items():
        value = layers[name]
        metrics[name] = {"value": 0 if value is None else value, "unit": unit}
        if value is not None:
            print(f"{name}: {value:.6g} {unit}")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=ORACLE_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Termination unwinds like an error: workers are killed and reaped
    # and the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    (HERE / "out").mkdir(exist_ok=True)
    work = HERE / "out" / f"run-{os.getpid()}"
    work.mkdir()
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = result["samples"]
    for problem in result["problems"]:
        print(f"FAILED: {problem}")
    if args.trace:
        metrics = per_layer(samples)
    else:
        metrics = end_to_end([s for s in samples if not s["traced"]])
    print(
        json.dumps(
            {
                "correct": not result["problems"],
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
