"""Outside-in layer tracing for the defect-campaign benchmark.

The traced run wraps the public entry point of each layer of the
``repro`` package from here, the benchmark's own code, and records one
span per call: name, start, end and parent.  Spans live in memory and
are written once, when the run ends.  The hot leaf
``TransitionKernel.decide`` (hundreds of thousands of calls) is not a
span: its calls and time are aggregated per parent span instead.

The traced run must stay separate from ``repro.obs`` sessions: an active
session switches ``CpuMemorySystem`` from its tight clock loop to a
per-step loop, so per-layer times would describe another program.

Every wrapper target is resolved by name.  A target that a later change
removes (``DecisionEvaluator``, ``GoldenRunCache``, ...) is skipped and
the metrics that depend on it are reported as absent, never a crash.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional

perf_ns = time.perf_counter_ns

# Span record fields.
NAME, START, END, PARENT, ATTRS = range(5)

#: Per-layer metrics, with their unit and the wrapper targets they need.
#: A metric whose targets are not all present is reported as absent.
LAYER_METRICS = {
    "xtalk.library_s": ("s", ()),
    "program_builder.build_s": ("s", ()),
    "program_builder.programs": ("count", ()),
    "campaign.build_engine_s": ("s", ("build_engine",)),
    "cache.load_s": ("s", ("cache.load",)),
    "cache.hits": ("count", ("cache.load",)),
    "cache.misses": ("count", ("cache.load",)),
    "cache.store_s": ("s", ("cache.store",)),
    "cache.stores": ("count", ("cache.store",)),
    "cache.merge_s": ("s", ("cache.merge",)),
    "engine.golden_s": ("s", ("golden",)),
    "engine.golden_cycles": ("cycles", ("golden",)),
    "screen.screen_s": ("s", ("screen",)),
    "screen.defects_screened": ("count", ("screen",)),
    "screen.unique_transitions": ("count", ("screen",)),
    "screen.clean": ("count", ("screen",)),
    "screen.peak_mb": ("MB", ("screen",)),
    "evaluator.agreement_calls": ("count", ("agreement",)),
    "evaluator.agreement_s": ("s", ("agreement",)),
    "evaluator.borderline": ("count", ("agreement",)),
    "engine.prepare_s": ("s", ("prepare",)),
    "engine.check_s": ("s", ("check",)),
    "engine.checks": ("count", ("check",)),
    "engine.check_p50_us": ("us", ("check",)),
    "engine.check_p99_us": ("us", ("check",)),
    "engine.judged_clean": ("count", ("check", "resume")),
    "engine.judged_deduped": ("count", ("check", "resume")),
    "engine.judged_replayed": ("count", ("check", "resume")),
    "engine.replay_ratio": ("ratio", ("check", "resume")),
    "engine.dedup_s": ("s", ("check", "resume")),
    "kernel.decide_dedup_calls": ("count", ("decide", "resume")),
    "kernel.decide_replay_calls": ("count", ("decide", "resume")),
    "kernel.decide_s": ("s", ("decide",)),
    "soc.replay_s": ("s", ("resume",)),
    "soc.replays": ("count", ("resume",)),
    "soc.cycles_replayed": ("cycles", ("resume",)),
    "soc.replay_timeouts": ("count", ("resume",)),
    "soc.cycles_per_s": ("1/s", ("resume",)),
    "trace.layer_share": ("ratio", ("build_engine", "prepare", "check")),
    "trace.overhead_s": ("s", ()),
}

#: Spans that sit directly under a campaign and must account for its time.
CAMPAIGN_LAYERS = ("campaign.build_engine", "engine.prepare", "engine.check")


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: (parent span, leaf name) -> [calls, nanoseconds]
        self.leaves: Dict[tuple, List[int]] = {}
        self.installed: set = set()
        #: Defect indices the current campaign's screen verdicts call
        #: clean; ``None`` until a screen or a cache hit supplied verdicts.
        self.clean: Optional[set] = None
        self.resume_depth = 0

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, perf_ns(), 0, parent, None])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = perf_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    @contextmanager
    def campaign(self):
        """Span of one campaign, from its spec to its result."""
        self.clean = None
        with self.span("campaign"):
            yield

    def leaf(self, name: str, elapsed_ns: int) -> None:
        key = (self._stack[-1] if self._stack else -1, name)
        slot = self.leaves.get(key)
        if slot is None:
            self.leaves[key] = [1, elapsed_ns]
        else:
            slot[0] += 1
            slot[1] += elapsed_ns

    def dump(self) -> dict:
        return {
            "fields": ["name", "start_ns", "end_ns", "parent", "attrs"],
            "spans": self.spans,
            "leaves": [
                [parent, name, calls, ns]
                for (parent, name), (calls, ns) in self.leaves.items()
            ],
        }


# ---------------------------------------------------------------------------
# Wrapper installation
# ---------------------------------------------------------------------------


def _resolve(path: str):
    """``"module:Class.attr"`` -> (owner, attr name, current value)."""
    module_name, _, qualname = path.partition(":")
    owner = importlib.import_module(module_name)
    *owners, attr = qualname.split(".")
    for name in owners:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


def _patch(path: str, make: Callable[[Callable], Callable]) -> bool:
    """Replace ``path`` by ``make(original)``; False when it is gone.

    Functions are re-bound in every loaded ``repro`` module that
    imported them by name, so callers see the wrapper too.
    """
    try:
        owner, attr, original = _resolve(path)
    except (ImportError, AttributeError):
        return False
    wrapped = functools.wraps(original)(make(original))
    if isinstance(owner, type):
        setattr(owner, attr, wrapped)
        return True
    for name, module in list(sys.modules.items()):
        if (name == "repro" or name.startswith("repro.")) and getattr(
            module, attr, None
        ) is original:
            setattr(module, attr, wrapped)
    return True


def _spanned(tracer: Tracer, name: str, after=None):
    """Wrapper factory: one span per call, ``after`` reads the result."""

    def make(original):
        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                attrs = after(args, result)
                if attrs:
                    tracer.spans[index][ATTRS] = attrs
            return result

        return wrapper

    return make


def _clean_of_screen(tracer: Tracer):
    def after(args, verdicts):
        clean = {v.defect_index for v in verdicts if v.clean}
        tracer.clean = (tracer.clean or set()) | clean
        return {
            "defects": len(verdicts),
            "clean": len(clean),
            "unique": getattr(args[0], "unique_transitions", 0),
        }

    return after


def _clean_of_load(tracer: Tracer):
    def after(args, entry):
        if entry is None:
            return {"hit": False}
        verdicts = getattr(entry, "verdicts", None)
        if verdicts is not None:
            tracer.clean = (tracer.clean or set()) | {
                index for index, v in verdicts.items() if v.clean
            }
        return {"hit": True}

    return after


def _golden_after(args, capture):
    return {"cycles": capture.golden.cycles}


def _agreement_after(args, agreement):
    return {"borderline": agreement is None}


#: The wrappers untraced runs install: they run once per program, which
#: costs nothing measurable, and prove the run's cache state (cold: no
#: hits; warm: every program a hit and no golden simulation).
PROBES = ("cache.load", "golden")


def install(tracer: Tracer, only=None) -> None:
    """Wrap every layer entry point that exists; record which did.

    ``only`` restricts the wrappers to the named targets.
    """
    targets = {
        "build_engine": (
            "repro.core.campaign:CampaignSpec.build_engine",
            _spanned(tracer, "campaign.build_engine"),
        ),
        "cache.load": (
            "repro.core.cache:GoldenRunCache.load",
            _spanned(tracer, "cache.load", _clean_of_load(tracer)),
        ),
        "cache.store": (
            "repro.core.cache:GoldenRunCache.store",
            _spanned(tracer, "cache.store"),
        ),
        "cache.merge": (
            "repro.core.cache:GoldenRunCache.merge_verdicts",
            _spanned(tracer, "cache.merge"),
        ),
        "golden": (
            "repro.core.engine:capture_golden_with_trace",
            _spanned(tracer, "engine.golden", _golden_after),
        ),
        "screen": (
            "repro.xtalk.screen:TraceScreen.screen",
            _screen_wrapper(tracer),
        ),
        "agreement": (
            "repro.xtalk.screen:DecisionEvaluator.agreement",
            _spanned(tracer, "evaluator.agreement", _agreement_after),
        ),
        "prepare": (
            "repro.core.engine:ScreenedEngine.prepare",
            _spanned(tracer, "engine.prepare"),
        ),
        "check": (
            "repro.core.engine:ScreenedEngine.check",
            _check_wrapper(tracer),
        ),
        "resume": (
            "repro.soc.system:CpuMemorySystem.resume",
            _resume_wrapper(tracer),
        ),
        "decide": (
            "repro.xtalk.kernel:TransitionKernel.decide",
            _decide_wrapper(tracer),
        ),
    }
    for key, (path, make) in targets.items():
        if (only is None or key in only) and _patch(path, make):
            tracer.installed.add(key)


def _screen_wrapper(tracer: Tracer):
    after = _clean_of_screen(tracer)

    def make(original):
        def wrapper(self, *args, **kwargs):
            index = tracer.open("screen.screen")
            tracemalloc.start()
            try:
                result = original(self, *args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                tracer.close(index)
            attrs = after((self,), result)
            attrs["peak_mb"] = peak / 2**20
            tracer.spans[index][ATTRS] = attrs
            return result

        return wrapper

    return make


def _check_wrapper(tracer: Tracer):
    spans = tracer.spans

    def make(original):
        def wrapper(self, defect, *args, **kwargs):
            index = tracer.open("engine.check")
            first_child = len(spans)
            try:
                result = original(self, defect, *args, **kwargs)
            finally:
                tracer.close(index)
            replayed = any(
                spans[i][NAME] == "soc.resume" and spans[i][PARENT] == index
                for i in range(first_child, len(spans))
            )
            if replayed:
                judged = "replayed"
            elif tracer.clean is None:
                judged = "unknown"  # no verdicts seen for this campaign
            elif defect.index in tracer.clean:
                judged = "clean"
            else:
                judged = "deduped"
            spans[index][ATTRS] = {"judged": judged}
            return result

        return wrapper

    return make


def _resume_wrapper(tracer: Tracer):
    def make(original):
        def wrapper(self, *args, **kwargs):
            before = self.cycle
            index = tracer.open("soc.resume")
            tracer.resume_depth += 1
            try:
                result = original(self, *args, **kwargs)
            finally:
                tracer.resume_depth -= 1
                tracer.close(index)
            tracer.spans[index][ATTRS] = {
                "cycles": self.cycle - before,
                "timed_out": not result.halted,
            }
            return result

        return wrapper

    return make


def _decide_wrapper(tracer: Tracer):
    leaf = tracer.leaf

    def make(original):
        def wrapper(self, previous, driven, direction):
            start = perf_ns()
            result = original(self, previous, driven, direction)
            leaf(
                "kernel.decide.replay"
                if tracer.resume_depth
                else "kernel.decide.dedup",
                perf_ns() - start,
            )
            return result

        return wrapper

    return make


# ---------------------------------------------------------------------------
# Per-layer metrics from the recorded spans
# ---------------------------------------------------------------------------


def _percentile(sorted_values: List[float], share: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(1, math.ceil(share * len(sorted_values))) - 1]


def layer_metrics(tracer: Tracer, campaign_ns: int) -> Dict[str, Optional[float]]:
    """Derive every per-layer metric; absent ones map to ``None``.

    Self time is a span's duration minus the time covered by its child
    spans and aggregated leaf calls.
    """
    spans = tracer.spans
    covered = [0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    decide = {"kernel.decide.dedup": [0, 0], "kernel.decide.replay": [0, 0]}
    for (parent, name), (calls, ns) in tracer.leaves.items():
        if parent >= 0:
            covered[parent] += ns
        decide[name][0] += calls
        decide[name][1] += ns

    total: Dict[str, int] = {}
    own: Dict[str, int] = {}
    count: Dict[str, int] = {}
    by_name: Dict[str, List[int]] = {}
    for index, span in enumerate(spans):
        name = span[NAME]
        duration = span[END] - span[START]
        total[name] = total.get(name, 0) + duration
        own[name] = own.get(name, 0) + duration - covered[index]
        count[name] = count.get(name, 0) + 1
        by_name.setdefault(name, []).append(index)

    def attr_sum(name: str, key: str) -> int:
        return sum(spans[i][ATTRS][key] for i in by_name.get(name, ()))

    def seconds(ns: int) -> float:
        return ns / 1e9

    checks = sorted(
        (spans[i][END] - spans[i][START]) / 1e3
        for i in by_name.get("engine.check", ())
    )
    judged = {"clean": 0, "deduped": 0, "replayed": 0, "unknown": 0}
    for i in by_name.get("engine.check", ()):
        judged[spans[i][ATTRS]["judged"]] += 1
    # Check time outside replay: the dedup scan and its bookkeeping.
    replay_in_check = sum(
        spans[i][END] - spans[i][START]
        for i in by_name.get("soc.resume", ())
        if spans[i][PARENT] >= 0 and spans[spans[i][PARENT]][NAME] == "engine.check"
    )
    not_clean = judged["deduped"] + judged["replayed"]
    replay_ns = total.get("soc.resume", 0)
    cycles_replayed = attr_sum("soc.resume", "cycles")
    hits = sum(1 for i in by_name.get("cache.load", ()) if spans[i][ATTRS]["hit"])
    direct = sum(
        span[END] - span[START]
        for span in spans
        if span[NAME] in CAMPAIGN_LAYERS
        and span[PARENT] >= 0
        and spans[span[PARENT]][NAME] == "campaign"
    )

    values: Dict[str, Optional[float]] = {
        "xtalk.library_s": seconds(total.get("xtalk.library", 0)),
        "program_builder.build_s": seconds(total.get("program_builder.build", 0)),
        "program_builder.programs": count.get("program_builder.build", 0),
        "campaign.build_engine_s": seconds(own.get("campaign.build_engine", 0)),
        "cache.load_s": seconds(own.get("cache.load", 0)),
        "cache.hits": hits,
        "cache.misses": count.get("cache.load", 0) - hits,
        "cache.store_s": seconds(own.get("cache.store", 0)),
        "cache.stores": count.get("cache.store", 0),
        "cache.merge_s": seconds(own.get("cache.merge", 0)),
        "engine.golden_s": seconds(total.get("engine.golden", 0)),
        "engine.golden_cycles": attr_sum("engine.golden", "cycles"),
        "screen.screen_s": seconds(total.get("screen.screen", 0)),
        "screen.defects_screened": attr_sum("screen.screen", "defects"),
        "screen.unique_transitions": attr_sum("screen.screen", "unique"),
        "screen.clean": attr_sum("screen.screen", "clean"),
        "screen.peak_mb": max(
            (spans[i][ATTRS]["peak_mb"] for i in by_name.get("screen.screen", ())),
            default=0.0,
        ),
        "evaluator.agreement_calls": count.get("evaluator.agreement", 0),
        "evaluator.agreement_s": seconds(total.get("evaluator.agreement", 0)),
        "evaluator.borderline": sum(
            1
            for i in by_name.get("evaluator.agreement", ())
            if spans[i][ATTRS]["borderline"]
        ),
        "engine.prepare_s": seconds(own.get("engine.prepare", 0)),
        "engine.check_s": seconds(total.get("engine.check", 0)),
        "engine.checks": len(checks),
        "engine.check_p50_us": _percentile(checks, 0.5),
        "engine.check_p99_us": _percentile(checks, 0.99),
        "engine.judged_clean": judged["clean"],
        "engine.judged_deduped": judged["deduped"],
        "engine.judged_replayed": judged["replayed"],
        "engine.replay_ratio": judged["replayed"] / not_clean if not_clean else 0.0,
        "engine.dedup_s": seconds(total.get("engine.check", 0) - replay_in_check),
        "kernel.decide_dedup_calls": decide["kernel.decide.dedup"][0],
        "kernel.decide_replay_calls": decide["kernel.decide.replay"][0],
        "kernel.decide_s": seconds(
            decide["kernel.decide.dedup"][1] + decide["kernel.decide.replay"][1]
        ),
        "soc.replay_s": seconds(replay_ns),
        "soc.replays": count.get("soc.resume", 0),
        "soc.cycles_replayed": cycles_replayed,
        "soc.replay_timeouts": sum(
            1 for i in by_name.get("soc.resume", ()) if spans[i][ATTRS]["timed_out"]
        ),
        "soc.cycles_per_s": cycles_replayed / seconds(replay_ns) if replay_ns else 0.0,
        "trace.layer_share": direct / campaign_ns if campaign_ns else 0.0,
        "trace.overhead_s": None,  # filled in from the untraced runs
    }
    for name, (_, needs) in LAYER_METRICS.items():
        if not all(target in tracer.installed for target in needs):
            values[name] = None
    if judged["unknown"]:
        for name in ("engine.judged_clean", "engine.judged_deduped", "engine.replay_ratio"):
            values[name] = None
    return values


def median_metrics(runs: List[Dict[str, Optional[float]]]) -> Dict[str, Optional[float]]:
    """Per-metric median over traced runs; absent stays absent."""
    merged: Dict[str, Optional[float]] = {}
    for name in LAYER_METRICS:
        present = [run[name] for run in runs if run.get(name) is not None]
        merged[name] = statistics.median(present) if present else None
    return merged
