"""Unit tests for hierarchical spans and the runtime switch."""

from repro.obs import runtime as obs_runtime
from repro.obs.spans import NULL_SPAN, SpanRecorder


def test_span_nesting_builds_a_forest():
    recorder = SpanRecorder()
    with recorder.span("setup"):
        pass
    with recorder.span("campaign", bus="addr"):
        with recorder.span("defect", index=0):
            pass
        with recorder.span("defect", index=1):
            pass
    assert [root.name for root in recorder.roots] == ["setup", "campaign"]
    campaign = recorder.roots[1]
    assert campaign.attrs == {"bus": "addr"}
    assert [child.name for child in campaign.children] == ["defect", "defect"]
    assert campaign.children[1].attrs == {"index": 1}


def test_span_timing_is_monotone_and_nested():
    recorder = SpanRecorder()
    with recorder.span("outer") as outer:
        with recorder.span("inner") as inner:
            pass
    assert outer.start_ns is not None and outer.end_ns is not None
    assert outer.end_ns >= outer.start_ns
    # The child is fully contained in the parent's window.
    assert inner.start_ns >= outer.start_ns
    assert inner.end_ns <= outer.end_ns
    assert outer.duration_ns >= inner.duration_ns


def test_open_span_has_zero_duration():
    recorder = SpanRecorder()
    span = recorder.span("open")
    assert span.duration_ns == 0


def test_phases_are_root_spans_only():
    recorder = SpanRecorder()
    with recorder.span("build"):
        with recorder.span("allocate"):
            pass
    with recorder.span("golden"):
        pass
    phases = recorder.phases()
    assert [p["name"] for p in phases] == ["build", "golden"]
    assert all(p["duration_ns"] >= 0 for p in phases)
    assert all(set(p) == {"name", "start_ns", "duration_ns"} for p in phases)


def test_as_dicts_includes_children_and_attrs():
    recorder = SpanRecorder()
    with recorder.span("campaign", defects=2):
        with recorder.span("defect", index=0):
            pass
    (tree,) = recorder.as_dicts()
    assert tree["name"] == "campaign"
    assert tree["attrs"] == {"defects": 2}
    assert tree["children"][0]["name"] == "defect"


def test_recorder_caps_retained_spans():
    recorder = SpanRecorder(max_spans=2)
    for index in range(5):
        with recorder.span("s", index=index):
            pass
    assert len(recorder.roots) == 2
    assert recorder.dropped == 3


def test_runtime_session_nesting_restores_previous():
    assert obs_runtime.active() is None
    with obs_runtime.session() as outer:
        assert obs_runtime.active() is outer
        with obs_runtime.session() as inner:
            assert obs_runtime.active() is inner
        assert obs_runtime.active() is outer
    assert obs_runtime.active() is None


def test_runtime_suspended_disables_collection():
    with obs_runtime.session() as session:
        with obs_runtime.span("kept"):
            pass
        with obs_runtime.suspended():
            assert obs_runtime.active() is None
            assert obs_runtime.span("lost") is NULL_SPAN
        assert obs_runtime.active() is session
    assert [p["name"] for p in session.spans.phases()] == ["kept"]


def test_runtime_span_is_null_when_disabled():
    assert obs_runtime.active() is None
    assert obs_runtime.span("anything") is NULL_SPAN
    with obs_runtime.span("anything"):
        pass  # usable as a context manager all the same
