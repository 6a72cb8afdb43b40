"""TraceScreen: batch vs scalar agreement, first-corruption exactness, dedup."""

from dataclasses import dataclass

import pytest

from repro.soc.bus import BusDirection
from repro.xtalk.calibration import calibrate
from repro.xtalk.capacitance import extract_capacitance
from repro.xtalk.defects import Defect, generate_defect_library
from repro.xtalk.error_model import CrosstalkErrorModel
from repro.xtalk.geometry import BusGeometry
from repro.xtalk.params import ElectricalParams
from repro.xtalk.kernel import TransitionKernel
from repro.core.engine import capture_golden_with_trace
from repro.xtalk.screen import FIRST_BLOCK, TraceScreen, first_mismatch

WIDTH = 8
ONES = (1 << WIDTH) - 1


@dataclass(frozen=True)
class FakeTransaction:
    previous: int
    driven: int
    direction: BusDirection
    cycle: int


@pytest.fixture(scope="module")
def setup():
    caps = extract_capacitance(BusGeometry.edge_relaxed(WIDTH))
    params = ElectricalParams()
    calibration = calibrate(caps, params)
    library = generate_defect_library(caps, calibration, count=60, seed=7)
    return caps, params, calibration, library


@pytest.fixture(scope="module")
def trace():
    import random

    rng = random.Random(42)
    transactions = []
    value = 0
    for cycle in range(1, 120):
        new = rng.randrange(0, ONES + 1)
        direction = rng.choice(list(BusDirection))
        transactions.append(FakeTransaction(value, new, direction, cycle))
        value = new
    # A few repeats and no-transition entries to exercise deduplication.
    transactions.append(FakeTransaction(value, value, BusDirection.CPU_TO_MEM, 120))
    transactions.extend(
        FakeTransaction(t.previous, t.driven, t.direction, 121 + i)
        for i, t in enumerate(transactions[:10])
    )
    return transactions


def naive_first_corruption(trace, defect, params, calibration):
    model = CrosstalkErrorModel(defect.caps, params, calibration)
    for index, t in enumerate(trace):
        if t.previous == t.driven:
            continue
        if model.corrupt(t.previous, t.driven, t.direction) != t.driven:
            return index
    return None


def _block_of(position):
    """Index of the screening block holding unique ``position``."""
    start, size, block = 0, FIRST_BLOCK, 0
    while position >= start + size:
        start, size, block = start + size, 2 * size, block + 1
    return block


@pytest.mark.parametrize("bus", ["addr", "data"])
def test_screen_matches_screen_one_on_program_traces(request, bus):
    """The block scan retires each defect at its first corrupted unique.

    Both program traces hold several blocks of unique transitions, and
    the libraries retire defects in more than one of them, so a defect
    retired in the wrong block or at the wrong offset shows up as a
    verdict that differs from the scalar scan.
    """
    name = "address" if bus == "addr" else "data"
    setup = request.getfixturevalue(f"{name}_setup")
    program = request.getfixturevalue(f"{name}_program")
    capture = capture_golden_with_trace(program, bus)
    screen = TraceScreen(capture.trace, setup.params, setup.calibration)
    assert screen.unique_transitions > 2 * FIRST_BLOCK
    defects = setup.library.defects
    verdicts = screen.screen(defects)
    assert verdicts == [screen.screen_one(defect) for defect in defects]
    positions = [
        screen._first_occurrence.index(verdict.first_index)
        for verdict in verdicts
        if not verdict.clean
    ]
    assert len({_block_of(position) for position in positions}) >= 2


@pytest.mark.parametrize("path", ["screen", "screen_one"])
def test_first_corruption_matches_error_model(setup, trace, path):
    _, params, calibration, library = setup
    screen = TraceScreen(trace, params, calibration)
    if path == "screen":
        verdicts = screen.screen(library.defects)
    else:
        verdicts = [screen.screen_one(defect) for defect in library]
    for defect, verdict in zip(library, verdicts):
        expected = naive_first_corruption(trace, defect, params, calibration)
        assert verdict.defect_index == defect.index
        if expected is None:
            assert verdict.clean
            assert verdict.first_index is None
        else:
            assert not verdict.clean
            assert verdict.first_index == expected
            assert verdict.first_cycle == trace[expected].cycle


def test_nominal_caps_screen_clean(setup, trace):
    caps, params, calibration, _ = setup
    nominal_defect = Defect(
        index=0, caps=caps, defective_wires=(), severity=1.0
    )
    screen = TraceScreen(trace, params, calibration)
    verdict = screen.screen_one(nominal_defect)
    assert verdict.clean
    assert screen.screen([nominal_defect]) == [verdict]


def test_screen_one_matches_batch(setup, trace):
    _, params, calibration, library = setup
    screen = TraceScreen(trace, params, calibration)
    batch = screen.screen(library.defects)
    for defect, verdict in zip(library, batch):
        assert screen.screen_one(defect) == verdict


def test_deduplication_counts(setup, trace):
    _, params, calibration, _ = setup
    screen = TraceScreen(trace, params, calibration)
    real_transitions = [t for t in trace if t.previous != t.driven]
    distinct = {
        (t.previous, t.driven, t.direction) for t in real_transitions
    }
    assert screen.trace_length == len(trace)
    assert screen.unique_transitions == len(distinct)
    assert screen.unique_transitions < len(real_transitions)


def test_empty_trace_is_all_clean(setup):
    _, params, calibration, library = setup
    screen = TraceScreen([], params, calibration)
    assert all(v.clean for v in screen.screen(library.defects))


def recorded_decisions(trace, defect, params, calibration):
    """What a recorded replay would store: transition -> received word."""
    kernel = TransitionKernel(defect.caps, params, calibration)
    decisions = {}
    for t in trace:
        if t.previous == t.driven:
            continue
        received, _, _ = kernel.decide(t.previous, t.driven, t.direction)
        decisions[(t.previous, t.driven, t.direction)] = received
    return tuple(decisions.items())


def test_first_mismatch_matches_scalar_kernel(setup, trace):
    """The block scan finds each defect's first disagreement with a
    recorded decision map, as a per-entry scalar comparison does."""
    _, params, calibration, library = setup
    recorder = library.defects[0]
    decisions = recorded_decisions(trace, recorder, params, calibration)
    assert len(decisions) > 2 * FIRST_BLOCK, "map must span several blocks"
    transitions = [t for t, _ in decisions]
    targets = [r for _, r in decisions]
    positions = first_mismatch(
        transitions, targets, library.defects, params, calibration
    )
    for defect, position in zip(library, positions):
        kernel = TransitionKernel(defect.caps, params, calibration)
        scalar = next(
            (
                index
                for index, ((prev, driven, direction), received)
                in enumerate(decisions)
                if kernel.decide(prev, driven, direction)[0] != received
            ),
            -1,
        )
        assert position == scalar, defect.index
    retired = {_block_of(position) for position in positions if position >= 0}
    assert len(retired) > 1, "defects must retire in several blocks"
    # The recording defect agrees with its own recorded decisions.
    assert first_mismatch(
        transitions, targets, [recorder], params, calibration
    ) == [-1]


@pytest.mark.parametrize(
    "knob, value",
    [(None, None), ("EPSILON", 1e9), ("MAX_BLOCK_ELEMENTS", 64)],
    ids=["vector", "all-borderline", "many-blocks"],
)
def test_batch_model_matches_scalar_model(setup, trace, knob, value, monkeypatch):
    """corrupt_many + consume give the words and tallies of one corrupt
    call per transition: borderline rows, block edges and no-transition
    words included."""
    from repro.xtalk import screen as screen_module

    if knob is not None:
        monkeypatch.setattr(screen_module, knob, value)
    _, params, calibration, library = setup
    transitions = [(t.previous, t.driven, t.direction) for t in trace]
    totals = {"corruptions": 0, "glitch_errors": 0, "delay_errors": 0}
    for defect in library.defects:
        scalar = CrosstalkErrorModel(defect.caps, params, calibration)
        words = [scalar.corrupt(*transition) for transition in transitions]
        batch = CrosstalkErrorModel(defect.caps, params, calibration)
        received = batch.corrupt_many(transitions)
        assert batch.invocations == 0  # the batch call tallies nothing
        batch.consume(transitions, received)
        assert received == words
        assert batch.stats() == scalar.stats()
        for name in totals:
            totals[name] += scalar.stats()[name]
    assert all(totals.values()), totals
