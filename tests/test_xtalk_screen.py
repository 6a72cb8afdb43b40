"""TraceScreen and the decision tables: table vs scalar kernel agreement,
first-corruption exactness, dedup."""

import random
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.soc.bus import BusDirection
from repro.xtalk.calibration import calibrate
from repro.xtalk.capacitance import CapacitanceSet, extract_capacitance
from repro.xtalk.defects import Defect, generate_defect_library
from repro.xtalk.error_model import CrosstalkErrorModel
from repro.xtalk.geometry import BusGeometry
from repro.xtalk.params import ElectricalParams
from repro.xtalk.kernel import TransitionKernel
from repro.core.engine import _RecordingHook, capture_golden_with_trace
from repro.xtalk.screen import (
    DIRECTION_INDEX,
    TraceScreen,
    TransitionMemo,
    _columns,
    decide_many,
    decision_tables,
    first_mismatch,
)

WIDTH = 8
ONES = (1 << WIDTH) - 1
DIRECTIONS = (BusDirection.CPU_TO_MEM, BusDirection.MEM_TO_CPU)


def columns_of(transitions):
    """The int64 previous, driven and direction-index arrays of a list
    of ``(previous, driven, direction)`` triples."""
    rows = [(p, d, DIRECTION_INDEX[direction]) for p, d, direction in transitions]
    return tuple(np.array(rows, dtype=np.int64).reshape(-1, 3).T.copy())


def mismatches(transitions, targets, defects, params, calibration):
    """``first_mismatch`` over triples and defects, as a list."""
    table, rows = decision_tables([d.caps for d in defects], params, calibration)
    return first_mismatch(
        *columns_of(transitions), np.array(targets, dtype=np.int64), table, rows
    ).tolist()


def decisions_of(transitions, caps, params, calibration):
    """``decide_many`` over triples of both directions, as a list."""
    table, rows = decision_tables([caps], params, calibration)
    previous, driven, directions = columns_of(transitions)
    received = driven.copy()
    for direction in DIRECTIONS:
        at = directions == DIRECTION_INDEX[direction]
        received[at] = decide_many(
            previous[at], driven[at], direction, table[rows[0]]
        )
    return received.tolist()


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


@pytest.mark.parametrize("bus", ["addr", "data"])
def test_screen_matches_screen_one_on_program_traces(request, bus):
    """The table screen finds each defect's first corrupted unique.

    The libraries' first corruptions fall at several trace positions,
    so a defect judged at the wrong unique shows up as a verdict that
    differs from the scalar scan.
    """
    name = "address" if bus == "addr" else "data"
    setup = request.getfixturevalue(f"{name}_setup")
    program = request.getfixturevalue(f"{name}_program")
    capture = capture_golden_with_trace(program, bus)
    screen = TraceScreen(capture.trace, setup.params, setup.calibration)
    defects = setup.library.defects
    verdicts = screen.screen(defects)
    assert verdicts == [screen.screen_one(defect) for defect in defects]
    firsts = {verdict.first_index for verdict in verdicts if not verdict.clean}
    assert len(firsts) >= 2


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
    """The table scan finds each defect's first disagreement with a
    recorded decision map, as a per-entry scalar comparison does."""
    _, params, calibration, library = setup
    recorder = library.defects[0]
    decisions = recorded_decisions(trace, recorder, params, calibration)
    transitions = [t for t, _ in decisions]
    targets = [r for _, r in decisions]
    positions = mismatches(
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
    assert len({position for position in positions if position >= 0}) > 1
    # The recording defect agrees with its own recorded decisions.
    assert mismatches(
        transitions, targets, [recorder], params, calibration
    ) == [-1]


def test_batch_model_matches_scalar_model(setup, trace):
    """The batch form of the model, a screened replay's hook:
    corrupt_many + consume give the words and tallies of one corrupt
    call per transition, no-transition words included."""
    _, params, calibration, library = setup
    defects = library.defects
    table, rows = decision_tables([d.caps for d in defects], params, calibration)
    memo = TransitionMemo(table)
    totals = {"corruptions": 0, "glitch_errors": 0, "delay_errors": 0}
    for defect, row in zip(defects, rows.tolist()):
        scalar = CrosstalkErrorModel(defect.caps, params, calibration)
        batch = _RecordingHook(memo, row)
        for direction in DIRECTIONS:
            transitions = [
                (t.previous, t.driven, direction) for t in trace
                if t.direction is direction
            ]
            words = [scalar.corrupt(*transition) for transition in transitions]
            previous, driven, _ = columns_of(transitions)
            before = batch.stats()
            received = batch.corrupt_many(previous, driven, direction)
            assert batch.stats() == before  # the batch call tallies nothing
            batch.consume(previous, driven, direction, received)
            assert received.tolist() == words
        assert batch.stats() == scalar.stats()
        for name in totals:
            totals[name] += scalar.stats()[name]
    assert all(totals.values()), totals


@pytest.fixture(scope="module")
def library_sets(setup, address_setup):
    """``width -> (params, calibration, defects)`` for the 8-wire test
    library and the 12-wire address-bus library."""
    _, params, calibration, library = setup
    return {
        WIDTH: (params, calibration, library.defects),
        12: (
            address_setup.params, address_setup.calibration,
            address_setup.library.defects[:200],
        ),
    }


@st.composite
def transitions_on(draw, width):
    """Random ``(previous, driven, direction)`` triples on a
    ``width``-bit bus, some with ``previous == driven``."""
    words = st.integers(0, (1 << width) - 1)
    directions = st.sampled_from(DIRECTIONS)
    moving = st.tuples(words, words, directions)
    still = st.tuples(words, directions).map(lambda t: (t[0], t[0], t[1]))
    return draw(st.lists(st.one_of(moving, still), max_size=120))


@settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_replay_hook_matches_scalar_kernel(library_sets, data):
    """One call per transition: the hook's received words and tallies
    equal CrosstalkErrorModel.corrupt for two defects of one table, and
    the second defect's hook is served by memo entries the first one
    built."""
    width = data.draw(st.sampled_from(sorted(library_sets)))
    params, calibration, defects = library_sets[width]
    table, rows = decision_tables([d.caps for d in defects], params, calibration)
    memo = TransitionMemo(table)
    transitions = data.draw(transitions_on(width))
    picks = data.draw(
        st.lists(st.integers(0, len(defects) - 1), min_size=2, max_size=2)
    )
    sizes = []
    for pick in picks:
        scalar = CrosstalkErrorModel(defects[pick].caps, params, calibration)
        hook = _RecordingHook(memo, int(rows[pick]))
        words = [hook(*transition) for transition in transitions]
        assert words == [scalar.corrupt(*t) for t in transitions]
        assert hook.stats() == scalar.stats()
        assert hook.decisions == {
            t: word for t, word in zip(transitions, words) if t[0] != t[1]
        }
        sizes.append(len(memo))
    # The second defect read the first one's entries: none was added.
    assert sizes[0] == sizes[1] == len(
        {t for t in transitions if t[0] != t[1]}
    )
    assert all(key[0] != key[1] for key in memo)


def test_transition_memo_keeps_only_flippable_columns(address_setup):
    """An entry lists a wire only where some row of its table can flip
    it; the columns listed are the transition's table columns."""
    params, calibration = address_setup.params, address_setup.calibration
    defects = address_setup.library.defects
    table, _ = decision_tables([d.caps for d in defects], params, calibration)
    memo = TransitionMemo(table)
    live = table.any(axis=0)
    assert 0 < live.sum() < live.size
    rng = random.Random(5)
    for _ in range(300):
        previous, driven = rng.getrandbits(12), rng.getrandbits(12)
        direction = rng.choice(DIRECTIONS)
        if previous == driven:
            continue
        columns = _columns(
            np.array([previous]), np.array([driven]), 12
        )[0] + DIRECTION_INDEX[direction] * (12 << 6)
        assert memo[previous, driven, direction] == tuple(
            (1 << wire, int(column)) for wire, column in enumerate(columns)
            if live[column]
        )


# -- decision tables against the scalar kernel ---------------------------------


@st.composite
def nearest_neighbour_libraries(draw):
    """A 2-12 wire bus with nearest-neighbour coupling, its nominal
    calibration, and 1-3 defects with random couplings (zero included,
    so some wires lack a neighbour) and ground capacitances."""
    width = draw(st.integers(2, 12))
    nominal = extract_capacitance(BusGeometry.uniform(width))
    params = ElectricalParams(
        r_driver_cpu=draw(st.floats(500.0, 1500.0)),
        r_driver_mem=draw(st.floats(500.0, 1500.0)),
    )
    calibration = calibrate(nominal, params)
    gap = nominal.coupling[0][1]
    factors = st.one_of(st.just(0.0), st.floats(0.0, 3.0))
    defects = []
    for index in range(draw(st.integers(1, 3))):
        coupling = [[0.0] * width for _ in range(width)]
        for i in range(width - 1):
            value = gap * draw(factors)
            coupling[i][i + 1] = coupling[i + 1][i] = value
        ground = tuple(
            nominal.ground[i] * draw(st.floats(0.25, 2.0)) for i in range(width)
        )
        caps = CapacitanceSet(tuple(map(tuple, coupling)), ground)
        defects.append(Defect(index, caps, defective_wires=(), severity=1.0))
    return params, calibration, defects


def transition_showing(window, wire, width, rng):
    """Random ``(previous, driven)`` words whose bits at wires
    ``wire - 1 .. wire + 1`` are the 6-bit ``window``; ``None`` when
    the window sets a bit beyond an edge wire."""
    mask = (1 << width) - 1
    before = (window >> 3) << wire >> 1
    after = (window & 7) << wire >> 1
    edges = (window >> 3, window & 7)
    if (wire == 0 and any(w & 1 for w in edges)) or (
        wire == width - 1 and any(w & 4 for w in edges)
    ):
        return None
    keep = mask & ~(7 << wire >> 1)
    previous = (rng.getrandbits(width) & keep) | before
    driven = (rng.getrandbits(width) & keep) | after
    return previous, driven


@settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(library=nearest_neighbour_libraries(), seed=st.integers(0, 2**32 - 1))
def test_decision_table_matches_kernel_at_every_window(library, seed):
    """Every (direction, wire, window) entry is the kernel's decision on
    a transition that shows that window, edge wires included."""
    params, calibration, defects = library
    rng = random.Random(seed)
    table, rows = decision_tables([d.caps for d in defects], params, calibration)
    for defect, row in zip(defects, rows):
        width = defect.caps.wire_count
        flips = table[row].reshape(2, width, 64)
        decide = TransitionKernel(defect.caps, params, calibration).decide
        for d, direction in enumerate(DIRECTIONS):
            for wire in range(width):
                for window in range(64):
                    words = transition_showing(window, wire, width, rng)
                    if words is None:
                        continue
                    previous, driven = words
                    received = decide(previous, driven, direction)[0]
                    if previous == driven:
                        # Nothing moves anywhere: received as driven,
                        # and a quiet window never flips.
                        assert not flips[d, wire, window]
                        continue
                    flipped = bool((received ^ driven) >> wire & 1)
                    assert flips[d, wire, window] == flipped


def scalar_first_mismatch(transitions, targets, kernel):
    for position, (transition, target) in enumerate(zip(transitions, targets)):
        if kernel.decide(*transition)[0] != target:
            return position
    return -1


@settings(
    max_examples=25, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(library=nearest_neighbour_libraries(), data=st.data())
def test_first_mismatch_and_decide_many_match_a_scalar_loop(library, data):
    """Random transition lists and targets: one recorder's received
    words with random wires flipped at random positions."""
    params, calibration, defects = library
    width = defects[0].caps.wire_count
    mask = (1 << width) - 1
    transitions = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, mask), st.integers(0, mask),
                st.sampled_from(DIRECTIONS),
            ),
            max_size=400,
        )
    )
    kernels = [TransitionKernel(d.caps, params, calibration) for d in defects]
    for defect, kernel in zip(defects, kernels):
        assert decisions_of(transitions, defect.caps, params, calibration) == [
            kernel.decide(*transition)[0] for transition in transitions
        ]
    recorder = data.draw(st.sampled_from(kernels))
    targets = [recorder.decide(*transition)[0] for transition in transitions]
    if transitions:
        for position, flips in data.draw(
            st.lists(
                st.tuples(st.integers(0, len(transitions) - 1),
                          st.integers(1, mask)),
                max_size=3,
            )
        ):
            targets[position] ^= flips
    assert mismatches(
        transitions, targets, defects, params, calibration
    ) == [scalar_first_mismatch(transitions, targets, k) for k in kernels]


def test_long_lists_match_a_scalar_loop(address_setup):
    """3 000 transitions on the 12-wire bus, more than one pass of the
    earlier block scan held, with targets that first differ late."""
    rng = random.Random(2001)
    params, calibration = address_setup.params, address_setup.calibration
    defects = address_setup.library.defects[:8]
    transitions = [
        (rng.getrandbits(12), rng.getrandbits(12), rng.choice(DIRECTIONS))
        for _ in range(3000)
    ]
    kernels = [TransitionKernel(d.caps, params, calibration) for d in defects]
    targets = [kernels[0].decide(*transition)[0] for transition in transitions]
    targets[2900] ^= 1 << 5
    expected = [scalar_first_mismatch(transitions, targets, k) for k in kernels]
    assert expected[0] == 2900
    assert mismatches(
        transitions, targets, defects, params, calibration
    ) == expected
    assert decisions_of(transitions, defects[3].caps, params, calibration) == [
        kernels[3].decide(*transition)[0] for transition in transitions
    ]


def sled_shaped(rng, width):
    """A few windows repeated over and over, as sled jumps record them:
    an address-bus sled's words and a data-bus sled's six transitions,
    tiled, with a stretch of random transitions between them."""
    to_mem, to_cpu = DIRECTIONS
    mask = (1 << width) - 1
    start = rng.randrange(0, mask - 600) & ~1
    address = [(0, start, to_mem)]
    for pc in range(start, start + 600, 2):
        address += [(pc, pc + 1, to_mem), (pc + 1, 0, to_mem), (0, pc + 2, to_mem)]
    loaded = rng.randrange(1, 256) & mask
    data = [(0x5A & mask, 0, to_cpu), (0, 0, to_cpu), (0, loaded, to_cpu)]
    data += [(loaded, 0, to_cpu), (0, 0, to_cpu), (0, loaded, to_cpu)] * 300
    noise = [
        (rng.getrandbits(width), rng.getrandbits(width), rng.choice(DIRECTIONS))
        for _ in range(50)
    ]
    return address + noise + data + address


@pytest.mark.parametrize("seed", range(6))
def test_sled_shaped_lists_match_a_scalar_loop(address_setup, seed):
    """Heavy repeats: the same windows on thousands of transitions, with
    targets that first differ at a repeat of an early transition, so a
    position that is not a first occurrence shows."""
    rng = random.Random(seed)
    params, calibration = address_setup.params, address_setup.calibration
    defects = address_setup.library.defects
    transitions = sled_shaped(rng, 12)
    kernels = [TransitionKernel(d.caps, params, calibration) for d in defects]
    recorder = kernels[seed]
    targets = [recorder.decide(*transition)[0] for transition in transitions]
    for _ in range(seed % 3):
        targets[rng.randrange(len(targets))] ^= 1 << rng.randrange(12)
    expected = [scalar_first_mismatch(transitions, targets, k) for k in kernels]
    assert expected[seed] == -1 or seed % 3
    assert len(set(expected)) > 1
    assert mismatches(
        transitions, targets, defects, params, calibration
    ) == expected


def test_empty_lists(address_setup):
    params, calibration = address_setup.params, address_setup.calibration
    defects = address_setup.library.defects[:5]
    assert mismatches([], [], defects, params, calibration) == [-1] * 5
    # No sets: nothing to report, whatever the transitions.
    table, _ = decision_tables([d.caps for d in defects], params, calibration)
    transitions = [(1, 2, DIRECTIONS[0]), (3, 3, DIRECTIONS[1])]
    assert first_mismatch(
        *columns_of(transitions), np.array([0, 0], dtype=np.int64),
        table, np.zeros(0, dtype=np.intp),
    ).tolist() == []
    assert decisions_of([], defects[0].caps, params, calibration) == []


def test_library_rows_share_one_table(setup):
    """A subset of a built library gathers from the library's table."""
    _, params, calibration, library = setup
    caps = [defect.caps for defect in library.defects]
    table, rows = decision_tables(caps, params, calibration)
    assert table.shape == (len(caps), 2 * WIDTH * 64)
    subset, subset_rows = decision_tables(caps[5:9], params, calibration)
    assert subset is table
    assert subset_rows.tolist() == rows[5:9].tolist()


def test_tables_reject_buses_wider_than_their_word_space(setup):
    _, params, _, _ = setup
    nominal = extract_capacitance(BusGeometry.uniform(17))
    calibration = calibrate(nominal, params)
    with pytest.raises(ValueError, match="17-wire bus"):
        decision_tables([nominal], params, calibration)


def test_tables_reject_couplings_beyond_neighbours(setup, trace):
    _, params, calibration, _ = setup
    nominal = extract_capacitance(BusGeometry.uniform(WIDTH))
    coupling = [list(row) for row in nominal.coupling]
    coupling[2][4] = coupling[4][2] = 1.0
    caps = CapacitanceSet(tuple(map(tuple, coupling)), nominal.ground)
    assert caps.reach == 2
    far = Defect(index=0, caps=caps, defective_wires=(), severity=1.0)
    transitions = [(t.previous, t.driven, t.direction) for t in trace]
    with pytest.raises(ValueError, match="wires 2 and 4"):
        mismatches(
            transitions, [t[1] for t in transitions], [far], params, calibration
        )
    with pytest.raises(ValueError, match="wires 2 and 4"):
        decisions_of(transitions, caps, params, calibration)
