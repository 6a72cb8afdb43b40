"""Sled fast-forward: a jump over ``00 00`` (``LDA 0x000``) instructions
must leave the system exactly where stepping them would."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.obs import runtime as obs_runtime
from repro.soc.bus import BusDirection
from repro.soc.system import CpuMemorySystem, RunEnd

#: M[0x000] = 0x85 (the sled's operand: sets N), ``jmp 0x200`` at the
#: entry 0x010, zero memory from 0x200, and the halt ``jmp 0x300`` at
#: 0x300: a 128-instruction sled, 1024 cycles.
SLED = {0x000: 0x85, 0x010: 0x82, 0x011: 0x00, 0x300: 0x83, 0x301: 0x00}
ENTRY = 0x010


class BatchHook:
    """A pure corruption function with the batch form; logs what it
    judged for the run in order, scalar calls and consumed sleds alike."""

    def __init__(self, decide):
        self.decide = decide
        self.log = []

    def __call__(self, previous, driven, direction):
        received = self.decide(previous, driven, direction)
        self.log.append(((previous, driven, direction), received))
        return received

    def corrupt_many(self, previous, driven, direction):
        assert previous.dtype == driven.dtype == np.int64
        return np.array(
            [
                self.decide(old, new, direction)
                for old, new in zip(previous.tolist(), driven.tolist())
            ],
            dtype=np.int64,
        )

    def consume(self, previous, driven, direction, received):
        self.log.extend(
            ((old, new, direction), word)
            for old, new, word in zip(
                previous.tolist(), driven.tolist(), received.tolist()
            )
        )


class RefusingHook(BatchHook):
    def corrupt_many(self, previous, driven, direction):
        raise AssertionError("this system must not fast-forward")


def fast_forwarded(session):
    metric = session.registry.snapshot().get("cpu.cycles_fast_forwarded")
    return metric["value"] if metric else 0


def compare(bus, decide, max_cycles=10_000, image=SLED, entry=ENTRY):
    """Run ``image`` with a batch hook and stepped with a plain one;
    both runs must end alike, in the same state, having judged the same
    transitions.  The result, fast system and cycles skipped."""
    fast = CpuMemorySystem()
    fast.load_image(image)
    hook = BatchHook(decide)
    getattr(fast, bus).install_corruption_hook(hook)
    with obs_runtime.session() as session:
        fast_result = fast.run(entry=entry, max_cycles=max_cycles)
    stepped = CpuMemorySystem()
    stepped.load_image(image)
    log = []

    def plain(previous, driven, direction):
        received = decide(previous, driven, direction)
        log.append(((previous, driven, direction), received))
        return received

    getattr(stepped, bus).install_corruption_hook(plain)
    stepped_result = stepped.run(entry=entry, max_cycles=max_cycles)
    assert fast_result == stepped_result
    assert fast.snapshot() == stepped.snapshot()
    # Only the transitions the run consumed are judged into the log.
    assert hook.log == log
    return fast_result, fast, fast_forwarded(session)


def run_both(bus, decide, max_cycles=10_000, image=SLED, entry=ENTRY):
    """:func:`compare`, for a run that must fast-forward."""
    result, system, skipped = compare(bus, decide, max_cycles, image, entry)
    assert skipped > 0
    return result, system, skipped


def corrupt_one(transition, received):
    def decide(previous, driven, direction):
        if (previous, driven) == transition:
            return received
        return driven

    return decide


def test_clean_sled_is_jumped_whole():
    result, system, skipped = run_both("address_bus", corrupt_one(None, 0))
    assert result.end is RunEnd.HALTED
    assert skipped == 128 * 8
    assert system.cpu.ac == 0x85


@pytest.mark.parametrize(
    "transition, received, skipped_instructions",
    [
        # The operand address of the sled's 33rd instruction reads the
        # jmp opcode at 0x010 instead of M[0x000]; the sled goes on.
        ((0x241, 0x000), 0x010, 128),
        # A fetch address lands on another zero byte: still ``00``.
        ((0x240, 0x241), 0x2A1, 128),
        # A fetch address lands on the halt jump's opcode: the sled
        # stops there and the CPU executes ``jmp 0x300``.
        ((0x000, 0x240), 0x300, 32),
    ],
    ids=["operand", "fetch-onto-zero", "fetch-onto-code"],
)
def test_sled_with_one_corrupted_transaction(
    transition, received, skipped_instructions
):
    result, system, skipped = run_both(
        "address_bus", corrupt_one(transition, received)
    )
    assert result.halted
    assert system.address_bus.snapshot().corrupted == 1
    assert skipped == 8 * skipped_instructions


#: The entry jump takes 6 cycles, then every sled instruction 8: budgets
#: of 6 + 8k stop right after a jump, where the snapshot shows every
#: register, latch and held word it set; the others stop mid-instruction.
@pytest.mark.parametrize("budget", [300, 301, 406, 1000, 1030, 1033])
def test_sled_into_the_budget(budget):
    result, system, skipped = run_both(
        "address_bus", corrupt_one((0x221, 0x000), 0x011), max_cycles=budget
    )
    assert result.end is RunEnd.BUDGET
    assert result.cycles == budget
    assert budget - skipped < 2 * 8 + 8  # entry jump + the partial tail


def test_sled_to_the_top_of_memory():
    # jmp 0xF00 into zeros up to 0xFFF: pc wraps to the halt at 0x000.
    image = {0x000: 0x80, 0x001: 0x00, 0x010: 0x8F, 0x011: 0x00}
    result, system, skipped = run_both(
        "address_bus", corrupt_one(None, 0), image=image
    )
    assert result.halted
    assert skipped == 128 * 8


def test_data_bus_sled():
    # Every operand read (0x00 -> 0x85) is received as 0x05.
    result, system, skipped = run_both(
        "data_bus", corrupt_one((0x00, 0x85), 0x05)
    )
    assert result.halted
    assert system.cpu.ac == 0x05
    assert skipped == 128 * 8


def test_data_bus_fetch_corruption_stops_the_sled():
    # The second instruction's first fetch (0x85 -> 0x00) is received as
    # 0x83: ``jmp 0x300``, which halts.
    result, system, skipped = run_both(
        "data_bus", corrupt_one((0x85, 0x00), 0x83)
    )
    assert result.halted
    assert skipped == 8


@pytest.mark.parametrize("budget", [406, 555])
def test_data_bus_sled_into_the_budget(budget):
    result, _, _ = run_both(
        "data_bus", corrupt_one((0x00, 0x85), 0x84), max_cycles=budget
    )
    assert result.end is RunEnd.BUDGET


#: ``jmp 0x201`` from the entry: a sled at odd addresses up to the
#: halt ``jmp 0x301``, 128 instructions.
ODD_SLED = {0x000: 0x85, 0x010: 0x82, 0x011: 0x01, 0x301: 0x83, 0x302: 0x01}


@pytest.mark.parametrize(
    "transition, received, skipped_instructions",
    [
        (None, 0, 128),
        # The 17th instruction's second fetch reads the halt's opcode:
        # it is ``lda 0x083``, stepped, and the sled goes on after it.
        ((0x221, 0x222), 0x301, 127),
        # An operand address reads the entry jump's operand byte.
        ((0x250, 0x000), 0x011, 128),
    ],
    ids=["clean", "fetch-onto-code", "operand"],
)
def test_sled_from_an_odd_pc(transition, received, skipped_instructions):
    result, system, skipped = run_both(
        "address_bus", corrupt_one(transition, received), image=ODD_SLED
    )
    assert result.halted
    assert skipped == 8 * skipped_instructions


#: ``jmp 0x2A0``: the data bus holds 0xA0, the jump's operand byte, when
#: the sled starts, so its first instruction fetches from another held
#: word than the rest.  M[0x000] = 0x85 is the operand every
#: instruction loads.
HELD_SLED = {0x000: 0x85, 0x010: 0x82, 0x011: 0xA0, 0x300: 0x83, 0x301: 0x00}


@pytest.mark.parametrize(
    "transition, received, skipped_instructions",
    [
        # The first fetch, 0xA0 -> 0x00, is received as ``jmp``: no sled.
        ((0xA0, 0x00), 0x83, 0),
        # Every operand read, 0x00 -> 0x85, is received as 0x05.
        ((0x00, 0x85), 0x05, 48),
        # Every later instruction's first fetch, 0x85 -> 0x00, is received
        # as ``jmp``: the sled stops after one instruction.
        ((0x85, 0x00), 0x83, 1),
        # The second fetch of every instruction, 0x00 -> 0x00, reads as
        # ``lda 0x010``: a pure hook may corrupt a word that does not move.
        ((0x00, 0x00), 0x10, 0),
    ],
    ids=["first-fetch", "operand", "later-fetch", "quiet-fetch"],
)
def test_data_bus_sled_from_another_held_word(
    transition, received, skipped_instructions
):
    result, system, skipped = compare(
        "data_bus", corrupt_one(transition, received), image=HELD_SLED
    )
    assert result.halted
    assert skipped == 8 * skipped_instructions


def test_data_bus_sled_of_one_instruction():
    # Zeros only at 0x2FE-0x2FF: one instruction, then the halt.
    image = {0x000: 0x85, 0x010: 0x82, 0x011: 0xFE, 0x300: 0x83, 0x301: 0x00}
    result, system, skipped = run_both(
        "data_bus", corrupt_one((0x85, 0x00), 0x83), image=image
    )
    assert result.halted
    assert skipped == 8
    assert system.cpu.ac == 0x85


def mix(*words):
    """A deterministic 32-bit hash of small integers."""
    value = 0x811C9DC5
    for word in words:
        value = ((value ^ word) * 0x01000193) & 0xFFFFFFFF
        value ^= value >> 13
    return value


@st.composite
def sparse_runs(draw):
    """A bus, a mostly-zero image with a few random bytes, an entry, a
    budget and a random pure hook (a hash of the transition decides
    whether it is corrupted and how)."""
    bus = draw(st.sampled_from(["address_bus", "data_bus"]))
    image = draw(
        st.dictionaries(
            st.integers(0, 0xFFF), st.integers(0, 0xFF), max_size=24
        )
    )
    entry = draw(st.integers(0, 0xFFF))
    max_cycles = draw(st.integers(1, 4000))
    seed = draw(st.integers(0, 2**32 - 1))
    rate = draw(st.integers(1, 64))
    mask = 0xFFF if bus == "address_bus" else 0xFF

    def decide(previous, driven, direction):
        value = mix(seed, previous, driven, direction is BusDirection.MEM_TO_CPU)
        if value % rate:
            return driven
        return driven ^ ((value >> 8) & mask)

    return bus, image, entry, max_cycles, decide


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(run=sparse_runs())
def test_fast_run_equals_stepped_run(run):
    """Random sparse images and random pure hooks on either bus: the
    fast run ends alike, in the same state, having consumed the same
    transitions as the stepped one (:func:`compare`)."""
    bus, image, entry, max_cycles, decide = run
    compare(bus, decide, max_cycles, image, entry)


def _refused(system, bus="address_bus"):
    system.load_image(SLED)
    hook = RefusingHook(corrupt_one(None, 0))
    getattr(system, bus).install_corruption_hook(hook)
    with obs_runtime.session() as session:
        result = system.run(entry=ENTRY, max_cycles=2_000)
    assert fast_forwarded(session) == 0
    return result


def test_no_fast_forward_with_mmio():
    from repro.soc.mmio import MMIORegion, RegisterCore

    system = CpuMemorySystem(
        mmio_regions=[MMIORegion(base=0xF00, size=8,
                                 core=RegisterCore(register_count=8))]
    )
    assert _refused(system).halted


def test_no_fast_forward_with_a_bus_observer():
    system = CpuMemorySystem()
    seen = []
    system.data_bus.add_observer(seen.append)
    assert _refused(system).halted
    assert len(seen) > 3 * 128


def test_no_fast_forward_on_the_reference_core():
    from repro.cpu.lockstep import reference_system

    assert _refused(reference_system()).halted


def test_observed_run_clocks_like_an_unobserved_one():
    decide = corrupt_one((0x241, 0x000), 0x010)
    systems, hooks = [], []
    for _ in range(2):
        system = CpuMemorySystem()
        system.load_image(SLED)
        hooks.append(BatchHook(decide))
        system.address_bus.install_corruption_hook(hooks[-1])
        systems.append(system)
    observed, unobserved = systems
    with obs_runtime.session() as session:
        observed_result = observed.run(entry=ENTRY, max_cycles=10_000)
    assert fast_forwarded(session) > 0
    assert unobserved.run(entry=ENTRY, max_cycles=10_000) == observed_result
    assert observed.snapshot() == unobserved.snapshot()
    assert hooks[0].log == hooks[1].log


def test_no_fast_forward_with_hooks_on_both_buses():
    system = CpuMemorySystem()
    system.data_bus.install_corruption_hook(lambda p, d, direction: d)
    assert _refused(system).halted


def test_no_fast_forward_without_the_batch_form():
    system = CpuMemorySystem()
    system.load_image(SLED)
    system.address_bus.install_corruption_hook(corrupt_one(None, 0))
    with obs_runtime.session() as session:
        assert system.run(entry=ENTRY, max_cycles=2_000).halted
    assert fast_forwarded(session) == 0


def test_batch_transitions_are_the_predicted_bus_words():
    system = CpuMemorySystem()
    system.load_image(SLED)
    hook = BatchHook(corrupt_one(None, 0))
    batches = []

    def corrupt_many(previous, driven, direction):
        batches.append((previous.tolist(), driven.tolist(), direction))
        return driven.copy()

    hook.corrupt_many = corrupt_many
    system.address_bus.install_corruption_hook(hook)
    system.run(entry=ENTRY, max_cycles=10_000)
    ((previous, driven, direction),) = batches
    assert direction is BusDirection.CPU_TO_MEM
    assert list(zip(previous, driven))[:6] == [
        (0x011, 0x200), (0x200, 0x201), (0x201, 0x000),
        (0x000, 0x202), (0x202, 0x203), (0x203, 0x000),
    ]
    assert len(driven) == 3 * 128


# -- hang proof soundness ----------------------------------------------------


def stepped_run(bus, decide, image, entry, max_cycles):
    """Step ``image`` with a plain hook until it halts or the budget
    runs out; the system and the set of transitions the hook saw."""
    system = CpuMemorySystem()
    system.load_image(image)
    transitions = set()

    def plain(previous, driven, direction):
        transitions.add((previous, driven))
        return decide(previous, driven, direction)

    getattr(system, bus).install_corruption_hook(plain)
    system.reset(entry)
    while system.cycle < max_cycles and not system.cpu.halted:
        system.step()
    return system, transitions


@settings(
    max_examples=80, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_proven_loops_never_halt(data):
    """Random code, a halt, a few stray bytes and a hook corrupting one
    transition the clean run makes: ``run`` halts exactly when a plain
    ``step`` loop to the same budget does, in the same cycle and memory,
    so a ``LOOP`` end is never a run that would have halted."""
    bus = data.draw(st.sampled_from(["address_bus", "data_bus"]))
    entry = data.draw(st.integers(0, 0xFC0))
    code = data.draw(st.binary(min_size=1, max_size=48))
    image = {entry + offset: byte for offset, byte in enumerate(code)}
    # A halt jump after the code, so straight-line runs halt.
    halt = entry + len(code)
    image.update({halt: 0x80 | halt >> 8, halt + 1: halt & 0xFF})
    image.update(
        data.draw(
            st.dictionaries(
                st.integers(0, 0xFFF), st.integers(0, 0xFF), max_size=8
            )
        )
    )
    max_cycles = data.draw(st.integers(1, 6000))
    _, transitions = stepped_run(
        bus, corrupt_one(None, 0), image, entry, max_cycles
    )
    transition = data.draw(st.sampled_from([None, *sorted(transitions)]))
    mask = 0xFFF if bus == "address_bus" else 0xFF
    decide = corrupt_one(transition, data.draw(st.integers(0, mask)))
    stepped, _ = stepped_run(bus, decide, image, entry, max_cycles)
    fast = CpuMemorySystem()
    fast.load_image(image)
    getattr(fast, bus).install_corruption_hook(BatchHook(decide))
    result = fast.run(entry=entry, max_cycles=max_cycles)
    assert result.halted == stepped.cpu.halted
    if result.halted:
        assert result.cycles == stepped.cycle
        assert fast.memory.snapshot() == stepped.memory.snapshot()
    if result.end is RunEnd.LOOP:
        assert not stepped.cpu.halted and stepped.cycle == max_cycles
