"""Sled fast-forward: a jump over ``00 00`` (``LDA 0x000``) instructions
must leave the system exactly where stepping them would."""

import pytest

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

    def corrupt_many(self, transitions):
        return [self.decide(*transition) for transition in transitions]

    def consume(self, transitions, received):
        self.log.extend(zip(transitions, received))


class RefusingHook(BatchHook):
    def corrupt_many(self, transitions):
        raise AssertionError("this system must not fast-forward")


def fast_forwarded(session):
    metric = session.registry.snapshot().get("cpu.cycles_fast_forwarded")
    return metric["value"] if metric else 0


def run_both(bus, decide, max_cycles=10_000, image=SLED):
    """Run ``image`` with a batch hook and stepped with a plain one."""
    fast = CpuMemorySystem()
    fast.load_image(image)
    hook = BatchHook(decide)
    getattr(fast, bus).install_corruption_hook(hook)
    with obs_runtime.session() as session:
        fast_result = fast.run(entry=ENTRY, max_cycles=max_cycles)
    stepped = CpuMemorySystem()
    stepped.load_image(image)
    log = []

    def plain(previous, driven, direction):
        received = decide(previous, driven, direction)
        log.append(((previous, driven, direction), received))
        return received

    getattr(stepped, bus).install_corruption_hook(plain)
    stepped_result = stepped.run(entry=ENTRY, max_cycles=max_cycles)
    assert fast_result == stepped_result
    assert fast.snapshot() == stepped.snapshot()
    # Only the transitions the run consumed are judged into the log.
    assert hook.log == log
    skipped = fast_forwarded(session)
    assert skipped > 0
    return fast_result, fast, skipped


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
    "transition, received",
    [
        # The operand address of the sled's 33rd instruction reads the
        # jmp opcode at 0x010 instead of M[0x000]; the sled goes on.
        ((0x241, 0x000), 0x010),
        # A fetch address lands on another zero byte: still ``00``.
        ((0x240, 0x241), 0x2A1),
        # A fetch address lands on the halt jump's opcode: the sled
        # stops there and the CPU executes ``jmp 0x300``.
        ((0x000, 0x240), 0x300),
    ],
    ids=["operand", "fetch-onto-zero", "fetch-onto-code"],
)
def test_sled_with_one_corrupted_transaction(transition, received):
    result, system, skipped = run_both(
        "address_bus", corrupt_one(transition, received)
    )
    assert result.halted
    assert system.address_bus.snapshot().corrupted == 1


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

    def corrupt_many(transitions):
        batches.append(list(transitions))
        return [driven for _, driven, _ in transitions]

    hook.corrupt_many = corrupt_many
    system.address_bus.install_corruption_hook(hook)
    system.run(entry=ENTRY, max_cycles=10_000)
    (batch,) = batches
    to_mem = BusDirection.CPU_TO_MEM
    assert batch[:6] == [
        (0x011, 0x200, to_mem), (0x200, 0x201, to_mem), (0x201, 0x000, to_mem),
        (0x000, 0x202, to_mem), (0x202, 0x203, to_mem), (0x203, 0x000, to_mem),
    ]
    assert len(batch) == 3 * 128
