"""Engine equivalence: screened == exact, replay-from-reset exactness."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import default_bus_setup
from repro.core.campaign import CampaignSpec, run_campaign, run_defects
from repro.core.engine import (
    ExactEngine,
    ScreenedEngine,
    capture_golden_with_trace,
)
from repro.core.program_builder import SelfTestProgramBuilder
from repro.core.signature import build_base_image, capture_golden, make_system
from repro.soc.mmio import MMIORegion, RegisterCore


@pytest.fixture(scope="module")
def builder():
    return SelfTestProgramBuilder()


@pytest.fixture(scope="module")
def addr_program(builder):
    return builder.build_address_bus_program()


@pytest.fixture(scope="module")
def data_program(builder):
    return builder.build_data_bus_program()


@pytest.fixture(scope="module")
def addr_setup():
    return default_bus_setup(12, defect_count=50, seed=11)


@pytest.fixture(scope="module")
def data_setup():
    return default_bus_setup(8, defect_count=50, seed=11)


def campaign(program, setup, bus, engine):
    return CampaignSpec(
        program, setup.params, setup.calibration, tuple(setup.library), bus,
        engine=engine,
    )


def outcomes(program, setup, bus, engine):
    return run_campaign(campaign(program, setup, bus, engine)).outcomes


def test_screened_equals_exact_on_address_bus(addr_program, addr_setup):
    exact = outcomes(addr_program, addr_setup, "addr", engine="exact")
    screened = outcomes(addr_program, addr_setup, "addr", engine="screened")
    assert screened == exact


def test_screened_equals_exact_on_data_bus(data_program, data_setup):
    exact = outcomes(data_program, data_setup, "data", engine="exact")
    screened = outcomes(data_program, data_setup, "data", engine="screened")
    assert screened == exact


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**16), count=st.integers(1, 12))
def test_screened_equals_exact_on_random_libraries(addr_program, seed, count):
    setup = default_bus_setup(12, defect_count=count, seed=seed)
    exact = outcomes(addr_program, setup, "addr", "exact")
    engine = ScreenedEngine(
        addr_program, setup.params, setup.calibration, "addr"
    )
    screened = run_defects(engine, setup.library, "addr")
    assert screened == exact


def test_per_line_programs_equivalent(builder, addr_setup):
    """Small per-line programs (the Fig. 11 shape screening accelerates)."""
    faults = [f for f in builder.address_faults() if f.victim in (0, 5, 11)]
    program = builder.build_address_bus_program(faults)
    assert outcomes(program, addr_setup, "addr", engine="screened") == \
        outcomes(program, addr_setup, "addr", engine="exact")


def test_simulate_without_prepare(addr_program, addr_setup):
    """Single-defect path must screen lazily (no prepare batch)."""
    exact = campaign(addr_program, addr_setup, "addr", "exact").build_engine()
    screened = ScreenedEngine(
        addr_program, addr_setup.params, addr_setup.calibration, "addr"
    )
    for defect in addr_setup.library.defects[:5]:
        assert screened.check(defect) == exact.check(defect)
    assert set(screened.verdicts) == {
        defect.index for defect in addr_setup.library.defects[:5]
    }


def test_engines_share_golden_reference(addr_program, addr_setup):
    golden = capture_golden(addr_program)
    for engine in (
        ExactEngine(
            addr_program, addr_setup.params, addr_setup.calibration, "addr"
        ),
        ScreenedEngine(
            addr_program, addr_setup.params, addr_setup.calibration, "addr"
        ),
    ):
        assert engine.golden.snapshot == golden.snapshot
        assert engine.golden.cycles == golden.cycles
        assert engine.golden.instructions == golden.instructions


def test_capture_golden_with_trace(addr_program):
    capture = capture_golden_with_trace(addr_program, "addr")
    golden = capture_golden(addr_program)
    assert capture.golden.snapshot == golden.snapshot
    assert capture.golden.cycles == golden.cycles
    assert capture.trace, "address bus trace must not be empty"


def test_stepped_prefix_then_resume_reproduces_golden(addr_program):
    """reset + step() to cycle c + resume == the uninterrupted golden run."""
    golden = capture_golden(addr_program)
    for cut in (0, 1, 2, 7, golden.cycles // 2, golden.cycles - 1):
        system = make_system(addr_program)
        system.reset(addr_program.entry)
        while system.cycle < cut:
            system.step()
        result = system.resume(max_cycles=golden.max_cycles)
        assert result.halted
        assert result.cycles == golden.cycles
        assert result.instructions == golden.instructions
        assert system.memory.snapshot() == golden.snapshot


def test_screened_engine_uninstalls_hook(addr_program, addr_setup):
    engine = ScreenedEngine(
        addr_program, addr_setup.params, addr_setup.calibration, "addr"
    )
    corrupting = next(
        d for d in addr_setup.library
        if not engine.screen.screen_one(d).clean
    )
    engine.check(corrupting)
    assert engine._scratch.address_bus._corruption_hook is None


def test_exact_engine_base_image_matches_program(addr_program):
    image = build_base_image(addr_program)
    fresh = make_system(addr_program)
    cached = make_system(addr_program, image)
    assert fresh.memory.snapshot() == cached.memory.snapshot()
    engine = ExactEngine(
        addr_program,
        default_bus_setup(12, defect_count=1, seed=1).params,
        default_bus_setup(12, defect_count=1, seed=1).calibration,
        "addr",
    )
    assert engine._base_image == image


def test_replay_dedup_collapses_defect_classes(
    builder, addr_setup, monkeypatch
):
    """Defects sharing a replay behavior reuse one simulated outcome."""
    from repro.obs import runtime as obs_runtime
    from repro.soc.system import CpuMemorySystem

    faults = [f for f in builder.address_faults() if f.victim == 5]
    program = builder.build_address_bus_program(faults)
    exact = outcomes(program, addr_setup, "addr", engine="exact")
    engine = campaign(program, addr_setup, "addr", "screened").build_engine()
    resumes = []
    resume = CpuMemorySystem.resume

    def counting_resume(self, *args, **kwargs):
        resumes.append(self)
        return resume(self, *args, **kwargs)

    monkeypatch.setattr(CpuMemorySystem, "resume", counting_resume)
    with obs_runtime.session() as obs:
        screened = run_defects(engine, addr_setup.library, "addr")
    assert screened == exact
    total = len(addr_setup.library.defects)
    snapshot = obs.registry.snapshot()

    def count(name):
        entry = snapshot.get("coverage.engine." + name)
        return entry["value"] if entry else 0

    clean, deduped, replayed = (
        count("screened_clean"), count("replay_deduped"), count("replayed")
    )
    assert clean + deduped + replayed == total
    assert deduped > 0, "expected defects to share a replay behavior"
    assert len(resumes) == replayed


def test_dedup_across_separately_prepared_defects(builder, addr_setup):
    """Defects prepared in two calls read two decision tables; groups
    that hold both still dedup against one replay, exactly."""
    from dataclasses import replace

    from repro.xtalk.capacitance import CapacitanceSet

    faults = [f for f in builder.address_faults() if f.victim == 5]
    program = builder.build_address_bus_program(faults)
    exact = outcomes(program, addr_setup, "addr", engine="exact")
    # Fresh sets: nothing cached, so each prepare builds its own table.
    defects = [
        replace(d, caps=CapacitanceSet(d.caps.coupling, d.caps.ground))
        for d in addr_setup.library.defects
    ]
    engine = ScreenedEngine(
        program, addr_setup.params, addr_setup.calibration, "addr"
    )
    half = len(defects) // 2
    engine.prepare(defects[:half])
    engine.prepare(defects[half:])
    assert any(
        len({id(table) for table, _ in group.values()}) == 2
        for group in engine._pending.values()
    )
    assert run_defects(engine, defects, "addr") == exact
    # Replays of one table share that table's transition memo; the
    # other table gets a memo of its own.
    replayed = set(engine._rows) - set(engine._deduped)
    assert set(engine._memos) == {
        id(engine._rows[index][0]) for index in replayed
    }
    first, second = {id(table): table for table, _ in engine._rows.values()}.values()
    assert engine._memo(first) is engine._memo(first)
    assert engine._memo(first).table is first
    assert engine._memo(second).table is second
    assert engine._memo(second) is not engine._memo(first)
    # The same defects are deduped as when one table holds them all.
    reference = campaign(program, addr_setup, "addr", "screened").build_engine()
    run_defects(reference, addr_setup.library, "addr")
    assert engine._deduped
    assert engine._deduped == reference._deduped


@pytest.mark.parametrize("bus", ["addr", "data"])
def test_screened_replays_build_no_kernel(request, bus, monkeypatch):
    """Once the engine is built, a screened campaign judges every replay
    from its defect's decision-table row: building a TransitionKernel
    would raise, and the outcomes still equal the exact engine's."""
    from repro.xtalk.kernel import TransitionKernel

    program = request.getfixturevalue(f"{bus}_program")
    setup = request.getfixturevalue(f"{bus}_setup")
    exact = outcomes(program, setup, bus, engine="exact")
    engine = campaign(program, setup, bus, "screened").build_engine()

    def refuse(self, *args, **kwargs):
        raise AssertionError("a screened replay built a TransitionKernel")

    monkeypatch.setattr(TransitionKernel, "__init__", refuse)
    assert run_defects(engine, setup.library, bus) == exact
    assert engine._memos  # replays ran


def test_checking_a_defect_twice_replays_it_twice(
    addr_program, addr_setup, monkeypatch
):
    """A second check of a replayed defect, whose group entry is gone,
    replays it again from its row, to the same outcome."""
    from repro.soc.system import CpuMemorySystem

    engine = campaign(addr_program, addr_setup, "addr", "screened").build_engine()
    defect = next(
        d for d in addr_setup.library.defects
        if not engine.verdicts[d.index].clean
    )
    resumes = []
    resume = CpuMemorySystem.resume

    def counting_resume(self, *args, **kwargs):
        resumes.append(self)
        return resume(self, *args, **kwargs)

    monkeypatch.setattr(CpuMemorySystem, "resume", counting_resume)
    first = engine.check(defect)
    first_stats = engine.last_model.stats()
    group = engine._pending[engine.verdicts[defect.index].first_index]
    assert defect.index not in group
    second = engine.check(defect)
    assert len(resumes) == 2
    assert second == first
    assert engine.last_model.stats() == first_stats
    exact = ExactEngine(
        addr_program, addr_setup.params, addr_setup.calibration, "addr"
    )
    assert exact.check(defect) == first


def test_couplings_beyond_neighbours_fail_prepare_not_the_oracle(
    addr_program, addr_setup
):
    """The screened engine's tables need nearest-neighbour coupling:
    prepare names the offending pair, and so does a check of the defect
    unprepared, while the exact engine, which stays on the scalar
    kernel, still judges the defect."""
    from repro.xtalk.capacitance import CapacitanceSet
    from repro.xtalk.defects import Defect

    nominal = addr_setup.library.nominal
    coupling = [list(row) for row in nominal.coupling]
    coupling[3][5] = coupling[5][3] = 2 * nominal.coupling[3][4]
    far = Defect(
        index=0,
        caps=CapacitanceSet(tuple(map(tuple, coupling)), nominal.ground),
        defective_wires=(),
        severity=1.0,
    )
    params, calibration = addr_setup.params, addr_setup.calibration
    engine = ScreenedEngine(addr_program, params, calibration, "addr")
    with pytest.raises(ValueError, match="wires 3 and 5"):
        engine.prepare([far])
    unprepared = ScreenedEngine(addr_program, params, calibration, "addr")
    with pytest.raises(ValueError, match="wires 3 and 5"):
        unprepared.check(far)
    exact = ExactEngine(addr_program, params, calibration, "addr")
    assert exact.check(far) == _stepped_check(exact, far)
    assert exact.last_model.corruptions > 0


def test_snapshot_refuses_mmio():
    system = make_system_with_mmio()
    with pytest.raises(ValueError):
        system.snapshot()


def make_system_with_mmio():
    from repro.soc.system import CpuMemorySystem

    core = RegisterCore(register_count=16)
    return CpuMemorySystem(
        mmio_regions=[MMIORegion(base=0xF00, size=16, core=core)]
    )


# -- hang proof ---------------------------------------------------------------


def _stepped_check(engine, defect):
    """The oracle's oracle: a plain step loop to the budget, no proof."""
    from repro.core.signature import check_response
    from repro.xtalk.error_model import CrosstalkErrorModel

    system = make_system(engine.program)
    model = CrosstalkErrorModel(defect.caps, engine.params, engine.calibration)
    bus = system.address_bus if engine.bus == "addr" else system.data_bus
    bus.install_corruption_hook(model.corrupt)
    system.reset(engine.program.entry)
    while not system.cpu.halted and system.cycle < engine.golden.max_cycles:
        system.step()
    return check_response(engine.golden, system, system.cpu.halted)


@pytest.mark.parametrize("bus", ["addr", "data"])
def test_proven_hangs_match_a_run_to_the_budget(builder, bus):
    from repro import default_address_bus_setup, default_data_bus_setup
    from repro.obs import runtime as obs_runtime

    if bus == "addr":
        setup = default_address_bus_setup()
        program = builder.build_address_bus_program()
    else:
        setup = default_data_bus_setup()
        program = builder.build_data_bus_program()
    engine = ExactEngine(program, setup.params, setup.calibration, bus)
    with obs_runtime.session() as session:
        for defect in setup.library.defects[:100]:
            assert engine.check(defect) == _stepped_check(engine, defect)
    assert session.registry.snapshot()["cpu.hangs_proven"]["value"] >= 1


def test_observed_hang_proof_counts(addr_program, addr_setup):
    from repro.obs import runtime as obs_runtime

    engine = ExactEngine(
        addr_program, addr_setup.params, addr_setup.calibration, "addr"
    )
    defect = addr_setup.library.defects[2]  # hangs in a proven loop
    untraced = engine.check(defect)
    with obs_runtime.session() as session:
        traced = engine.check(defect)
    assert traced == untraced
    assert traced.timed_out
    counters = {
        name: metric["value"]
        for name, metric in session.registry.snapshot().items()
    }
    assert counters["cpu.hangs_proven"] == 1
    assert counters["cpu.timeouts"] == 1
    assert counters["cpu.cycles_elided"] == (
        engine.golden.max_cycles - counters["cpu.cycles"]
    )
    assert counters["cpu.cycles_elided"] > 0


# -- sled fast-forward --------------------------------------------------------


@pytest.fixture(scope="module")
def fig11_programs(builder):
    faults = builder.address_faults()
    return [
        builder.build_address_bus_program(
            [fault for fault in faults if fault.victim == line]
        )
        for line in range(12)
    ]


def _counters(session):
    return {
        name: metric["value"]
        for name, metric in session.registry.snapshot().items()
        if "value" in metric
    }


def test_fast_forward_screened_equals_exact_on_fig11_lines(fig11_programs):
    from repro import default_address_bus_setup
    from repro.obs import runtime as obs_runtime

    setup = default_address_bus_setup()
    defects = tuple(setup.library.defects[:100])
    skipped = 0
    for program in fig11_programs:
        spec = CampaignSpec(
            program, setup.params, setup.calibration, defects, "addr",
            engine="exact",
        )
        exact = run_campaign(spec).outcomes
        with obs_runtime.session() as session:
            screened = run_campaign(
                CampaignSpec(
                    program, setup.params, setup.calibration, defects, "addr"
                )
            ).outcomes
        assert screened == exact
        skipped += _counters(session).get("cpu.cycles_fast_forwarded", 0)
    assert skipped > 0


@pytest.mark.parametrize("bus, defects", [("addr", 200), ("data", 1000)])
def test_fast_forward_keeps_observed_counters(
    builder, fig11_programs, bus, defects, monkeypatch
):
    """bus.* and xtalk.model.* read the same with and without the jump."""
    from repro import default_address_bus_setup, default_data_bus_setup
    from repro.core.engine import _RecordingHook
    from repro.obs import runtime as obs_runtime

    if bus == "addr":
        setup = default_address_bus_setup()
        program = fig11_programs[7]
    else:
        setup = default_data_bus_setup()
        program = builder.build_data_bus_program()
    spec = CampaignSpec(
        program, setup.params, setup.calibration,
        tuple(setup.library.defects[:defects]), bus,
    )
    # Each run below captures its own golden run and screen, so every
    # counter, coverage.engine.golden_cycles included, must read alike.
    runs = []
    for stepped in (False, True):
        if stepped:
            monkeypatch.delattr(_RecordingHook, "corrupt_many")
        with obs_runtime.session() as session:
            outcomes = run_campaign(spec).outcomes
        runs.append((outcomes, _counters(session)))
    (fast, fast_counters), (slow, slow_counters) = runs
    assert fast == slow
    assert fast_counters["cpu.cycles_fast_forwarded"] > 0
    assert "cpu.cycles_fast_forwarded" not in slow_counters
    compared = [
        name for name in slow_counters
        if name.startswith(("bus.", "xtalk.model.", "coverage.engine."))
        or name in ("cpu.cycles", "cpu.instructions", "cpu.timeouts")
    ]
    assert any(name.startswith("xtalk.model.") for name in compared)
    for name in compared:
        assert fast_counters.get(name) == slow_counters[name], name
