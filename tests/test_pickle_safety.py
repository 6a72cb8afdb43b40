"""A :class:`CampaignSpec` and its parts are pure data.

These tests pin down that every component of a spec round-trips
through pickle with equality intact and rebuilds byte-identical
behavior (the :class:`TransitionKernel` check), and — just as
important — that objects owning live handles or bus hooks (engines
with installed corruption hooks, tracers wired into buses) are *not*
reachable from a spec.
"""

from __future__ import annotations

import pickle

from repro.core.campaign import CampaignSpec
from repro.core.maf import FaultType, MAFault, enumerate_bus_faults
from repro.soc.bus import BusDirection
from repro.xtalk.kernel import TransitionKernel


def round_trip(value):
    return pickle.loads(pickle.dumps(value))


class TestFaultModelPickles:
    def test_ma_fault_round_trip(self):
        for fault in enumerate_bus_faults(4):
            clone = round_trip(fault)
            assert clone == fault
            assert hash(clone) == hash(fault)

    def test_fault_type_identity(self):
        for fault_type in FaultType:
            assert round_trip(fault_type) is fault_type

    def test_ma_fault_survives_in_containers(self):
        faults = {fault: fault.victim for fault in enumerate_bus_faults(3)}
        assert round_trip(faults) == faults


class TestKernelInputsPickle:
    """The kernel itself stays in-process; its *inputs* ride the spec."""

    def test_inputs_round_trip_with_equality(self, address_setup):
        assert round_trip(address_setup.caps) == address_setup.caps
        assert round_trip(address_setup.params) == address_setup.params
        assert (
            round_trip(address_setup.calibration)
            == address_setup.calibration
        )

    def test_rebuilt_kernel_decides_identically(self, address_setup):
        """A kernel rebuilt from unpickled inputs must agree transition
        for transition with the original."""
        original = TransitionKernel(
            address_setup.caps, address_setup.params,
            address_setup.calibration,
        )
        rebuilt = TransitionKernel(
            round_trip(address_setup.caps),
            round_trip(address_setup.params),
            round_trip(address_setup.calibration),
        )
        width_mask = (1 << original.width) - 1
        samples = [
            (0x000, 0xFFF), (0xFFF, 0x000), (0x555, 0xAAA),
            (0xAAA, 0x555), (0x001, 0xFFE), (0x123, 0x456),
        ]
        for previous, driven in samples:
            previous &= width_mask
            driven &= width_mask
            for direction in BusDirection:
                assert rebuilt.decide(previous, driven, direction) == (
                    original.decide(previous, driven, direction)
                )


class TestCampaignComponentsPickle:
    def test_defect_library_round_trip(self, address_setup):
        library = address_setup.library
        clone = round_trip(library)
        assert clone == library
        assert list(clone) == list(library)
        assert clone[0].caps == library[0].caps

    def test_program_round_trip(self, address_program):
        clone = round_trip(address_program)
        assert clone == address_program
        assert clone.image == address_program.image
        assert clone.entry == address_program.entry

    def test_spec_round_trip_rebuilds_equivalent_engine(
        self, address_setup, address_program
    ):
        spec = CampaignSpec(
            program=address_program,
            params=address_setup.params,
            calibration=address_setup.calibration,
            defects=tuple(address_setup.library)[:5],
            bus="addr",
        )
        clone = round_trip(spec)
        assert clone == spec
        engine = spec.build_engine()
        rebuilt = clone.build_engine()
        assert rebuilt.golden.snapshot == engine.golden.snapshot
        assert rebuilt.golden.cycles == engine.golden.cycles
        for defect in spec.defects:
            assert rebuilt.check(defect) == engine.check(defect)


class TestLiveHandlesStayHome:
    """Audit: nothing with an open file or installed hook is shipped."""

    def test_spec_carries_no_live_system_state(
        self, address_setup, address_program
    ):
        spec = CampaignSpec(
            program=address_program,
            params=address_setup.params,
            calibration=address_setup.calibration,
            defects=tuple(address_setup.library)[:3],
        )
        engine = spec.build_engine()  # installs hooks on live buses
        blob = pickle.dumps(spec)
        # The engine's live substrate must not be reachable from the
        # spec: pickling it again after engine construction yields the
        # same bytes as pickling the untouched clone.
        assert pickle.dumps(round_trip(spec)) == blob
        assert engine.golden.cycles > 0

    def test_tracer_export_does_not_hold_the_file_open(
        self, tmp_path, address_program
    ):
        from repro.core.signature import make_system
        from repro.soc.tracer import BusTracer

        system = make_system(address_program)
        tracer = BusTracer([system.address_bus, system.data_bus])
        system.run(entry=address_program.entry, max_cycles=500)
        path = tmp_path / "trace.jsonl"
        written = tracer.export_jsonl(path)
        assert written > 0
        # The handle is closed after export: an exclusive rewrite of the
        # path must see all bytes flushed rather than a partial file.
        first = path.read_bytes()
        tracer.export_jsonl(path)
        assert path.read_bytes() == first
