"""The campaign orchestration layer: specs, run_campaign, journals, resume.

The load-bearing guarantees under test:

* a :class:`CampaignSpec` is pure picklable data with a stable
  fingerprint, and either engine built from it judges alike;
* the JSONL journal survives the interruptions it exists for — a
  truncated trailing line is repaired, anything worse is refused — and
  a resumed campaign's merged result is identical to an uninterrupted
  run (a hypothesis property over random interrupt points).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.campaign import (
    CampaignJournal,
    CampaignSpec,
    DetectionOutcome,
    JournalError,
    config_digest,
    run_campaign,
)


@pytest.fixture(scope="module")
def spec(address_setup, address_program):
    return CampaignSpec(
        program=address_program,
        params=address_setup.params,
        calibration=address_setup.calibration,
        defects=tuple(address_setup.library),
        bus="addr",
        label="test-campaign",
    )


@pytest.fixture(scope="module")
def serial_outcomes(spec):
    """The uninterrupted serial run every other result must match."""
    return run_campaign(spec).outcomes


@pytest.fixture(scope="module")
def small_spec(spec):
    """A 20-defect slice for the many-examples hypothesis property."""
    return CampaignSpec(
        program=spec.program,
        params=spec.params,
        calibration=spec.calibration,
        defects=spec.defects[:20],
        bus=spec.bus,
        engine=spec.engine,
        label=spec.label,
    )


@pytest.fixture(scope="module")
def small_serial_outcomes(small_spec):
    return run_campaign(small_spec).outcomes


# ---------------------------------------------------------------------------
# CampaignSpec
# ---------------------------------------------------------------------------


class TestCampaignSpec:
    def test_pickle_round_trip(self, spec):
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.fingerprint() == spec.fingerprint()

    def test_fingerprint_is_engine_independent(self, spec):
        """A journal written under one engine must resume under the other."""
        other = CampaignSpec(
            program=spec.program,
            params=spec.params,
            calibration=spec.calibration,
            defects=spec.defects,
            bus=spec.bus,
            engine="screened" if spec.engine == "exact" else "exact",
            label=spec.label,
        )
        assert other.fingerprint() == spec.fingerprint()

    def test_fingerprint_tracks_outcome_determining_config(self, spec):
        fewer = CampaignSpec(
            program=spec.program,
            params=spec.params,
            calibration=spec.calibration,
            defects=spec.defects[:10],
            bus=spec.bus,
        )
        assert fewer.fingerprint() != spec.fingerprint()

    def test_build_engine_leaves_spec_picklable(self, spec):
        """Engines hold live buses and hooks; the spec must not."""
        spec.build_engine()
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_rejects_bad_bus_and_engine(self, spec):
        with pytest.raises(ValueError):
            CampaignSpec(
                program=spec.program, params=spec.params,
                calibration=spec.calibration, defects=spec.defects,
                bus="ctrl",
            )
        with pytest.raises(ValueError):
            CampaignSpec(
                program=spec.program, params=spec.params,
                calibration=spec.calibration, defects=spec.defects,
                engine="quantum",
            )


# ---------------------------------------------------------------------------
# Fingerprint digest and the campaign loop
# ---------------------------------------------------------------------------


def _reference_digest(params, calibration, defects, extra):
    """config_digest as one json.dumps of the whole payload."""
    payload = {
        "params": [
            params.vdd,
            params.r_driver_cpu,
            params.r_driver_mem,
            params.glitch_attenuation,
        ],
        "calibration": {
            "cth": calibration.cth,
            "v_th": calibration.v_th,
            "t_margin": sorted(
                (direction.value, margin)
                for direction, margin in calibration.t_margin.items()
            ),
            "safety_factor": calibration.safety_factor,
        },
        "defects": [
            [defect.index, defect.caps.ground, defect.caps.coupling]
            for defect in defects
        ],
        "extra": dict(extra),
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("bus", ["addr", "data"])
def test_config_digest_bytes_are_one_json_dump(bus):
    """The digest is sha256 of the canonical JSON, so journals written
    by earlier versions keep their fingerprints."""
    from repro import default_address_bus_setup, default_data_bus_setup

    setup = (
        default_address_bus_setup(defect_count=40, seed=3)
        if bus == "addr"
        else default_data_bus_setup(defect_count=40, seed=3)
    )
    library = setup.library.defects
    digests = set()
    for extra in ({"kind": "campaign", "image": [[1, 2]]},
                  {"kind": "fig11", "width": 12, "full_program": True}):
        for defects in (list(library), tuple(library), list(library)):
            digest = config_digest(
                setup.params, setup.calibration, defects, extra
            )
            assert digest == _reference_digest(
                setup.params, setup.calibration, defects, extra
            )
            digests.add(digest)
        shorter = library[:-1]
        assert config_digest(
            setup.params, setup.calibration, shorter, extra
        ) == _reference_digest(setup.params, setup.calibration, shorter, extra)
    assert len(digests) == 2


class TestBackends:
    def test_empty_defect_slice(self, spec):
        empty = dataclasses.replace(spec, defects=())
        result = run_campaign(empty)
        assert result.outcomes == []
        assert result.executed == 0

    def test_campaign_leaves_no_files_behind(
        self, spec, serial_outcomes, tmp_path, monkeypatch
    ):
        """Without a journal a campaign keeps all its state in memory:
        it writes nothing into the working directory."""
        for name in [name for name in os.environ if name.startswith("REPRO_")]:
            monkeypatch.delenv(name)
        monkeypatch.chdir(tmp_path)
        assert run_campaign(spec).outcomes == serial_outcomes
        assert list(tmp_path.iterdir()) == []

    def test_import_does_not_load_multiprocessing(self):
        """Campaigns run in one process: ``import repro`` pays for no
        process-pool machinery."""
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        loaded = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro; print(*sys.modules, sep=chr(10))"],
            capture_output=True, text=True, env=env, check=True, timeout=120,
        ).stdout.splitlines()
        assert "repro.core.campaign" in loaded
        assert not [name for name in loaded if name.startswith("multiprocessing")]


# ---------------------------------------------------------------------------
# Journal
# ---------------------------------------------------------------------------


def _outcome(index, detected=True):
    return DetectionOutcome(
        defect_index=index, detected=detected, timed_out=False,
        mismatches=1 if detected else 0,
    )


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        with CampaignJournal(path, "fp") as journal:
            journal.record(_outcome(3), group="a")
            journal.record(_outcome(7, detected=False), group="b")
        reloaded = CampaignJournal(path, "fp", resume=True)
        assert reloaded.done("a") == {3: _outcome(3)}
        assert reloaded.done("b") == {7: _outcome(7, detected=False)}
        assert reloaded.done("missing") == {}
        assert reloaded.completed == 2
        assert not reloaded.repaired
        reloaded.close()

    def test_without_resume_overwrites(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        with CampaignJournal(path, "fp") as journal:
            journal.record(_outcome(1))
        with CampaignJournal(path, "fp") as journal:
            assert journal.done() == {}

    def test_truncated_trailing_line_is_repaired(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        with CampaignJournal(path, "fp") as journal:
            journal.record(_outcome(1))
            journal.record(_outcome(2))
        intact_size = path.stat().st_size
        with open(path, "a") as stream:
            stream.write('{"g": "campaign", "i": 3, "d')  # the cut write
        journal = CampaignJournal(path, "fp", resume=True)
        assert journal.repaired
        assert set(journal.done()) == {1, 2}
        assert path.stat().st_size == intact_size
        journal.record(_outcome(3))
        journal.close()
        reloaded = CampaignJournal(path, "fp", resume=True)
        assert set(reloaded.done()) == {1, 2, 3}
        assert not reloaded.repaired
        reloaded.close()

    def test_missing_trailing_newline_is_completed(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        with CampaignJournal(path, "fp") as journal:
            journal.record(_outcome(1))
        raw = path.read_bytes()
        path.write_bytes(raw.rstrip(b"\n"))  # intact record, no newline
        journal = CampaignJournal(path, "fp", resume=True)
        journal.record(_outcome(2))
        journal.close()
        reloaded = CampaignJournal(path, "fp", resume=True)
        assert set(reloaded.done()) == {1, 2}
        reloaded.close()

    def test_mid_file_corruption_is_refused(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        with CampaignJournal(path, "fp") as journal:
            journal.record(_outcome(1))
            journal.record(_outcome(2))
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:5]  # corrupt a record that is NOT last
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="corrupt journal line"):
            CampaignJournal(path, "fp", resume=True)

    def test_fingerprint_mismatch_is_refused(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        CampaignJournal(path, "fp-one").close()
        with pytest.raises(JournalError, match="different campaign"):
            CampaignJournal(path, "fp-two", resume=True)

    @pytest.mark.parametrize(
        "record",
        [
            {"i": 3},
            {"i": 3, "d": 1, "t": 0, "m": "x"},
            {"i": "x", "d": 1, "t": 0, "m": 0},
            {"i": 2.9, "d": "false", "t": "no", "m": -4},
            {"i": 2.9, "d": 1, "t": 0, "m": 0},
            {"i": True, "d": 1, "t": 0, "m": 0},
            {"i": 2, "d": "false", "t": 0, "m": 0},
            {"i": 2, "d": 1, "t": 2, "m": 0},
            {"i": 2, "d": 1, "t": 0, "m": -4},
            {"i": 2, "d": 1, "t": 0, "m": 1.0},
        ],
        ids=[
            "missing-fields", "non-integer-m", "non-integer-i",
            "all-mistyped", "float-i", "boolean-i", "string-d",
            "flag-out-of-range", "negative-m", "float-m",
        ],
    )
    def test_malformed_record_is_refused(self, tmp_path, record):
        path = tmp_path / "campaign.jsonl"
        with CampaignJournal(path, "fp") as journal:
            journal.record(_outcome(1))
        with open(path, "a") as stream:
            stream.write(json.dumps(record) + "\n")
            stream.write(json.dumps(
                {"g": "campaign", "i": 4, "d": 1, "t": 0, "m": 1}
            ) + "\n")
        with pytest.raises(JournalError, match="record on line 3"):
            CampaignJournal(path, "fp", resume=True)

    def test_foreign_file_is_refused(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text(json.dumps({"kind": "something-else"}) + "\n")
        with pytest.raises(JournalError, match="not a campaign journal"):
            CampaignJournal(path, "fp", resume=True)


# ---------------------------------------------------------------------------
# Resume semantics
# ---------------------------------------------------------------------------


class TestRunnerResume:
    @pytest.mark.parametrize("engine", ["exact", "screened"])
    def test_engine_serial_parallel_and_resumed(
        self, spec, serial_outcomes, tmp_path, engine
    ):
        """Each engine, built through ``CampaignSpec.build_engine``,
        matches the default run, both uninterrupted and after a journal
        resume."""
        engine_spec = dataclasses.replace(spec, engine=engine)
        assert run_campaign(engine_spec).outcomes == serial_outcomes
        path = tmp_path / f"campaign-{engine}.jsonl"
        journal = CampaignJournal(path, engine_spec.fingerprint())
        for outcome in serial_outcomes[:25]:
            journal.record(outcome, group=engine_spec.label)
        journal.close()
        resumed = run_campaign(engine_spec, journal=path, resume=True)
        assert resumed.executed == len(spec.defects) - 25
        assert resumed.outcomes == serial_outcomes

    def test_resume_requires_journal(self, spec):
        with pytest.raises(ValueError, match="requires a journal"):
            run_campaign(spec, resume=True)

    def test_completed_journal_resumes_without_executing(
        self, spec, serial_outcomes, tmp_path
    ):
        path = tmp_path / "campaign.jsonl"
        first = run_campaign(spec, journal=path)
        assert first.executed == len(spec.defects)
        assert first.resumed == 0
        second = run_campaign(spec, journal=path, resume=True)
        assert second.executed == 0
        assert second.resumed == len(spec.defects)
        assert second.outcomes == serial_outcomes

    def test_interrupted_run_resumes_identically(
        self, spec, serial_outcomes, tmp_path
    ):
        path = tmp_path / "campaign.jsonl"
        journal = CampaignJournal(path, spec.fingerprint())
        for outcome in serial_outcomes[:25]:  # the part that "finished"
            journal.record(outcome, group=spec.label)
        journal.close()
        resumed = run_campaign(spec, journal=path, resume=True)
        assert resumed.resumed == 25
        assert resumed.executed == len(spec.defects) - 25
        assert resumed.outcomes == serial_outcomes

    @settings(max_examples=12, deadline=None)
    @given(data=st.data())
    def test_resume_identical_over_random_interrupt_points(
        self, data, small_spec, small_serial_outcomes, tmp_path_factory
    ):
        """Interrupt anywhere — mid-record included — and resume exactly.

        The journal after an interrupt is: header + k intact records +
        (sometimes) one partial trailing record.  Whatever k and
        whatever the partial tail, the resumed campaign must equal the
        uninterrupted run.
        """
        k = data.draw(
            st.integers(min_value=0, max_value=len(small_serial_outcomes)),
            label="records_flushed",
        )
        partial = data.draw(
            st.sampled_from(["", '{"g"', '{"g": "test-campaign", "i": 1',
                             "\x00\xff garbage"]),
            label="partial_tail",
        )
        path = tmp_path_factory.mktemp("journal") / "campaign.jsonl"
        journal = CampaignJournal(path, small_spec.fingerprint())
        for outcome in small_serial_outcomes[:k]:
            journal.record(outcome, group=small_spec.label)
        journal.close()
        if partial:
            with open(path, "a") as stream:
                stream.write(partial)
        resumed = run_campaign(small_spec, journal=path, resume=True)
        assert resumed.resumed == k
        assert resumed.executed == len(small_serial_outcomes) - k
        assert resumed.outcomes == small_serial_outcomes
