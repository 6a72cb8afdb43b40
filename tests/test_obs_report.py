"""Unit tests for RunReport serialization and schema validation."""

import json

import pytest

from repro.analysis.records import ExperimentRecord
from repro.obs import RunReport, load_schema, session, validate


def make_report():
    with session() as obs:
        with obs.spans.span("setup"):
            pass
        with obs.spans.span("campaign"):
            obs.registry.counter("cpu.cycles").inc(1234)
            obs.registry.gauge("coverage.campaign.progress").set(1.0)
            obs.registry.timer("coverage.defect.replay").observe(5000)
    return RunReport.from_observability(
        obs, kind="run", label="unit", config={"defects": 3}
    )


def test_from_observability_snapshot():
    report = make_report()
    assert [p["name"] for p in report.phases] == ["setup", "campaign"]
    assert report.metrics["cpu.cycles"] == {"type": "counter", "value": 1234}
    assert report.metrics["coverage.defect.replay"]["count"] == 1
    assert report.spans


def test_report_validates_against_checked_in_schema():
    report = make_report()
    assert report.validation_errors() == []
    assert validate(report.as_dict(), load_schema()) == []


def test_report_round_trip(tmp_path):
    report = make_report()
    report.add_records(
        [ExperimentRecord("E4", "coverage", "94.3%", "94.0%", note="n=3")]
    )
    report.add_section("E4 — record", "body text")
    report.results = {"coverage": {"detected": 2, "defects": 3}}
    path = report.save(tmp_path / "report.json")
    loaded = RunReport.load(path)
    assert loaded.as_dict() == report.as_dict()
    assert loaded.records[0]["measured"] == "94.0%"
    assert loaded.sections[0]["title"] == "E4 — record"


def test_save_refuses_invalid_report(tmp_path):
    report = make_report()
    report.kind = "bogus"  # not in the schema's enum
    with pytest.raises(ValueError, match="schema"):
        report.save(tmp_path / "report.json")
    assert not (tmp_path / "report.json").exists()


def test_validator_flags_structural_violations():
    report = make_report()
    payload = report.as_dict()
    payload["phases"][0].pop("duration_ns")
    payload["metrics"]["cpu.cycles"]["type"] = "histogram"
    payload["unexpected"] = True
    errors = validate(payload)
    assert any("duration_ns" in e for e in errors)
    assert any("histogram" in e for e in errors)
    assert any("unexpected" in e for e in errors)


def test_validator_checks_primitive_types():
    errors = validate({"schema_version": "1"})
    assert any("schema_version" in e and "integer" in e for e in errors)
    # bool is not an acceptable integer (draft-07 semantics).
    errors = validate({"schema_version": True})
    assert any("schema_version" in e for e in errors)


def test_summary_renders_phases_and_metrics():
    report = make_report()
    text = report.summary()
    assert "campaign" in text
    assert "cpu.cycles" in text
    assert "timer" in text


def test_validate_cli_tool(tmp_path, capsys):
    from repro.obs.validate import main as validate_main

    path = make_report().save(tmp_path / "ok.json")
    assert validate_main([str(path)]) == 0
    assert "valid" in capsys.readouterr().out

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "profile"}), encoding="utf-8")
    assert validate_main([str(bad)]) == 1


def test_usage_snippet_runs(tmp_path, monkeypatch, capsys):
    """The session snippet of README.md and the ``repro.obs`` docstring
    is one snippet, and it runs (at 20 defects)."""
    import textwrap
    from pathlib import Path

    import repro.obs

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Observability and run reports", 1)[1]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    docstring = repro.obs.__doc__.split("::\n", 1)[1]
    assert textwrap.dedent(docstring).strip() == snippet.strip()

    monkeypatch.chdir(tmp_path)
    exec(compile(snippet, "README.md", "exec"), {})
    report = RunReport.load(tmp_path / "run_report.json")
    assert report.metrics["coverage.defects.simulated"]["value"] == 20
    assert [span["name"] for span in report.spans] == ["coverage.campaign"]
    printed = capsys.readouterr().out.strip()
    assert printed == str(report.metrics["coverage.defects.detected"])
