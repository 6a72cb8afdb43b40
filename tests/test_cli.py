"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main, make_parser


def test_build_addr(capsys):
    assert main(["build", "--bus", "addr"]) == 0
    out = capsys.readouterr().out
    assert "tests applied" in out
    assert "/48" in out


def test_build_with_listing(capsys):
    assert main(["build", "--bus", "data", "--listing"]) == 0
    out = capsys.readouterr().out
    assert "lda" in out or "add" in out


def test_simulate_small(capsys):
    assert main(["simulate", "--bus", "data", "--defects", "20"]) == 0
    out = capsys.readouterr().out
    assert "detected" in out
    assert "100.0%" in out


def test_simulate_json_stdout_is_machine_parseable(capsys):
    """--json emits exactly one JSON object on stdout; progress and
    logs stay on stderr."""
    assert main([
        "simulate", "--bus", "data", "--defects", "20", "--json",
    ]) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)  # whole stdout must parse
    assert payload["defects"] == 20
    assert payload["detected"] == 20
    assert "defects" in captured.err  # progress went to stderr


def test_simulate_reports_fast_forwarded_cycles(capsys):
    """Screened replays jump through empty-memory sleds; the exact
    engine never does, and both judge alike."""
    payloads = {}
    for engine in ("screened", "exact"):
        assert main([
            "simulate", "--defects", "20", "--engine", engine, "--json",
        ]) == 0
        payloads[engine] = json.loads(capsys.readouterr().out)
    assert payloads["screened"]["cycles_fast_forwarded"] > 0
    assert payloads["exact"]["cycles_fast_forwarded"] == 0
    for key in ("defects", "detected", "timeouts", "coverage"):
        assert payloads["screened"][key] == payloads["exact"][key]


def test_simulate_journal_resume(tmp_path, capsys):
    journal = tmp_path / "campaign.jsonl"
    assert main([
        "simulate", "--bus", "data", "--defects", "12",
        "--journal", str(journal), "--json",
    ]) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["executed"] == 12
    # Chop the tail off the journal: simulate an interrupted campaign.
    lines = journal.read_text().splitlines(keepends=True)
    journal.write_text("".join(lines[:7]))
    assert main([
        "simulate", "--bus", "data", "--defects", "12",
        "--journal", str(journal), "--resume", "--json",
    ]) == 0
    resumed = json.loads(capsys.readouterr().out)
    assert resumed["resumed"] == 6  # header + 6 records survived
    assert resumed["executed"] == 6
    for key in ("defects", "detected", "timeouts", "coverage"):
        assert resumed[key] == first[key]


def test_simulate_resume_requires_journal(capsys):
    assert main(["simulate", "--resume"]) == 2
    assert "--journal" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["simulate", "fig11"])
def test_resume_from_foreign_journal_is_a_usage_error(
    tmp_path, capsys, command
):
    """A journal of another campaign: one stderr line and exit 2."""
    journal = tmp_path / "foreign.jsonl"
    journal.write_text(json.dumps({"kind": "something-else"}) + "\n")
    assert main([
        command, "--defects", "5", "--journal", str(journal), "--resume",
    ]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not a campaign journal" in captured.err
    assert "Traceback" not in captured.err
    assert journal.read_text() == json.dumps({"kind": "something-else"}) + "\n"


def test_fig11_small(capsys):
    assert main(["fig11", "--defects", "30"]) == 0
    out = capsys.readouterr().out
    assert "cumulative" in out


def test_timing(capsys):
    assert main(["timing"]) == 0
    out = capsys.readouterr().out
    assert "addr" in out and "data" in out


def test_main_installs_one_log_handler_per_call(monkeypatch, capsys):
    import logging

    import repro.cli

    logger = logging.getLogger("repro")
    before = list(logger.handlers)
    seen = []

    def fake_timing(args):
        seen.append(len(logger.handlers) - len(before))
        logger.warning("one line per call")
        return 0

    monkeypatch.setattr(repro.cli, "cmd_timing", fake_timing)
    assert main(["timing"]) == 0
    assert main(["timing"]) == 0
    assert seen == [1, 1]
    assert logger.handlers == before
    assert capsys.readouterr().err.count("one line per call") == 2


def test_build_hex_export(tmp_path, capsys):
    out = tmp_path / "program.hex"
    assert main(["build", "--bus", "addr", "--hex", str(out)]) == 0
    from repro.soc.hexfile import load_image

    image = load_image(out.read_text())
    assert image  # non-empty, checksum-valid


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        make_parser().parse_args([])


def test_profile_examples_emits_valid_run_report(tmp_path, capsys):
    from repro.obs import RunReport

    out = tmp_path / "run_report.json"
    assert main([
        "profile", "examples", "--defects", "25", "--out", str(out),
    ]) == 0
    report = RunReport.load(out)  # validates on load
    assert report.kind == "profile"
    assert report.config["defects"] == 25
    assert {p["name"] for p in report.phases} >= {
        "setup", "build", "golden", "campaign",
    }
    assert len(report.metrics) >= 10
    assert report.metrics["coverage.defects.simulated"]["value"] == 25
    assert report.results["coverage"]["defects"] == 25
    assert report.spans  # default detail=full keeps the span tree
    assert "run report written" in capsys.readouterr().out


def test_profile_metrics_detail_omits_spans(tmp_path, capsys):
    from repro.obs import RunReport

    out = tmp_path / "run_report.json"
    assert main([
        "profile", "examples", "--defects", "10", "--bus", "data",
        "--detail", "metrics", "--out", str(out),
    ]) == 0
    report = RunReport.load(out)
    assert report.spans == []
    assert report.metrics["bus.data.corrupted"]["value"] > 0


def test_profile_trace_export(tmp_path, capsys):
    from repro.obs import RunReport
    from repro.soc.tracer import load_jsonl

    out = tmp_path / "run_report.json"
    trace = tmp_path / "trace.jsonl"
    assert main([
        "profile", "examples", "--defects", "5", "--out", str(out),
        "--trace", str(trace), "--max-trace", "64",
    ]) == 0
    report = RunReport.load(out)
    assert report.results["trace"]["transactions"] == 64
    assert report.results["trace"]["dropped"] > 0
    assert len(load_jsonl(trace)) == 64
