"""Memoized parameter-file loaders (params + capacitance)."""

from __future__ import annotations

import json
import os

import pytest

from repro.xtalk import (
    CapacitanceSet,
    ElectricalParams,
    load_capacitance,
    load_params,
    parse_capacitance,
    parse_params,
)

PARAMS_DOC = {"vdd": 2.5, "r_driver_cpu": 800.0, "glitch_attenuation": 0.4}
CAP_DOC = {
    "coupling": [[0.0, 5.0, 0.0], [5.0, 0.0, 5.0], [0.0, 5.0, 0.0]],
    "ground": [2.0, 2.0, 2.0],
}


# ---------------------------------------------------------------- parse


def test_parse_params_values_and_defaults():
    params = parse_params(json.dumps(PARAMS_DOC))
    assert params == ElectricalParams(
        vdd=2.5, r_driver_cpu=800.0, glitch_attenuation=0.4
    )
    assert params.r_driver_mem == 1000.0  # dataclass default


def test_parse_params_memo_returns_same_instance():
    text = json.dumps(PARAMS_DOC)
    assert parse_params(text) is parse_params(text)
    # different (but equal-value) text is a different memo entry
    other = parse_params(json.dumps(PARAMS_DOC, indent=2))
    assert other == parse_params(text)


@pytest.mark.parametrize(
    "text",
    [
        "[1, 2]",  # not an object
        '{"bogus": 1.0}',  # unknown key
        '{"vdd": "high"}',  # non-numeric value
        '{"vdd": true}',  # bool is not a voltage
    ],
)
def test_parse_params_rejects(text):
    with pytest.raises(ValueError):
        parse_params(text)


@pytest.mark.parametrize(
    "text",
    [
        '{"vdd": NaN}',
        '{"r_driver_cpu": Infinity}',
        '{"r_driver_mem": -Infinity}',
        '{"glitch_attenuation": 1e400}',  # parses as infinity
    ],
)
def test_parse_params_rejects_non_finite(text):
    with pytest.raises(ValueError, match="must be finite"):
        parse_params(text)


@pytest.mark.parametrize(
    "field", ["vdd", "r_driver_cpu", "r_driver_mem", "glitch_attenuation"]
)
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_electrical_params_reject_non_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ElectricalParams(**{field: value})


def test_parse_capacitance_round_trip():
    capacitance = parse_capacitance(json.dumps(CAP_DOC))
    assert isinstance(capacitance, CapacitanceSet)
    assert capacitance.wire_count == 3
    assert capacitance.net_coupling(1) == 10.0
    assert parse_capacitance(json.dumps(CAP_DOC)) is capacitance


@pytest.mark.parametrize(
    "document",
    [
        [1, 2],  # not an object
        {"coupling": [[0.0]]},  # missing ground
        {"coupling": [[0.0]], "ground": [1.0], "extra": 1},  # unknown key
        {"coupling": [[0.0, 1.0], [2.0, 0.0]], "ground": [1.0, 1.0]},  # asym
        {"coupling": [], "ground": []},  # no wires
    ],
)
def test_parse_capacitance_rejects(document):
    with pytest.raises(ValueError):
        parse_capacitance(json.dumps(document))


@pytest.mark.parametrize(
    "text",
    [
        '{"coupling": [[0.0, NaN], [NaN, 0.0]], "ground": [1.0, 1.0]}',
        '{"coupling": [[0.0, 1e400], [1e400, 0.0]], "ground": [1.0, 1.0]}',
        '{"coupling": [[0.0, 1.0], [1.0, 0.0]], "ground": [NaN, 1.0]}',
        '{"coupling": [[0.0, 1.0], [1.0, 0.0]], "ground": [1.0, Infinity]}',
    ],
)
def test_parse_capacitance_rejects_non_finite(text):
    with pytest.raises(ValueError, match="finite and non-negative"):
        parse_capacitance(text)


# ---------------------------------------------------------------- load


def test_load_params_memoizes_on_stat(tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(PARAMS_DOC))
    first = load_params(path)
    assert load_params(path) is first
    assert load_params(str(path)) is first  # str and PathLike agree

    # rewriting the file (new mtime, new content) invalidates the memo
    path.write_text(json.dumps({"vdd": 3.3}))
    os.utime(path, ns=(1, 1))
    second = load_params(path)
    assert second is not first
    assert second.vdd == 3.3


def test_load_capacitance_memoizes_on_stat(tmp_path):
    path = tmp_path / "cap.json"
    path.write_text(json.dumps(CAP_DOC))
    first = load_capacitance(path)
    assert load_capacitance(path) is first

    path.write_text(json.dumps(
        {"coupling": [[0.0, 1.0], [1.0, 0.0]], "ground": [1.0, 1.0]}
    ))
    os.utime(path, ns=(1, 1))
    second = load_capacitance(path)
    assert second is not first
    assert second.wire_count == 2


def test_load_params_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_params(tmp_path / "nope.json")
