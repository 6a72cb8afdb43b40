"""Electrical parameters of the bus drivers and receivers.

Parameter files (the paper's "parameter file" inputs) are small JSON
objects; :func:`parse_params` / :func:`load_params` read them with a
content- respectively stat-keyed memo, so callers that reference the
same file repeatedly parse and validate it exactly once per
interpreter.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, fields
from typing import Dict, Tuple, Union

from repro.soc.bus import BusDirection

#: ln(2) — converts an RC time constant into a 50 %-crossing delay.
LN2 = 0.6931471805599453


@dataclass(frozen=True)
class ElectricalParams:
    """Driver/receiver electrical characteristics.

    Attributes
    ----------
    vdd:
        Supply voltage in volts (1.8 V, a late-1990s 0.18/0.25 um supply).
    r_driver_cpu / r_driver_mem:
        Effective driver output resistance (ohms) when the CPU
        respectively the memory drives the bus.  Crosstalk severity differs
        with the driving direction (the paper's reason for testing the
        bidirectional data bus in both directions); asymmetric values model
        that.
    glitch_attenuation:
        First-order factor (< 1) modelling the victim driver fighting the
        coupled charge back; scales the charge-sharing glitch amplitude.
    """

    vdd: float = 1.8
    r_driver_cpu: float = 1000.0
    r_driver_mem: float = 1000.0
    glitch_attenuation: float = 0.55

    def __post_init__(self):
        for field in fields(self):
            if not math.isfinite(getattr(self, field.name)):
                raise ValueError(f"{field.name} must be finite")
        if self.vdd <= 0:
            raise ValueError("vdd must be positive")
        if self.r_driver_cpu <= 0 or self.r_driver_mem <= 0:
            raise ValueError("driver resistances must be positive")
        if not 0 < self.glitch_attenuation <= 1:
            raise ValueError("glitch_attenuation must be in (0, 1]")

    def r_for(self, direction: BusDirection) -> float:
        """Driver resistance for a transaction in the given direction."""
        if direction is BusDirection.CPU_TO_MEM:
            return self.r_driver_cpu
        return self.r_driver_mem


_FIELD_NAMES = frozenset(f.name for f in fields(ElectricalParams))

_parse_memo: Dict[str, ElectricalParams] = {}
_load_memo: Dict[Tuple[str, int, int], ElectricalParams] = {}


def parse_params(text: str) -> ElectricalParams:
    """Parse a JSON parameter file body into :class:`ElectricalParams`.

    The document must be a JSON object whose keys are a subset of the
    dataclass fields (``vdd``, ``r_driver_cpu``, ``r_driver_mem``,
    ``glitch_attenuation``); omitted keys take the dataclass defaults.
    Identical texts return the *same* (immutable) instance.
    """
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    cached = _parse_memo.get(digest)
    if cached is not None:
        return cached
    document = json.loads(text)
    if not isinstance(document, dict):
        raise ValueError("parameter file must be a JSON object")
    unknown = set(document) - _FIELD_NAMES
    if unknown:
        raise ValueError(
            f"unknown parameter keys: {', '.join(sorted(unknown))}"
        )
    for key, value in document.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"parameter {key!r} must be a number")
    params = ElectricalParams(**{k: float(v) for k, v in document.items()})
    _parse_memo[digest] = params
    return params


def load_params(path: Union[str, "os.PathLike[str]"]) -> ElectricalParams:
    """Load a JSON parameter file, memoized on ``(realpath, mtime, size)``.

    Re-reading an unchanged file returns the cached instance without
    touching its contents; editing the file (which changes its mtime or
    size) invalidates the memo entry.
    """
    real = os.path.realpath(os.fspath(path))
    stat = os.stat(real)
    key = (real, stat.st_mtime_ns, stat.st_size)
    cached = _load_memo.get(key)
    if cached is not None:
        return cached
    with open(real, "r", encoding="utf-8") as stream:
        params = parse_params(stream.read())
    _load_memo[key] = params
    return params
