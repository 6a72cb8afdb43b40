"""Crosstalk electrical substrate.

This package stands in for the paper's HDL-level crosstalk machinery:

* a parametric bus geometry and the coupling/ground capacitance matrices
  extracted from it (the paper's "parameter file containing the values of
  the coupling capacitance among interconnects"),
* the lumped-RC glitch/delay estimators,
* the high-level crosstalk error model of Bai & Dey (VTS 2001) that
  corrupts the second vector of a bus transition at the receiving end,
* the defect-library generator (Gaussian capacitance perturbation with a
  net-coupling threshold ``Cth``, after Cuviello et al., ICCAD 1999),
* a coupled-RC waveform simulator (numpy eigen-decomposition of the
  capacitance matrix) used to validate the lumped estimators.
"""

from repro.xtalk.geometry import BusGeometry
from repro.xtalk.capacitance import (
    CapacitanceSet,
    extract_capacitance,
    load_capacitance,
    parse_capacitance,
)
from repro.xtalk.params import ElectricalParams, load_params, parse_params
from repro.xtalk.calibration import Calibration, calibrate
from repro.xtalk.kernel import TransitionKernel, WireError
from repro.xtalk.error_model import CrosstalkErrorModel
from repro.xtalk.screen import ScreenVerdict, TraceScreen
from repro.xtalk.defects import Defect, DefectLibrary, generate_defect_library

__all__ = [
    "BusGeometry",
    "CapacitanceSet",
    "extract_capacitance",
    "load_capacitance",
    "parse_capacitance",
    "ElectricalParams",
    "load_params",
    "parse_params",
    "Calibration",
    "calibrate",
    "TransitionKernel",
    "WireError",
    "CrosstalkErrorModel",
    "ScreenVerdict",
    "TraceScreen",
    "Defect",
    "DefectLibrary",
    "generate_defect_library",
]
