"""Cycle-accurate model of the PARWAN-class multicycle CPU core.

The control unit is an explicit finite-state machine advancing one state per
clock cycle; every memory access is split into an address phase and a data
phase, each one cycle, issued through a :class:`BusPort` so the surrounding
system can route them over the (crosstalk-corruptible) address and data
buses.  This mirrors the timing behaviour the paper relies on (Fig. 5): the
self-test methodology exploits exactly which words appear back-to-back on
each bus during instruction execution.
"""

from repro.cpu.registers import Flags, RegisterFile
from repro.cpu.alu import AluResult, alu_add, alu_and, alu_asl, alu_asr, alu_sub
from repro.cpu.control import ControlState, DecodedOp, decode_raw
from repro.cpu.datapath import BusPort, Cpu
from repro.cpu.microcode import MICROPROGRAMS, FastCpu

__all__ = [
    "MICROPROGRAMS",
    "FastCpu",
    "Flags",
    "RegisterFile",
    "AluResult",
    "alu_add",
    "alu_and",
    "alu_asl",
    "alu_asr",
    "alu_sub",
    "ControlState",
    "DecodedOp",
    "decode_raw",
    "BusPort",
    "Cpu",
]
