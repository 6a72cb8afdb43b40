"""SoC-level substrate: buses, memory, memory-mapped cores, system wiring.

This package models the system side of the paper's demonstrator: a 12-bit
unidirectional address bus and an 8-bit bidirectional data bus connecting a
PARWAN-class CPU with a 4K byte memory core (and, optionally, memory-mapped
peripheral cores).  Bus accesses are explicit transactions so that the
crosstalk error model in :mod:`repro.xtalk` can corrupt every transition the
way the paper's HDL-level defect simulation environment does.
"""

from repro.soc.bus import Bus, BusDirection, BusTransaction, TransactionKind
from repro.soc.hexfile import HexFormatError, dump_image, load_image
from repro.soc.memory import Memory
from repro.soc.mmio import MMIORegion, RegisterCore, RomCore
from repro.soc.system import CpuMemorySystem, RunEnd, RunResult
from repro.soc.tracer import BusTracer, render_timing_diagram

__all__ = [
    "Bus",
    "BusDirection",
    "BusTransaction",
    "TransactionKind",
    "HexFormatError",
    "dump_image",
    "load_image",
    "Memory",
    "MMIORegion",
    "RegisterCore",
    "RomCore",
    "CpuMemorySystem",
    "RunEnd",
    "RunResult",
    "BusTracer",
    "render_timing_diagram",
]
