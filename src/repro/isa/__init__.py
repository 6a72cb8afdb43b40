"""PARWAN-class instruction set architecture.

This package models the instruction set of the 8-bit accumulator-based
multicycle processor used as the demonstrator in the paper (an implementation
of Navabi's PARWAN processor, "VHDL: Analysis and Modeling of Digital
Systems", McGraw-Hill 1993).  The processor has 23 instructions, an 8-bit
data path and a 12-bit address space organized as 16 pages of 256 bytes.

Modules
-------
``instructions``
    Instruction metadata: mnemonics, formats, flag behaviour.
``encoding``
    Binary encoding and decoding of instructions.
``assembler``
    A small two-pass assembler (labels, ``.org``/``.byte`` directives).
``disassembler``
    Conversion of memory images back into listings.
"""

from repro.isa.instructions import (
    ADDR_BITS,
    DATA_BITS,
    MEMORY_SIZE,
    OFFSET_BITS,
    PAGE_BITS,
    Format,
    InstructionSpec,
    INSTRUCTION_SET,
    Mnemonic,
    instruction_count,
    spec_for,
)
from repro.isa.encoding import (
    Instruction,
    decode,
    encode,
    make_address,
    offset_of,
    page_of,
)

__all__ = [
    "ADDR_BITS",
    "DATA_BITS",
    "MEMORY_SIZE",
    "OFFSET_BITS",
    "PAGE_BITS",
    "Format",
    "InstructionSpec",
    "INSTRUCTION_SET",
    "Mnemonic",
    "instruction_count",
    "spec_for",
    "Instruction",
    "decode",
    "encode",
    "make_address",
    "offset_of",
    "page_of",
]
