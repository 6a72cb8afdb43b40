"""Control-unit state machine definitions and raw instruction decoding.

The control unit advances exactly one :class:`ControlState` per clock
cycle.  Memory accesses occupy two states each (an address phase and a data
phase), giving the instruction timings below — these are the cycle costs
used when the paper-style "total execution cycles" numbers are reported:

===================  =========================================  ======
instruction          state sequence                             cycles
===================  =========================================  ======
implied (NOP, ...)   F1A F1D DEC EXI                               4
JMP                  F1A F1D DEC F2A F2D EXJ                       6
branch               F1A F1D DEC F2A F2D EXB                       6
LDA/AND/ADD/SUB      F1A F1D DEC F2A F2D OPA OPD EXA               8
STA                  F1A F1D DEC F2A F2D WRA WRD                   7
JSR                  F1A F1D DEC F2A F2D WRA WRD EXJ               8
indirect variants    + PTA PTD (pointer fetch)                    +2
===================  =========================================  ======

Decoding here is *permissive*, mirroring hardware: every 8-bit value is a
valid first byte (undefined implied sub-opcodes fall back to NOP; any
branch condition mask is honoured as a flag-OR; the indirect bit of JSR is
ignored).  This matters for defect simulation: a crosstalk-corrupted opcode
fetch must do *something* deterministic, not raise a Python error.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.isa.instructions import IMPLIED_SUBOPS, MEMREF_OPCODES, Mnemonic

_IMPLIED_BY_SUBOP = {sub: m for m, sub in IMPLIED_SUBOPS.items()}
_MEMREF_BY_OPCODE = {code: m for m, code in MEMREF_OPCODES.items()}


class ControlState(enum.Enum):
    """States of the multicycle control FSM (one state per cycle)."""

    FETCH1_ADDR = "f1a"
    FETCH1_DATA = "f1d"
    DECODE = "dec"
    FETCH2_ADDR = "f2a"
    FETCH2_DATA = "f2d"
    POINTER_ADDR = "pta"
    POINTER_DATA = "ptd"
    OPERAND_ADDR = "opa"
    OPERAND_DATA = "opd"
    WRITE_ADDR = "wra"
    WRITE_DATA = "wrd"
    EXECUTE_ALU = "exa"
    EXECUTE_JUMP = "exj"
    EXECUTE_BRANCH = "exb"
    EXECUTE_IMPLIED = "exi"
    HALTED = "halt"


class OpClass(enum.Enum):
    """Coarse instruction classes used by the control sequencing."""

    MEMREF_READ = "memref_read"  # LDA, AND, ADD, SUB
    MEMREF_WRITE = "memref_write"  # STA
    JUMP = "jump"  # JMP
    JSR = "jsr"
    BRANCH = "branch"
    IMPLIED = "implied"


@dataclass(frozen=True)
class DecodedOp:
    """Raw-decoded first instruction byte.

    ``page`` is meaningful for MEMREF classes, ``branch_mask`` for BRANCH
    and ``mnemonic`` for MEMREF/IMPLIED (branches keep the mask instead,
    because a corrupted fetch may produce a multi-condition mask that has
    no mnemonic).
    """

    op_class: OpClass
    mnemonic: Mnemonic
    indirect: bool = False
    page: int = 0
    branch_mask: int = 0

    @property
    def two_bytes(self) -> bool:
        """True for two-byte instructions."""
        return self.op_class is not OpClass.IMPLIED


def decode_raw(byte1: int) -> DecodedOp:
    """Permissively decode a first instruction byte (never raises)."""
    byte1 &= 0xFF
    top = byte1 >> 4
    if top == 0b1111:
        mnemonic = _IMPLIED_BY_SUBOP.get(byte1 & 0x0F, Mnemonic.NOP)
        return DecodedOp(op_class=OpClass.IMPLIED, mnemonic=mnemonic)
    if top == 0b1110:
        return DecodedOp(
            op_class=OpClass.BRANCH,
            mnemonic=Mnemonic.BRA_Z,  # placeholder; the mask is authoritative
            branch_mask=byte1 & 0x0F,
        )
    opcode = byte1 >> 5
    mnemonic = _MEMREF_BY_OPCODE[opcode]
    indirect = bool(byte1 & 0x10)
    page = byte1 & 0x0F
    if mnemonic is Mnemonic.JSR:
        return DecodedOp(OpClass.JSR, mnemonic, indirect=False, page=page)
    if mnemonic is Mnemonic.JMP:
        return DecodedOp(OpClass.JUMP, mnemonic, indirect=indirect, page=page)
    if mnemonic is Mnemonic.STA:
        return DecodedOp(OpClass.MEMREF_WRITE, mnemonic, indirect=indirect, page=page)
    return DecodedOp(OpClass.MEMREF_READ, mnemonic, indirect=indirect, page=page)


def state_after_decode(op: DecodedOp) -> ControlState:
    """First state following DECODE for the decoded instruction."""
    if op.op_class is OpClass.IMPLIED:
        return ControlState.EXECUTE_IMPLIED
    return ControlState.FETCH2_ADDR


def state_after_operand_formed(op: DecodedOp) -> ControlState:
    """State entered once the effective address is available.

    Called after FETCH2_DATA (direct) or POINTER_DATA (indirect).
    """
    if op.op_class is OpClass.MEMREF_READ:
        return ControlState.OPERAND_ADDR
    if op.op_class in (OpClass.MEMREF_WRITE, OpClass.JSR):
        return ControlState.WRITE_ADDR
    if op.op_class is OpClass.JUMP:
        return ControlState.EXECUTE_JUMP
    return ControlState.EXECUTE_BRANCH


#: Base cycle cost per instruction class (the table at the top of this
#: module); indirect addressing adds :data:`INDIRECT_EXTRA_CYCLES` for
#: the pointer fetch (PTA + PTD).
CYCLES_BY_CLASS = {
    OpClass.IMPLIED: 4,
    OpClass.JUMP: 6,
    OpClass.BRANCH: 6,
    OpClass.MEMREF_READ: 8,
    OpClass.MEMREF_WRITE: 7,
    OpClass.JSR: 8,
}

INDIRECT_EXTRA_CYCLES = 2

def expected_cycles(op: DecodedOp) -> int:
    """Cycle cost of one instruction under this control unit."""
    base = CYCLES_BY_CLASS[op.op_class]
    return base + (INDIRECT_EXTRA_CYCLES if op.indirect else 0)
