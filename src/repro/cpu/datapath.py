"""The CPU datapath: executes one control state per clock tick.

The datapath never touches memory directly — every access goes through a
:class:`BusPort` provided by the surrounding system, split into an address
phase and a data phase on consecutive cycles.  This is what lets the
defect-simulation environment corrupt the address word and the data word of
the *same* access independently, exactly as the paper's HDL simulation does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.cpu.alu import (
    alu_add,
    alu_and,
    alu_asl,
    alu_asr,
    alu_complement,
    alu_sub,
    AluResult,
)
from repro.cpu.control import (
    ControlState,
    DecodedOp,
    OpClass,
    decode_raw,
    state_after_decode,
    state_after_operand_formed,
)
from repro.cpu.registers import RegisterFile
from repro.isa.encoding import make_address, page_of
from repro.isa.instructions import Mnemonic
from repro.soc.bus import TransactionKind


class BusPort:
    """Interface the CPU uses to reach the system buses.

    ``address_phase`` drives the address bus; the following ``read_phase``
    or ``write_phase`` moves the data word for that access.  Implementations
    must apply the *received* (possibly corrupted) address when servicing
    the data phase.
    """

    def address_phase(self, address: int, kind: TransactionKind) -> None:
        raise NotImplementedError

    def read_phase(self, kind: TransactionKind) -> int:
        raise NotImplementedError

    def write_phase(self, value: int, kind: TransactionKind) -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class CpuSnapshot:
    """Complete architectural + control state of a :class:`Cpu`.

    ``decoded`` may be shared with the live CPU — :class:`DecodedOp` is
    frozen, so sharing is safe.  Everything else is copied.
    """

    registers: RegisterFile
    state: ControlState
    instruction_count: int
    decoded: Optional[DecodedOp]
    instruction_start: int
    effective_address: int
    pointer_address: int
    operand: int


class Cpu:
    """PARWAN-class multicycle CPU.

    Call :meth:`tick` once per clock cycle.  The CPU halts when it executes
    a ``JMP`` targeting its own first byte (the conventional self-loop end
    of a self-test program); :attr:`halted` then stays true until
    :meth:`reset`.
    """

    def __init__(self, port: BusPort):
        self.port = port
        self.registers = RegisterFile()
        self.state = ControlState.FETCH1_ADDR
        self.instruction_count = 0
        self._decoded: Optional[DecodedOp] = None
        self._instruction_start = 0
        self._effective_address = 0
        self._pointer_address = 0
        self._operand = 0

    # -- observability ----------------------------------------------------

    @property
    def halted(self) -> bool:
        """True once the halt convention (self-loop JMP) was executed."""
        return self.state is ControlState.HALTED

    @property
    def decoded(self) -> Optional[DecodedOp]:
        """The currently-executing decoded instruction (None mid-fetch)."""
        return self._decoded

    def boundary_state(self) -> Tuple[int, int, int]:
        """``(pc, ac, flags)``, the CPU state one instruction hands the next.

        Same contract as :meth:`repro.cpu.microcode.FastCpu.boundary_state`.
        """
        registers = self.registers
        return (registers.pc, registers.ac, registers.flags.as_mask())

    def reset(self, pc: int = 0) -> None:
        """Reset architectural state and restart fetching at ``pc``."""
        self.registers = RegisterFile()
        self.registers.write_pc(pc)
        self.state = ControlState.FETCH1_ADDR
        self.instruction_count = 0
        self._decoded = None

    # -- state capture ----------------------------------------------------

    def snapshot(self) -> CpuSnapshot:
        """Capture the complete CPU state, mid-instruction included.

        The control FSM state and the microarchitectural latches are part
        of the snapshot, so two cores compared between the cycles of one
        instruction are compared whole.
        """
        return CpuSnapshot(
            registers=self.registers.snapshot(),
            state=self.state,
            instruction_count=self.instruction_count,
            decoded=self._decoded,
            instruction_start=self._instruction_start,
            effective_address=self._effective_address,
            pointer_address=self._pointer_address,
            operand=self._operand,
        )

    # -- execution ----------------------------------------------------------

    def tick(self) -> None:
        """Advance the control unit by one clock cycle."""
        handler = self._HANDLERS[self.state]
        handler(self)

    def tick_counted(self, occupancy: dict) -> None:
        """:meth:`tick`, also tallying FSM-state occupancy.

        The observed run loop (``CpuMemorySystem`` under full-detail
        observability) uses this variant so the plain :meth:`tick` hot
        path carries no per-cycle accounting when telemetry is off.
        """
        state = self.state
        occupancy[state] = occupancy.get(state, 0) + 1
        self._HANDLERS[state](self)

    def _tick_fetch1_addr(self) -> None:
        registers = self.registers
        self._instruction_start = registers.pc
        registers.mar = registers.pc
        self.port.address_phase(registers.pc, TransactionKind.FETCH)
        self.state = ControlState.FETCH1_DATA

    def _tick_fetch1_data(self) -> None:
        registers = self.registers
        registers.ir = self.port.read_phase(TransactionKind.FETCH)
        registers.advance_pc()
        self._decoded = decode_raw(registers.ir)
        self.state = ControlState.DECODE

    def _tick_decode(self) -> None:
        self.state = state_after_decode(self._decoded)

    def _tick_fetch2_addr(self) -> None:
        registers = self.registers
        registers.mar = registers.pc
        self.port.address_phase(registers.pc, TransactionKind.FETCH)
        self.state = ControlState.FETCH2_DATA

    def _tick_fetch2_data(self) -> None:
        registers = self.registers
        registers.arg = self.port.read_phase(TransactionKind.FETCH)
        registers.advance_pc()
        decoded = self._decoded
        if decoded.op_class is OpClass.BRANCH:
            self.state = state_after_operand_formed(decoded)
            return
        self._effective_address = make_address(decoded.page, registers.arg)
        if decoded.indirect:
            self._pointer_address = self._effective_address
            self.state = ControlState.POINTER_ADDR
        else:
            self.state = state_after_operand_formed(decoded)

    def _tick_pointer_addr(self) -> None:
        self.registers.mar = self._pointer_address
        self.port.address_phase(self._pointer_address, TransactionKind.POINTER_READ)
        self.state = ControlState.POINTER_DATA

    def _tick_pointer_data(self) -> None:
        pointer_byte = self.port.read_phase(TransactionKind.POINTER_READ)
        self._effective_address = make_address(self._decoded.page, pointer_byte)
        self.state = state_after_operand_formed(self._decoded)

    def _tick_operand_addr(self) -> None:
        self.registers.mar = self._effective_address
        self.port.address_phase(self._effective_address, TransactionKind.OPERAND_READ)
        self.state = ControlState.OPERAND_DATA

    def _tick_operand_data(self) -> None:
        self._operand = self.port.read_phase(TransactionKind.OPERAND_READ)
        self.state = ControlState.EXECUTE_ALU

    def _tick_execute_alu(self) -> None:
        registers = self.registers
        mnemonic = self._decoded.mnemonic
        if mnemonic is Mnemonic.LDA:
            registers.write_ac(self._operand)
            registers.flags.set_zn(registers.ac)
        elif mnemonic is Mnemonic.AND:
            self._apply_alu(alu_and(registers.ac, self._operand))
        elif mnemonic is Mnemonic.ADD:
            self._apply_alu(alu_add(registers.ac, self._operand))
        elif mnemonic is Mnemonic.SUB:
            self._apply_alu(alu_sub(registers.ac, self._operand))
        self._finish_instruction()

    def _tick_write_addr(self) -> None:
        self.registers.mar = self._effective_address
        self.port.address_phase(self._effective_address, TransactionKind.OPERAND_WRITE)
        self.state = ControlState.WRITE_DATA

    def _tick_write_data(self) -> None:
        decoded = self._decoded
        if decoded.op_class is OpClass.JSR:
            # Save the 8-bit return offset at the target, then jump past it.
            self.port.write_phase(
                self.registers.pc & 0xFF, TransactionKind.OPERAND_WRITE
            )
            self.state = ControlState.EXECUTE_JUMP
        else:  # STA
            self.port.write_phase(self.registers.ac, TransactionKind.OPERAND_WRITE)
            self._finish_instruction()

    def _tick_execute_jump(self) -> None:
        decoded = self._decoded
        if decoded.op_class is OpClass.JSR:
            self.registers.write_pc(self._effective_address + 1)
            self._finish_instruction()
            return
        target = self._effective_address
        if target == self._instruction_start:
            # Halt convention: a JMP to its own first byte is a self-loop.
            self.instruction_count += 1
            self.state = ControlState.HALTED
            return
        self.registers.write_pc(target)
        self._finish_instruction()

    def _tick_execute_branch(self) -> None:
        registers = self.registers
        if registers.flags.matches(self._decoded.branch_mask):
            registers.write_pc(make_address(page_of(registers.pc), registers.arg))
        self._finish_instruction()

    def _tick_execute_implied(self) -> None:
        registers = self.registers
        mnemonic = self._decoded.mnemonic
        if mnemonic is Mnemonic.CLA:
            registers.write_ac(0)
        elif mnemonic is Mnemonic.CMA:
            self._apply_alu(alu_complement(registers.ac))
        elif mnemonic is Mnemonic.CMC:
            registers.flags.c = not registers.flags.c
        elif mnemonic is Mnemonic.ASL:
            self._apply_alu(alu_asl(registers.ac))
        elif mnemonic is Mnemonic.ASR:
            self._apply_alu(alu_asr(registers.ac))
        # NOP (and undefined sub-opcodes decoded as NOP): nothing to do.
        self._finish_instruction()

    def _tick_halted(self) -> None:
        # Remain halted; the system stops clocking a halted CPU anyway.
        return

    def _apply_alu(self, result: AluResult) -> None:
        registers = self.registers
        registers.write_ac(result.value)
        registers.flags.z = result.z
        registers.flags.n = result.n
        if result.v is not None:
            registers.flags.v = result.v
        if result.c is not None:
            registers.flags.c = result.c

    def _finish_instruction(self) -> None:
        self.instruction_count += 1
        self.state = ControlState.FETCH1_ADDR

    _HANDLERS = {
        ControlState.FETCH1_ADDR: _tick_fetch1_addr,
        ControlState.FETCH1_DATA: _tick_fetch1_data,
        ControlState.DECODE: _tick_decode,
        ControlState.FETCH2_ADDR: _tick_fetch2_addr,
        ControlState.FETCH2_DATA: _tick_fetch2_data,
        ControlState.POINTER_ADDR: _tick_pointer_addr,
        ControlState.POINTER_DATA: _tick_pointer_data,
        ControlState.OPERAND_ADDR: _tick_operand_addr,
        ControlState.OPERAND_DATA: _tick_operand_data,
        ControlState.WRITE_ADDR: _tick_write_addr,
        ControlState.WRITE_DATA: _tick_write_data,
        ControlState.EXECUTE_ALU: _tick_execute_alu,
        ControlState.EXECUTE_JUMP: _tick_execute_jump,
        ControlState.EXECUTE_BRANCH: _tick_execute_branch,
        ControlState.EXECUTE_IMPLIED: _tick_execute_implied,
        ControlState.HALTED: _tick_halted,
    }
