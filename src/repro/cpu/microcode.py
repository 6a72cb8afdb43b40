"""Fast-path microprogram interpreter for the PARWAN-class CPU.

:class:`~repro.cpu.datapath.Cpu` walks the control FSM one
``ControlState`` at a time, paying an enum-keyed dict dispatch, a
``decode_raw`` dataclass allocation per fetch and an ``AluResult``
dataclass per ALU operation on every instruction.  The control sequence
of an instruction, however, is a *static* function of its first byte:
once byte 1 is on the instruction register the remaining states — and
everything each state does — are fixed.

This module exploits that.  At import time every possible first byte is
compiled into a :class:`MicroProgram`: a flat tuple of plain functions
(micro-ops), one per remaining cycle, paired with the ``ControlState``
each one implements.  :class:`FastCpu` then ticks by indexing the
current program — no enum hashing, no decode on the hot path, no result
dataclasses, ``__slots__`` registers, flags packed into a single int
nibble (same bit layout as :meth:`repro.cpu.registers.Flags.as_mask`).

The fast core is *bit-identical* to the FSM core: same bus transactions
on the same cycles, same architectural state, same snapshots.  That
contract is enforced by :mod:`repro.cpu.lockstep`, a differential
harness that co-steps both cores.  Every
:class:`~repro.soc.system.CpuMemorySystem` runs the fast core; the FSM
core stays as the readable reference model the harness checks it
against.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.cpu.control import ControlState, DecodedOp, OpClass, decode_raw
from repro.cpu.datapath import BusPort, CpuSnapshot
from repro.cpu.registers import Flags, RegisterFile
from repro.isa.instructions import Mnemonic
from repro.soc.bus import TransactionKind

__all__ = [
    "FastCpu",
    "MICROPROGRAMS",
    "MicroProgram",
    "ZERO_LOAD_CYCLES",
]

_PC_MASK = 0xFFF
_AC_MASK = 0xFF

_FETCH = TransactionKind.FETCH
_POINTER = TransactionKind.POINTER_READ
_OPERAND = TransactionKind.OPERAND_READ
_WRITE = TransactionKind.OPERAND_WRITE

# Flag bits, matching Flags.as_mask() so packed values interchange
# freely with the FSM core's dataclass flags.
_FLAG_V = 8
_FLAG_C = 4
_FLAG_Z = 2
_FLAG_N = 1


MicroOp = Callable[["FastCpu"], None]


class MicroProgram:
    """The compiled control sequence for one first byte.

    ``steps[i]`` performs the work of control state ``states[i]``; the
    two tuples are parallel.  ``decoded`` is the (shared, precomputed)
    :class:`DecodedOp` the FSM core would produce for the same byte.
    """

    __slots__ = ("steps", "states", "decoded")

    def __init__(
        self,
        steps: Tuple[MicroOp, ...],
        states: Tuple[ControlState, ...],
        decoded: DecodedOp,
    ) -> None:
        if len(steps) != len(states):
            raise ValueError("steps and states must be parallel")
        self.steps = steps
        self.states = states
        self.decoded = decoded


# ---------------------------------------------------------------------------
# Micro-ops.  Each mirrors exactly one FSM handler in datapath.py; the
# comments name the handler so divergences are easy to audit.  Ops that
# end an instruction inline _finish (bump the count, swap back to the
# fetch program); ops that change the program overwrite _program /
# _states / _step after tick()'s pre-increment.
# ---------------------------------------------------------------------------


def _u_fetch1_addr(cpu: "FastCpu") -> None:  # _tick_fetch1_addr
    pc = cpu.pc
    cpu._instruction_start = pc
    cpu.mar = pc
    cpu.port.address_phase(pc, _FETCH)


def _u_fetch1_data(cpu: "FastCpu") -> None:  # _tick_fetch1_data + DEC dispatch
    ir = cpu.port.read_phase(_FETCH)
    cpu.ir = ir
    cpu.pc = (cpu.pc + 1) & _PC_MASK
    entry = MICROPROGRAMS[ir]
    cpu._decoded = entry.decoded
    cpu._program = entry.steps
    cpu._states = entry.states
    cpu._step = 0


def _u_decode(cpu: "FastCpu") -> None:  # _tick_decode (decode precomputed)
    pass


def _u_fetch2_addr(cpu: "FastCpu") -> None:  # _tick_fetch2_addr
    pc = cpu.pc
    cpu.mar = pc
    cpu.port.address_phase(pc, _FETCH)


def _u_fetch2_data_branch(cpu: "FastCpu") -> None:  # _tick_fetch2_data (branch)
    cpu.arg = cpu.port.read_phase(_FETCH)
    cpu.pc = (cpu.pc + 1) & _PC_MASK


def _make_fetch2_data_direct(page_base: int) -> MicroOp:
    def step(cpu: "FastCpu") -> None:  # _tick_fetch2_data (direct memref)
        arg = cpu.port.read_phase(_FETCH)
        cpu.arg = arg
        cpu.pc = (cpu.pc + 1) & _PC_MASK
        cpu._effective_address = page_base | arg

    return step


def _make_fetch2_data_indirect(page_base: int) -> MicroOp:
    def step(cpu: "FastCpu") -> None:  # _tick_fetch2_data (indirect memref)
        arg = cpu.port.read_phase(_FETCH)
        cpu.arg = arg
        cpu.pc = (cpu.pc + 1) & _PC_MASK
        effective = page_base | arg
        cpu._effective_address = effective
        cpu._pointer_address = effective

    return step


def _u_pointer_addr(cpu: "FastCpu") -> None:  # _tick_pointer_addr
    pointer = cpu._pointer_address
    cpu.mar = pointer
    cpu.port.address_phase(pointer, _POINTER)


def _make_pointer_data(page_base: int) -> MicroOp:
    def step(cpu: "FastCpu") -> None:  # _tick_pointer_data
        cpu._effective_address = page_base | cpu.port.read_phase(_POINTER)

    return step


def _u_operand_addr(cpu: "FastCpu") -> None:  # _tick_operand_addr
    effective = cpu._effective_address
    cpu.mar = effective
    cpu.port.address_phase(effective, _OPERAND)


def _u_operand_data(cpu: "FastCpu") -> None:  # _tick_operand_data
    cpu._operand = cpu.port.read_phase(_OPERAND)


def _u_write_addr(cpu: "FastCpu") -> None:  # _tick_write_addr
    effective = cpu._effective_address
    cpu.mar = effective
    cpu.port.address_phase(effective, _WRITE)


def _u_write_data_sta(cpu: "FastCpu") -> None:  # _tick_write_data (STA)
    cpu.port.write_phase(cpu.ac, _WRITE)
    cpu.instruction_count += 1
    cpu._program = _FETCH_STEPS
    cpu._states = _FETCH_STATES
    cpu._step = 0


def _u_write_data_jsr(cpu: "FastCpu") -> None:  # _tick_write_data (JSR)
    cpu.port.write_phase(cpu.pc & _AC_MASK, _WRITE)
    # falls through to the EXECUTE_JUMP micro-op


def _u_execute_jump_jsr(cpu: "FastCpu") -> None:  # _tick_execute_jump (JSR)
    cpu.pc = (cpu._effective_address + 1) & _PC_MASK
    cpu.instruction_count += 1
    cpu._program = _FETCH_STEPS
    cpu._states = _FETCH_STATES
    cpu._step = 0


def _u_execute_jump(cpu: "FastCpu") -> None:  # _tick_execute_jump (JMP)
    target = cpu._effective_address
    if target == cpu._instruction_start:
        # Halt convention: a jump to its own first byte.
        cpu.instruction_count += 1
        cpu.halted = True
        cpu._program = _HALT_STEPS
        cpu._states = _HALT_STATES
        cpu._step = 0
        return
    cpu.pc = target
    cpu.instruction_count += 1
    cpu._program = _FETCH_STEPS
    cpu._states = _FETCH_STATES
    cpu._step = 0


def _make_execute_branch(mask: int) -> MicroOp:
    def step(cpu: "FastCpu") -> None:  # _tick_execute_branch
        if cpu.flags & mask:
            cpu.pc = (cpu.pc & 0xF00) | cpu.arg
        cpu.instruction_count += 1
        cpu._program = _FETCH_STEPS
        cpu._states = _FETCH_STATES
        cpu._step = 0

    return step


def _u_execute_lda(cpu: "FastCpu") -> None:  # _tick_execute_alu (LDA)
    value = cpu._operand & _AC_MASK
    cpu.ac = value
    flags = cpu.flags & (_FLAG_V | _FLAG_C)
    if value == 0:
        flags |= _FLAG_Z
    if value & 0x80:
        flags |= _FLAG_N
    cpu.flags = flags
    cpu.instruction_count += 1
    cpu._program = _FETCH_STEPS
    cpu._states = _FETCH_STATES
    cpu._step = 0


def _u_execute_and(cpu: "FastCpu") -> None:  # _tick_execute_alu (AND)
    value = cpu.ac & cpu._operand & _AC_MASK
    cpu.ac = value
    flags = cpu.flags & (_FLAG_V | _FLAG_C)
    if value == 0:
        flags |= _FLAG_Z
    if value & 0x80:
        flags |= _FLAG_N
    cpu.flags = flags
    cpu.instruction_count += 1
    cpu._program = _FETCH_STEPS
    cpu._states = _FETCH_STATES
    cpu._step = 0


def _u_execute_add(cpu: "FastCpu") -> None:  # _tick_execute_alu (ADD)
    a = cpu.ac
    b = cpu._operand & _AC_MASK
    raw = a + b
    value = raw & _AC_MASK
    flags = 0
    if value == 0:
        flags |= _FLAG_Z
    if value & 0x80:
        flags |= _FLAG_N
    if raw > _AC_MASK:
        flags |= _FLAG_C
    if ~(a ^ b) & (a ^ value) & 0x80:
        flags |= _FLAG_V
    cpu.ac = value
    cpu.flags = flags
    cpu.instruction_count += 1
    cpu._program = _FETCH_STEPS
    cpu._states = _FETCH_STATES
    cpu._step = 0


def _u_execute_sub(cpu: "FastCpu") -> None:  # _tick_execute_alu (SUB)
    a = cpu.ac
    b = cpu._operand & _AC_MASK
    raw = a + ((~b) & _AC_MASK) + 1
    value = raw & _AC_MASK
    flags = 0
    if value == 0:
        flags |= _FLAG_Z
    if value & 0x80:
        flags |= _FLAG_N
    if raw > _AC_MASK:
        flags |= _FLAG_C
    if (a ^ b) & (a ^ value) & 0x80:
        flags |= _FLAG_V
    cpu.ac = value
    cpu.flags = flags
    cpu.instruction_count += 1
    cpu._program = _FETCH_STEPS
    cpu._states = _FETCH_STATES
    cpu._step = 0


def _u_execute_nop(cpu: "FastCpu") -> None:  # _tick_execute_implied (NOP)
    cpu.instruction_count += 1
    cpu._program = _FETCH_STEPS
    cpu._states = _FETCH_STATES
    cpu._step = 0


def _u_execute_cla(cpu: "FastCpu") -> None:  # _tick_execute_implied (CLA)
    cpu.ac = 0  # flags untouched, like the FSM core
    cpu.instruction_count += 1
    cpu._program = _FETCH_STEPS
    cpu._states = _FETCH_STATES
    cpu._step = 0


def _u_execute_cma(cpu: "FastCpu") -> None:  # _tick_execute_implied (CMA)
    value = (~cpu.ac) & _AC_MASK
    cpu.ac = value
    flags = cpu.flags & (_FLAG_V | _FLAG_C)
    if value == 0:
        flags |= _FLAG_Z
    if value & 0x80:
        flags |= _FLAG_N
    cpu.flags = flags
    cpu.instruction_count += 1
    cpu._program = _FETCH_STEPS
    cpu._states = _FETCH_STATES
    cpu._step = 0


def _u_execute_cmc(cpu: "FastCpu") -> None:  # _tick_execute_implied (CMC)
    cpu.flags ^= _FLAG_C
    cpu.instruction_count += 1
    cpu._program = _FETCH_STEPS
    cpu._states = _FETCH_STATES
    cpu._step = 0


def _u_execute_asl(cpu: "FastCpu") -> None:  # _tick_execute_implied (ASL)
    a = cpu.ac
    value = (a << 1) & _AC_MASK
    cpu.ac = value
    flags = 0
    if value == 0:
        flags |= _FLAG_Z
    if value & 0x80:
        flags |= _FLAG_N
    if a & 0x80:
        flags |= _FLAG_C
    if (a ^ value) & 0x80:
        flags |= _FLAG_V
    cpu.flags = flags
    cpu.instruction_count += 1
    cpu._program = _FETCH_STEPS
    cpu._states = _FETCH_STATES
    cpu._step = 0


def _u_execute_asr(cpu: "FastCpu") -> None:  # _tick_execute_implied (ASR)
    a = cpu.ac
    value = (a >> 1) | (a & 0x80)
    cpu.ac = value
    flags = cpu.flags & _FLAG_V
    if value == 0:
        flags |= _FLAG_Z
    if value & 0x80:
        flags |= _FLAG_N
    if a & 0x01:
        flags |= _FLAG_C
    cpu.flags = flags
    cpu.instruction_count += 1
    cpu._program = _FETCH_STEPS
    cpu._states = _FETCH_STATES
    cpu._step = 0


def _u_halted(cpu: "FastCpu") -> None:  # _tick_halted
    cpu._step = 0


_FETCH_STEPS: Tuple[MicroOp, ...] = (_u_fetch1_addr, _u_fetch1_data)
_FETCH_STATES: Tuple[ControlState, ...] = (
    ControlState.FETCH1_ADDR,
    ControlState.FETCH1_DATA,
)
_HALT_STEPS: Tuple[MicroOp, ...] = (_u_halted,)
_HALT_STATES: Tuple[ControlState, ...] = (ControlState.HALTED,)

_EXECUTE_ALU: Dict[Mnemonic, MicroOp] = {
    Mnemonic.LDA: _u_execute_lda,
    Mnemonic.AND: _u_execute_and,
    Mnemonic.ADD: _u_execute_add,
    Mnemonic.SUB: _u_execute_sub,
}
_EXECUTE_IMPLIED: Dict[Mnemonic, MicroOp] = {
    Mnemonic.NOP: _u_execute_nop,
    Mnemonic.CLA: _u_execute_cla,
    Mnemonic.CMA: _u_execute_cma,
    Mnemonic.CMC: _u_execute_cmc,
    Mnemonic.ASL: _u_execute_asl,
    Mnemonic.ASR: _u_execute_asr,
}


def _compile(byte1: int) -> MicroProgram:
    """Compile the post-FETCH1 control sequence for one first byte."""
    decoded = decode_raw(byte1)
    op_class = decoded.op_class

    if op_class is OpClass.IMPLIED:
        execute = _EXECUTE_IMPLIED.get(decoded.mnemonic, _u_execute_nop)
        return MicroProgram(
            steps=(_u_decode, execute),
            states=(ControlState.DECODE, ControlState.EXECUTE_IMPLIED),
            decoded=decoded,
        )

    if op_class is OpClass.BRANCH:
        return MicroProgram(
            steps=(
                _u_decode,
                _u_fetch2_addr,
                _u_fetch2_data_branch,
                _make_execute_branch(decoded.branch_mask),
            ),
            states=(
                ControlState.DECODE,
                ControlState.FETCH2_ADDR,
                ControlState.FETCH2_DATA,
                ControlState.EXECUTE_BRANCH,
            ),
            decoded=decoded,
        )

    # Memory-reference instruction: the page bits of the effective
    # address are baked into the operand-formation closures.
    page_base = decoded.page << 8
    if decoded.indirect:
        steps = [
            _u_decode,
            _u_fetch2_addr,
            _make_fetch2_data_indirect(page_base),
            _u_pointer_addr,
            _make_pointer_data(page_base),
        ]
        states = [
            ControlState.DECODE,
            ControlState.FETCH2_ADDR,
            ControlState.FETCH2_DATA,
            ControlState.POINTER_ADDR,
            ControlState.POINTER_DATA,
        ]
    else:
        steps = [_u_decode, _u_fetch2_addr, _make_fetch2_data_direct(page_base)]
        states = [
            ControlState.DECODE,
            ControlState.FETCH2_ADDR,
            ControlState.FETCH2_DATA,
        ]

    if op_class is OpClass.MEMREF_READ:
        steps += [_u_operand_addr, _u_operand_data, _EXECUTE_ALU[decoded.mnemonic]]
        states += [
            ControlState.OPERAND_ADDR,
            ControlState.OPERAND_DATA,
            ControlState.EXECUTE_ALU,
        ]
    elif op_class is OpClass.MEMREF_WRITE:
        steps += [_u_write_addr, _u_write_data_sta]
        states += [ControlState.WRITE_ADDR, ControlState.WRITE_DATA]
    elif op_class is OpClass.JSR:
        steps += [_u_write_addr, _u_write_data_jsr, _u_execute_jump_jsr]
        states += [
            ControlState.WRITE_ADDR,
            ControlState.WRITE_DATA,
            ControlState.EXECUTE_JUMP,
        ]
    elif op_class is OpClass.JUMP:
        steps += [_u_execute_jump]
        states += [ControlState.EXECUTE_JUMP]
    else:  # pragma: no cover - decode_raw covers every class above
        raise AssertionError(f"unhandled op class {op_class!r}")

    return MicroProgram(steps=tuple(steps), states=tuple(states), decoded=decoded)


#: One compiled microprogram per possible first byte, built at import
#: time — the fast core's whole "decoder".
MICROPROGRAMS: Tuple[MicroProgram, ...] = tuple(_compile(b) for b in range(256))

#: Cycles of ``00 00``, which decodes as ``LDA 0x000``: the instruction
#: zero-filled memory is made of (:meth:`FastCpu.retire_zero_loads`).
ZERO_LOAD_CYCLES = len(_FETCH_STEPS) + len(MICROPROGRAMS[0].steps)
_ZERO_LOAD_DECODED = MICROPROGRAMS[0].decoded


class FastCpu:
    """Drop-in replacement for :class:`~repro.cpu.datapath.Cpu`.

    Same bus protocol, same snapshot format, same observable state at
    every cycle boundary; only the dispatch machinery differs.  The
    architectural control state is ``self._states[self._step]`` — the
    state the *next* tick will execute, exactly matching the FSM core's
    ``state`` attribute between ticks.
    """

    __slots__ = (
        "port",
        "ac",
        "pc",
        "ir",
        "arg",
        "mar",
        "flags",
        "instruction_count",
        "halted",
        "_program",
        "_states",
        "_step",
        "_decoded",
        "_instruction_start",
        "_effective_address",
        "_pointer_address",
        "_operand",
    )

    def __init__(self, port: BusPort) -> None:
        self.port = port
        self.ac = 0
        self.pc = 0
        self.ir = 0
        self.arg = 0
        self.mar = 0
        self.flags = 0
        self.instruction_count = 0
        self.halted = False
        self._program = _FETCH_STEPS
        self._states = _FETCH_STATES
        self._step = 0
        self._decoded: Optional[DecodedOp] = None
        self._instruction_start = 0
        self._effective_address = 0
        self._pointer_address = 0
        self._operand = 0

    # -- hot path -----------------------------------------------------

    def tick(self) -> None:
        """Advance one clock cycle."""
        step = self._step
        self._step = step + 1
        self._program[step](self)

    def retire_zero_loads(self, count: int, operand: int) -> None:
        """Retire ``count`` whole ``LDA 0x000`` instructions at once.

        Called at an instruction boundary by the system's sled
        fast-forward, which has proven that the next ``count``
        instructions each fetch ``00 00`` (``LDA 0x000``) and that the
        last one's operand read received ``operand``.  Every register
        and latch is left as stepping them would leave it.
        """
        last = (self.pc + 2 * (count - 1)) & _PC_MASK
        self._instruction_start = last
        self.pc = (last + 2) & _PC_MASK
        self.ir = 0
        self.arg = 0
        self.mar = 0
        self._decoded = _ZERO_LOAD_DECODED
        self._effective_address = 0
        self._operand = operand
        value = operand & _AC_MASK
        self.ac = value
        flags = self.flags & (_FLAG_V | _FLAG_C)
        if value == 0:
            flags |= _FLAG_Z
        if value & 0x80:
            flags |= _FLAG_N
        self.flags = flags
        self.instruction_count += count

    # -- FSM-compatible surface ---------------------------------------

    def boundary_state(self) -> Tuple[int, int, int]:
        """``(pc, ac, flags)``, the CPU state one instruction hands the next.

        Read between instructions.  Every other register and latch is
        written by the next instruction before it is read, so these are
        all of the CPU the hang proof needs (DESIGN §5.8).
        """
        return (self.pc, self.ac, self.flags)

    @property
    def state(self) -> ControlState:
        """The control state the next tick will execute."""
        return self._states[self._step]

    @property
    def decoded(self) -> Optional[DecodedOp]:
        """The most recently fetched instruction, if any."""
        return self._decoded

    @property
    def registers(self) -> RegisterFile:
        """A read-only :class:`RegisterFile` view of the packed state."""
        flags = self.flags
        return RegisterFile(
            ac=self.ac,
            pc=self.pc,
            ir=self.ir,
            arg=self.arg,
            mar=self.mar,
            flags=Flags(
                v=bool(flags & _FLAG_V),
                c=bool(flags & _FLAG_C),
                z=bool(flags & _FLAG_Z),
                n=bool(flags & _FLAG_N),
            ),
        )

    def reset(self, pc: int = 0) -> None:
        """Reset architectural state and start fetching at ``pc``.

        Mirrors the FSM core: registers and flags clear, the
        microarchitectural latches keep their values.
        """
        self.ac = 0
        self.pc = pc & _PC_MASK
        self.ir = 0
        self.arg = 0
        self.mar = 0
        self.flags = 0
        self.instruction_count = 0
        self.halted = False
        self._program = _FETCH_STEPS
        self._states = _FETCH_STATES
        self._step = 0
        self._decoded = None

    def snapshot(self) -> CpuSnapshot:
        """Freeze the CPU state (interchangeable with the FSM core's)."""
        return CpuSnapshot(
            registers=self.registers,
            state=self._states[self._step],
            instruction_count=self.instruction_count,
            decoded=self._decoded,
            instruction_start=self._instruction_start,
            effective_address=self._effective_address,
            pointer_address=self._pointer_address,
            operand=self._operand,
        )
