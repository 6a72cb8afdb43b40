"""Architectural registers and status flags of the PARWAN-class CPU."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instructions import ADDR_BITS, DATA_BITS

_AC_MASK = (1 << DATA_BITS) - 1
_PC_MASK = (1 << ADDR_BITS) - 1


@dataclass
class Flags:
    """The V, C, Z, N status flags.

    The branch instructions select flags with a 4-bit mask whose bit 3 is V,
    bit 2 is C, bit 1 is Z and bit 0 is N (matching the instruction
    encoding in :mod:`repro.isa.instructions`).
    """

    v: bool = False
    c: bool = False
    z: bool = False
    n: bool = False

    def as_mask(self) -> int:
        """Pack the flags into the branch-condition nibble layout."""
        return (
            (8 if self.v else 0)
            | (4 if self.c else 0)
            | (2 if self.z else 0)
            | (1 if self.n else 0)
        )

    def matches(self, mask: int) -> bool:
        """True if any flag selected by ``mask`` is set (branch condition)."""
        return bool(self.as_mask() & mask)

    def snapshot(self) -> "Flags":
        """An independent copy of the current flag values."""
        return Flags(v=self.v, c=self.c, z=self.z, n=self.n)

    def set_zn(self, value: int) -> None:
        """Update Z and N from an 8-bit result."""
        self.z = (value & _AC_MASK) == 0
        self.n = bool(value & 0x80)


@dataclass
class RegisterFile:
    """Programmer-visible and microarchitectural registers.

    ``ac``  accumulator (8 bits)
    ``pc``  program counter (12 bits)
    ``ir``  instruction register, first instruction byte (8 bits)
    ``arg`` second instruction byte (8 bits)
    ``mar`` memory address register (12 bits) — the last address the CPU
            *intended* to drive (the bus may deliver a corrupted one).
    """

    ac: int = 0
    pc: int = 0
    ir: int = 0
    arg: int = 0
    mar: int = 0
    flags: Flags = field(default_factory=Flags)

    def write_ac(self, value: int) -> None:
        """Clamp and store an accumulator value."""
        self.ac = value & _AC_MASK

    def write_pc(self, value: int) -> None:
        """Clamp and store a program-counter value."""
        self.pc = value & _PC_MASK

    def advance_pc(self) -> None:
        """Increment the program counter with 12-bit wraparound."""
        self.write_pc(self.pc + 1)

    def snapshot(self) -> "RegisterFile":
        """An independent copy of the whole register file.

        The returned object shares nothing with the live one; treat it
        as immutable (it backs :class:`~repro.cpu.datapath.CpuSnapshot`,
        which the lockstep harness compares across cores).
        """
        return RegisterFile(
            ac=self.ac,
            pc=self.pc,
            ir=self.ir,
            arg=self.arg,
            mar=self.mar,
            flags=self.flags.snapshot(),
        )
