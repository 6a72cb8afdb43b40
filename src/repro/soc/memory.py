"""The 4K x 8 memory core of the demonstrator system."""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple

from repro.isa.instructions import MEMORY_SIZE


class Memory:
    """A byte-addressable RAM core.

    The paper's demonstrator uses a single 4K instruction/data memory; the
    size is parameterized so synthetic systems (e.g. the bus-width scaling
    experiment) can use other sizes.

    :attr:`version` rises on every write that changes a cell's value and
    on every :meth:`restore` and :meth:`fill`, and never falls: two
    moments of one run with the same version have the same content.  The
    system's hang proof reads the content only when the version has
    moved, instead of copying 4K at every instruction.
    """

    def __init__(self, size: int = MEMORY_SIZE, fill: int = 0x00):
        if size <= 0:
            raise ValueError("memory size must be positive")
        if not 0 <= fill < 256:
            raise ValueError("fill byte out of range")
        self.size = size
        self._fill = fill
        self._cells = bytearray([fill] * size)
        self.version = 0

    def _check(self, address: int) -> None:
        if not 0 <= address < self.size:
            raise IndexError(f"memory address out of range: {address:#x}")

    def read(self, address: int) -> int:
        """Return the byte stored at ``address``."""
        self._check(address)
        return self._cells[address]

    def write(self, address: int, value: int) -> None:
        """Store ``value`` at ``address``."""
        self._check(address)
        if not 0 <= value < 256:
            raise ValueError(f"byte out of range: {value}")
        if self._cells[address] != value:
            self._cells[address] = value
            self.version += 1

    def load_image(self, image: Mapping[int, int]) -> None:
        """Copy a sparse ``address -> byte`` image into memory."""
        for address, value in image.items():
            self.write(address, value)

    def fill(self, value: int) -> None:
        """Set every cell to ``value``."""
        if not 0 <= value < 256:
            raise ValueError(f"byte out of range: {value}")
        for index in range(self.size):
            self._cells[index] = value
        self.version += 1

    def snapshot(self) -> bytes:
        """Return an immutable copy of the whole memory content."""
        return bytes(self._cells)

    def restore(self, snapshot: bytes) -> None:
        """Overwrite the whole memory content with a snapshot.

        This is the fast path for loading a program's base image before
        each defect replay (a single ``bytearray`` slice assignment).
        """
        if len(snapshot) != self.size:
            raise ValueError("snapshot size mismatch")
        self._cells[:] = snapshot
        self.version += 1

    def region(self, start: int, length: int) -> bytes:
        """Return ``length`` bytes starting at ``start``."""
        self._check(start)
        if length < 0 or start + length > self.size:
            raise IndexError("region out of range")
        return bytes(self._cells[start:start + length])

    def diff(self, other_snapshot: bytes) -> Dict[int, Tuple[int, int]]:
        """Compare current content against a snapshot.

        Returns ``address -> (snapshot byte, current byte)`` for every
        differing cell.
        """
        if len(other_snapshot) != self.size:
            raise ValueError("snapshot size mismatch")
        return {
            index: (other_snapshot[index], self._cells[index])
            for index in range(self.size)
            if other_snapshot[index] != self._cells[index]
        }

    def addresses_with(self, value: int) -> Iterable[int]:
        """Yield every address currently holding ``value``."""
        for index, byte in enumerate(self._cells):
            if byte == value:
                yield index
