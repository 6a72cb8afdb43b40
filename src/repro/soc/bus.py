"""Tri-state bus model with hold-last-value semantics.

The paper's demonstrator controls bus access with tri-state buffers; when
all buffers are disabled the bus floats (``z``) and is assumed to hold the
last defined value (Section 4.1, Fig. 5).  That assumption matters: the
first vector of a crosstalk test pair is whatever was last driven on the
bus, so the bus model must remember it across transactions.

A :class:`Bus` therefore keeps the last *settled* word.  Each
:meth:`Bus.transfer` is one transaction: the driver puts a new word on the
wires, producing a transition ``(previous, driven)``; an optional crosstalk
error model decides what the receiver actually samples.  Glitches and
delays are transient, so the settled value after the transaction is the
driven word regardless of what the receiver saw.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple


class BusDirection(enum.Enum):
    """Driving direction of a transaction on a (possibly bidirectional) bus."""

    CPU_TO_MEM = "cpu_to_mem"
    MEM_TO_CPU = "mem_to_cpu"

    # Members are singletons, so identity hashing is sound; replays key
    # every recorded transition by direction, and Enum's hash is Python.
    __hash__ = object.__hash__


class TransactionKind(enum.Enum):
    """What a bus transaction was for (used by tracing and analysis)."""

    FETCH = "fetch"
    OPERAND_READ = "operand_read"
    OPERAND_WRITE = "operand_write"
    POINTER_READ = "pointer_read"

    # As for BusDirection: transfer() bumps a per-kind count on every
    # bus word, keyed by member.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class BusTransaction:
    """One recorded bus transaction.

    ``driven`` is the word the driver put on the bus; ``received`` is the
    word sampled at the receiving end (equal to ``driven`` unless a
    crosstalk error corrupted the transition ``previous -> driven``).
    """

    cycle: int
    bus: str
    kind: TransactionKind
    direction: BusDirection
    previous: int
    driven: int
    received: int

    @property
    def corrupted(self) -> bool:
        """True if the receiver sampled a word different from the driven one."""
        return self.received != self.driven


#: Signature of a corruption hook: (previous, driven, direction) -> received.
#:
#: A hook object may also offer a batch form, which lets
#: :class:`~repro.soc.system.CpuMemorySystem` fast-forward a run through
#: a stretch of transitions it can predict (DESIGN §5.9):
#: ``corrupt_many(transitions) -> received words`` judges a list of
#: ``(previous, driven, direction)`` triples without side effects, and
#: ``consume(transitions, received)`` then tallies the prefix the run
#: actually used, as one call each would have.
CorruptionHook = Callable[[int, int, BusDirection], int]


@dataclass(frozen=True)
class BusSnapshot:
    """Complete state of one bus: held word plus native counters.

    Hooks and observers are deliberately *not* part of the snapshot —
    they are wiring, not state.
    """

    value: int
    transactions: int
    corrupted: int
    by_kind: Tuple[Tuple[TransactionKind, int], ...]


class Bus:
    """An N-bit bus with hold-last-value semantics and a corruption hook.

    Parameters
    ----------
    name:
        Identifier used in transaction records (e.g. ``"addr"``, ``"data"``).
    width:
        Bus width in bits.
    initial:
        The word the bus is assumed to hold before the first transaction.
    """

    def __init__(self, name: str, width: int, initial: int = 0):
        if width <= 0:
            raise ValueError("bus width must be positive")
        mask = (1 << width) - 1
        if not 0 <= initial <= mask:
            raise ValueError("initial value does not fit the bus width")
        self.name = name
        self.width = width
        self._mask = mask
        self._value = initial
        self._corruption_hook: Optional[CorruptionHook] = None
        self._observers: List[Callable[[BusTransaction], None]] = []
        self._transaction_count = 0
        self._corrupted_count = 0
        self._kind_counts: Dict[TransactionKind, int] = {
            kind: 0 for kind in TransactionKind
        }

    @property
    def value(self) -> int:
        """The word the bus currently holds (last settled value)."""
        return self._value

    def install_corruption_hook(self, hook: Optional[CorruptionHook]) -> None:
        """Install (or clear, with ``None``) the crosstalk corruption hook.

        A hook must be a pure function of ``(previous, driven,
        direction)``: the same transition always yields the same received
        word.  Tallies on the side are fine; a result that depends on
        history is not.  :class:`~repro.soc.system.CpuMemorySystem`
        proves a run loops forever from a repeated state, and screened
        replay reuses recorded decisions, and both rely on this.
        """
        self._corruption_hook = hook

    def add_observer(self, observer: Callable[[BusTransaction], None]) -> None:
        """Register a callback invoked with every completed transaction."""
        self._observers.append(observer)

    def reset(self, value: int = 0) -> None:
        """Reset the held word (the corruption hook and observers remain)."""
        if not 0 <= value <= self._mask:
            raise ValueError("reset value does not fit the bus width")
        self._value = value

    def snapshot(self) -> BusSnapshot:
        """Capture the held word and the native counters."""
        return BusSnapshot(
            value=self._value,
            transactions=self._transaction_count,
            corrupted=self._corrupted_count,
            by_kind=tuple(self._kind_counts.items()),
        )

    def account(
        self, held: int, kinds: Mapping[TransactionKind, int], corrupted: int
    ) -> None:
        """Book transfers that were proven instead of made.

        The system's sled fast-forward judges a run of transactions in
        one batch; this leaves the bus as the matching :meth:`transfer`
        calls would have: ``held`` is the last driven word, ``kinds``
        counts the transactions by kind and ``corrupted`` of them were
        received wrong.  Nothing is reported to observers, so the caller
        must not fast-forward a bus that has any.
        """
        self._value = held
        for kind, count in kinds.items():
            self._transaction_count += count
            self._kind_counts[kind] += count
        self._corrupted_count += corrupted

    def transfer(
        self,
        value: int,
        direction: BusDirection,
        kind: TransactionKind,
        cycle: int,
    ) -> int:
        """Drive ``value`` onto the bus and return the word the receiver sees.

        The transition subjected to the corruption hook is from the last
        settled word to ``value``.  After the call the bus holds ``value``.
        """
        if not 0 <= value <= self._mask:
            raise ValueError(
                f"value {value:#x} does not fit {self.width}-bit bus {self.name!r}"
            )
        previous = self._value
        received = value
        if self._corruption_hook is not None:
            received = self._corruption_hook(previous, value, direction) & self._mask
        self._value = value
        self._transaction_count += 1
        self._kind_counts[kind] += 1
        if received != value:
            self._corrupted_count += 1
        observers = self._observers
        if observers:
            # Only materialize the transaction record when someone is
            # listening; the no-observer path is the simulation hot loop.
            transaction = BusTransaction(
                cycle=cycle,
                bus=self.name,
                kind=kind,
                direction=direction,
                previous=previous,
                driven=value,
                received=received,
            )
            for observer in observers:
                observer(transaction)
        return received
