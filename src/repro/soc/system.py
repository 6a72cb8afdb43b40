"""Wiring of the CPU-memory system used throughout the paper.

A :class:`CpuMemorySystem` owns the 12-bit unidirectional address bus, the
8-bit bidirectional data bus, the memory core, optional memory-mapped
peripheral cores, and a PARWAN-class CPU.  It implements the CPU's
:class:`~repro.cpu.datapath.BusPort`, so every CPU memory access becomes an
address-bus transaction followed by a data-bus transaction — the exact
transition stream the crosstalk error model corrupts.

The memory services the *received* address of each access: a corrupted
address-bus word makes reads return data from the wrong location and writes
land at the wrong location, which is how address-bus crosstalk errors
manifest in the paper (Section 3.2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cpu.datapath import BusPort, CpuSnapshot
from repro.cpu.microcode import ZERO_LOAD_CYCLES, FastCpu
from repro.isa.instructions import ADDR_BITS, DATA_BITS, MEMORY_SIZE
from repro.obs import runtime as obs_runtime
from repro.obs.runtime import Observability
from repro.soc.bus import Bus, BusDirection, BusSnapshot, TransactionKind
from repro.soc.memory import Memory
from repro.soc.mmio import MMIORegion


#: Addresses the 12-bit program counter reaches; a sled stops short of
#: the wrap to 0x000.
_ADDRESS_SPACE = 1 << ADDR_BITS
#: Row ``a``: the address-bus words an ``LDA 0x000`` at ``a`` drives,
#: ``a``, ``a+1`` and ``0x000``.  A sled of ``k`` instructions from
#: ``pc`` drives ``_SLED_WORDS[pc:pc + 2k:2]``.
_SLED_WORDS = np.zeros((_ADDRESS_SPACE, 3), dtype=np.int64)
_SLED_WORDS[:, 0] = np.arange(_ADDRESS_SPACE)
_SLED_WORDS[:, 1] = np.arange(1, _ADDRESS_SPACE + 1)
_TO_MEM = BusDirection.CPU_TO_MEM
_TO_CPU = BusDirection.MEM_TO_CPU
_FETCH = TransactionKind.FETCH
_OPERAND = TransactionKind.OPERAND_READ
#: Distinct memory contents one :meth:`CpuMemorySystem._clock` call
#: interns for its hang proof (4 MB of 4K memories); past it the proof
#: forgets every key and starts over.
_MAX_CONTENTS = 1024


class RunEnd(enum.Enum):
    """Why :meth:`CpuMemorySystem.run` or :meth:`~CpuMemorySystem.resume`
    stopped clocking."""

    #: The CPU executed the halt convention (a jump to its own first byte).
    HALTED = "halted"
    #: The full system state repeated at an instruction boundary, which
    #: proves the run loops forever and can never halt (DESIGN §5.8).
    LOOP = "loop"
    #: ``max_cycles`` ran out before either of the above.
    BUDGET = "budget"


@dataclass(frozen=True)
class RunResult:
    """Outcome of running the CPU until halt, a proven loop or a cycle budget."""

    end: RunEnd
    cycles: int
    instructions: int

    @property
    def halted(self) -> bool:
        """True when the run reached the halt convention."""
        return self.end is RunEnd.HALTED

    @property
    def timed_out(self) -> bool:
        """True when the run did not halt: a proven loop or the budget.

        A proven loop stops the run early, but it could never have
        halted within any budget, so it counts as timed out too.
        """
        return not self.halted


@dataclass(frozen=True)
class SystemSnapshot:
    """Complete state of a :class:`CpuMemorySystem`, for comparison.

    Everything the simulation depends on is captured: the clock, the CPU
    (mid-instruction latches included), the memory image, and both buses'
    held words and counters.  Two runs with equal snapshots are in the
    same state, which is how the lockstep harness and the sled
    fast-forward tests check one path of execution against another.
    """

    cycle: int
    pending_address: int
    cpu: CpuSnapshot
    memory: bytes
    address_bus: BusSnapshot
    data_bus: BusSnapshot


class CpuMemorySystem(BusPort):
    """The demonstrator SoC: CPU + memory on shared address/data buses.

    Parameters
    ----------
    memory_size:
        Bytes of memory (default: the paper's 4K).
    addr_bits / data_bits:
        Bus widths; defaults match the paper (12-bit address, 8-bit data).
    mmio_regions:
        Optional memory-mapped cores overriding parts of the address space.

    The CPU is the microprogram interpreter
    (:class:`~repro.cpu.microcode.FastCpu`).  It is bit-identical to the
    readable FSM reference :class:`~repro.cpu.datapath.Cpu`, which
    :mod:`repro.cpu.lockstep` swaps in to prove it.
    """

    def __init__(
        self,
        memory_size: int = MEMORY_SIZE,
        addr_bits: int = ADDR_BITS,
        data_bits: int = DATA_BITS,
        mmio_regions: Optional[Sequence[MMIORegion]] = None,
    ):
        self.address_bus = Bus("addr", addr_bits)
        self.data_bus = Bus("data", data_bits)
        self.memory = Memory(memory_size)
        self.mmio_regions: List[MMIORegion] = list(mmio_regions or [])
        self.cpu = FastCpu(self)
        self.cycle = 0
        self._pending_address = 0

    # -- BusPort implementation ------------------------------------------

    def address_phase(self, address: int, kind: TransactionKind) -> None:
        self._pending_address = self.address_bus.transfer(
            address, _TO_MEM, kind, self.cycle
        )

    def read_phase(self, kind: TransactionKind) -> int:
        if self.mmio_regions:
            value = self._route_read(self._pending_address)
        else:
            memory = self.memory
            value = memory._cells[self._pending_address % memory.size]
        return self.data_bus.transfer(value, _TO_CPU, kind, self.cycle)

    def write_phase(self, value: int, kind: TransactionKind) -> None:
        received = self.data_bus.transfer(value, _TO_MEM, kind, self.cycle)
        if self.mmio_regions:
            self._route_write(self._pending_address, received)
        else:
            memory = self.memory
            memory.write(self._pending_address % memory.size, received)

    # -- address decoding --------------------------------------------------

    def _find_region(self, address: int) -> Optional[MMIORegion]:
        for region in self.mmio_regions:
            if region.contains(address):
                return region
        return None

    def _route_read(self, address: int) -> int:
        region = self._find_region(address)
        if region is not None:
            return region.core.read(address - region.base)
        return self.memory.read(address % self.memory.size)

    def _route_write(self, address: int, value: int) -> None:
        region = self._find_region(address)
        if region is not None:
            region.core.write(address - region.base, value)
            return
        self.memory.write(address % self.memory.size, value)

    # -- program control ----------------------------------------------------

    def load_image(self, image: Mapping[int, int]) -> None:
        """Copy a sparse program image into memory."""
        self.memory.load_image(image)

    def reset(self, pc: int = 0) -> None:
        """Reset CPU, clock and bus state (memory content is preserved)."""
        self.cpu.reset(pc)
        self.cycle = 0
        self.address_bus.reset()
        self.data_bus.reset()

    def step(self) -> None:
        """Advance the system by one clock cycle."""
        self.cycle += 1
        self.cpu.tick()

    # -- state capture ---------------------------------------------------

    def snapshot(self) -> SystemSnapshot:
        """Capture the full system state.

        Only pure CPU+memory systems can be captured whole: memory-mapped
        peripheral cores keep private state the system cannot see, so a
        system with ``mmio_regions`` refuses to snapshot rather than
        produce a snapshot that silently omits it.
        """
        if self.mmio_regions:
            raise ValueError(
                "cannot snapshot a system with MMIO regions: peripheral "
                "cores hold state outside the system's reach"
            )
        return SystemSnapshot(
            cycle=self.cycle,
            pending_address=self._pending_address,
            cpu=self.cpu.snapshot(),
            memory=self.memory.snapshot(),
            address_bus=self.address_bus.snapshot(),
            data_bus=self.data_bus.snapshot(),
        )

    # -- clocked execution ---------------------------------------------------

    def run(self, entry: int = 0, max_cycles: int = 1_000_000) -> RunResult:
        """Reset to ``entry`` and clock the CPU until it halts.

        ``max_cycles`` bounds runaway programs — a crosstalk defect can send
        the CPU into an endless loop, which the defect simulator must treat
        as a (detected) abnormal outcome rather than hang.  A run whose
        full state repeats stops before the budget with
        :attr:`RunEnd.LOOP` (see :meth:`_clock`).

        When an observability session is active the run additionally
        rolls its aggregate counters (cycles, instructions, per-bus
        transaction stats) into the session registry.  Either way the
        run clocks through the same loop (:meth:`_clock`).
        """
        self.reset(entry)
        return self._drive(obs_runtime.active(), max_cycles, "cpu.runs")

    def resume(self, max_cycles: int = 1_000_000) -> RunResult:
        """Continue clocking without a reset.

        Used for cycle-level inspection and by the screened simulation
        engine to continue a replay after its stepped fault-free prefix.
        Instrumented the
        same way as :meth:`run` (counter ``cpu.resumes`` instead of
        ``cpu.runs``); counter increments are deltas over this call, so
        a run split into resumes tallies the same totals as one run.
        """
        return self._drive(obs_runtime.active(), max_cycles, "cpu.resumes")

    def _sled_bus(self) -> Optional[Bus]:
        """The bus a sled fast-forward judges, or ``None`` when it is off.

        It is on only when exactly one bus carries a corruption hook,
        that hook has the batch form (see
        :data:`~repro.soc.bus.CorruptionHook`), neither bus has
        observers, no MMIO region is attached and the CPU is the fast
        core.  Everything else a sled does is then a function of the
        memory image and that one hook.
        """
        if self.mmio_regions or not isinstance(self.cpu, FastCpu):
            return None
        buses = (self.address_bus, self.data_bus)
        if any(bus._observers for bus in buses):
            return None
        hooked = [bus for bus in buses if bus._corruption_hook is not None]
        if len(hooked) != 1 or not hasattr(
            hooked[0]._corruption_hook, "corrupt_many"
        ):
            return None
        return hooked[0]

    def _fast_forward(self, hooked: Bus, max_cycles: int) -> int:
        """Jump over a sled of ``LDA 0x000`` instructions; the cycles skipped.

        Called at an instruction boundary where memory holds ``00 00``
        at ``pc``.  The sled is predicted to the end of the zero run or
        to the last whole instruction that fits in ``max_cycles``: each
        instruction drives ``pc``, ``pc+1`` and ``0x000`` on the address
        bus and reads ``M[received address]`` on the data bus.  One
        batch call to ``hooked`` judges the predicted transitions.  An
        instruction stays ``LDA 0x000`` while the bytes it actually
        fetches are zero (a corrupted fetch address that lands on
        another zero byte still fetches ``00``), so the run provably
        follows the prediction up to the first instruction that would
        fetch a nonzero byte.  The jump stops there, and the hook
        consumes only the transitions of the instructions jumped over.

        An address-bus sled's words are a slice of :data:`_SLED_WORDS`.
        A data-bus sled drives the same three words in every instruction
        and only its first instruction starts from another held word, so
        its first two instructions are judged and the rest repeat the
        second.
        """
        cpu = self.cpu
        cells = self.memory._cells
        size = self.memory.size
        pc = cpu.pc
        count = (max_cycles - self.cycle) // ZERO_LOAD_CYCLES
        span = cells[pc:min(size, _ADDRESS_SPACE, pc + 2 * count)]
        count = (len(span) - len(span.lstrip(b"\0"))) // 2
        if not count:
            return 0
        hook = hooked._corruption_hook
        if hooked is self.address_bus:
            direction = _TO_MEM
            driven = _SLED_WORDS[pc:pc + 2 * count:2].ravel()
        else:
            direction = _TO_CPU
            loaded = cells[0]
            driven = np.array((0, 0, loaded, 0, 0, loaded), dtype=np.int64)
        # Every transition starts from the word driven before it.
        previous = np.empty_like(driven)
        previous[0] = hooked._value
        previous[1:] = driven[:-1]
        received = hook.corrupt_many(previous, driven, direction)
        if direction is _TO_MEM:
            # Memory serves ``M[received address % size]``.
            fetched = np.frombuffer(cells, dtype=np.uint8).take(
                received.reshape(count, 3)[:, :2], mode="wrap"
            )
            hits = np.flatnonzero(fetched)
            taken = int(hits[0]) >> 1 if hits.size else count
            if not taken:
                return 0
            consumed = 3 * taken
            previous = previous[:consumed]
            driven = driven[:consumed]
            received = received[:consumed]
            corrupted = int(np.count_nonzero(received != driven))
        else:
            words = received.tolist()
            if words[0] or words[1]:
                return 0
            taken = 1 if count > 1 and (words[3] or words[4]) else count
            # Every fetch jumped over received its driven 0; every operand
            # read is the same transition, 0 -> loaded.
            corrupted = taken if words[2] != loaded else 0
            previous = np.tile(previous[3:], taken)
            previous[0] = hooked._value
            driven = np.tile(driven[3:], taken)
            received = np.tile(received[3:], taken)
            received[:3] = words[:3]
        hook.consume(previous, driven, direction, received)
        last = int(received[-1])
        kinds = {_FETCH: 2 * taken, _OPERAND: taken}
        if direction is _TO_MEM:
            # The last operand read was served from its received address.
            self._pending_address = last
            operand = cells[last % size]
            self.address_bus.account(0, kinds, corrupted)
            self.data_bus.account(operand, kinds, 0)
        else:
            # The data bus settles on the driven M[0x000]; the CPU loads
            # the word it received.
            self._pending_address = 0
            operand = last
            self.address_bus.account(0, kinds, 0)
            self.data_bus.account(loaded, kinds, corrupted)
        cpu.retire_zero_loads(taken, operand)
        skipped = ZERO_LOAD_CYCLES * taken
        self.cycle += skipped
        return skipped

    def _clock(self, max_cycles: int) -> Tuple[RunEnd, int]:
        """Tick the CPU once per cycle until halt, a proven loop or
        ``max_cycles``; the end and the cycles fast-forwarded.

        The hang proof: the system is deterministic and a bus corruption
        hook is a pure function of its transition, so when the state at
        an instruction boundary repeats, the run repeats forever.  That
        state is the CPU's :meth:`boundary_state`, both buses' held words
        and the memory content.  The content enters the key as a small
        int: each time :attr:`Memory.version` moves, the memory is copied
        once and interned, so a loop whose writes bring memory back to an
        earlier content is proven too.  At most :data:`_MAX_CONTENTS`
        contents are interned; past that the keys and contents are
        dropped, which can delay or lose a proof but never invents one.
        MMIO cores keep state outside the key, so a system with
        ``mmio_regions`` is only stopped by halt or the budget — the
        same rule :meth:`snapshot` applies.

        The sled fast-forward (:meth:`_fast_forward`) runs at every
        instruction boundary that starts on ``00 00`` while
        :meth:`_sled_bus` allows it.  The boundaries it jumps over are
        not keyed, so a proof can come later or not at all (the run then
        ends at the budget, the same timed-out outcome), but is never
        invented.
        """
        cpu = self.cpu
        if cpu.halted:
            return RunEnd.HALTED, 0
        tick = cpu.tick
        prove = not self.mmio_regions
        boundary_state = cpu.boundary_state
        memory = self.memory
        sled_bus = self._sled_bus()
        cells = memory._cells
        last_start = min(memory.size, _ADDRESS_SPACE) - 1
        skipped = 0
        address_bus = self.address_bus
        data_bus = self.data_bus
        seen: set = set()
        contents: dict = {bytes(cells): 0} if prove else {}
        content = 0
        version = memory.version
        count = cpu.instruction_count
        cycle = self.cycle
        while cycle < max_cycles:
            cycle += 1
            self.cycle = cycle
            tick()
            if cpu.instruction_count == count:
                continue
            # An instruction boundary.  Halting retires the halt jump,
            # so a halt is always seen here.
            if cpu.halted:
                return RunEnd.HALTED, skipped
            if sled_bus is not None:
                pc = cpu.pc
                if pc < last_start and not cells[pc] and not cells[pc + 1]:
                    skipped += self._fast_forward(sled_bus, max_cycles)
                    cycle = self.cycle
            count = cpu.instruction_count
            if not prove:
                continue
            if memory.version != version:
                version = memory.version
                snapshot = bytes(cells)
                content = contents.get(snapshot)
                if content is None:
                    if len(contents) == _MAX_CONTENTS:
                        contents.clear()
                        seen.clear()
                    content = contents[snapshot] = len(contents)
            # The held words are read directly: the ``value`` property
            # would add two Python calls to every instruction.
            key = (
                boundary_state(), address_bus._value, data_bus._value, content
            )
            if key in seen:
                return RunEnd.LOOP, skipped
            seen.add(key)
        return RunEnd.BUDGET, skipped

    def _drive(
        self, obs: Optional[Observability], max_cycles: int, run_counter: str
    ) -> RunResult:
        """Clock the CPU until it stops; shared by run/resume."""
        cpu = self.cpu
        if obs is None:
            end, _ = self._clock(max_cycles)
            return RunResult(
                end=end, cycles=self.cycle, instructions=cpu.instruction_count
            )
        cycles_before = self.cycle
        instructions_before = cpu.instruction_count
        buses = (self.address_bus, self.data_bus)
        before = [
            (bus._transaction_count, bus._corrupted_count, bus._kind_counts.copy())
            for bus in buses
        ]
        end, skipped = self._clock(max_cycles)
        result = RunResult(
            end=end, cycles=self.cycle, instructions=cpu.instruction_count
        )
        registry = obs.registry
        registry.counter(run_counter).inc()
        registry.counter("cpu.cycles").inc(self.cycle - cycles_before)
        registry.counter("cpu.instructions").inc(
            cpu.instruction_count - instructions_before
        )
        if result.timed_out:
            registry.counter("cpu.timeouts").inc()
        if skipped:
            registry.counter("cpu.cycles_fast_forwarded").inc(skipped)
        if end is RunEnd.LOOP:
            registry.counter("cpu.hangs_proven").inc()
            registry.counter("cpu.cycles_elided").inc(max_cycles - self.cycle)
        for bus, (transactions, corrupted, kinds) in zip(buses, before):
            name = bus.name
            registry.counter(f"bus.{name}.transactions").inc(
                bus._transaction_count - transactions
            )
            registry.counter(f"bus.{name}.corrupted").inc(
                bus._corrupted_count - corrupted
            )
            for kind, count in bus._kind_counts.items():
                if count != kinds[kind]:
                    registry.counter(f"bus.{name}.kind.{kind.value}").inc(
                        count - kinds[kind]
                    )
        return result
