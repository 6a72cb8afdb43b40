"""Capacitance extraction and the capacitance parameter set.

A :class:`CapacitanceSet` is the in-memory equivalent of the paper's
"parameter file containing the values of the coupling capacitance among
interconnects": a symmetric wire-to-wire coupling matrix plus a per-wire
ground capacitance.  All values are in femtofarads.

Extraction uses first-order parallel-line formulas:

* coupling between adjacent wires: ``C_AREA_COUPLING * length / spacing``
* ground capacitance: ``C_GROUND_PER_UM * length``

These constants are loosely calibrated to a late-1990s 0.25 um process
(the paper's era); their absolute values only set scales — all experiment
conclusions depend on *ratios* (net coupling vs. threshold).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple, Union

from repro.xtalk.geometry import BusGeometry

#: Sidewall coupling constant, fF * um (per um of length, per um of spacing).
C_AREA_COUPLING = 0.08
#: Ground (area + fringe) capacitance per um of wire length, fF/um.
C_GROUND_PER_UM = 0.04

#: A NaN coupling would never flip a wire and silently lower coverage.
_NOT_A_CAPACITANCE = "capacitances must be finite and non-negative"


@dataclass(frozen=True)
class CapacitanceSet:
    """Coupling and ground capacitances of one bus, in fF.

    ``coupling`` is a symmetric ``N x N`` nested tuple with zero diagonal;
    ``ground`` has ``N`` entries.  Instances are immutable: perturbation
    produces a new set (see :meth:`perturbed`).
    """

    coupling: Tuple[Tuple[float, ...], ...]
    ground: Tuple[float, ...]
    #: The widest coupled wire distance ``|i - j|``: 1 on a bus with
    #: nearest-neighbour coupling, which the screen's tables need.
    reach: int = field(default=0, init=False, compare=False, repr=False)

    def __post_init__(self):
        coupling, ground = self.coupling, self.ground
        n = len(ground)
        if n == 0:
            raise ValueError("a capacitance set needs at least one wire")
        if len(coupling) != n:
            raise ValueError("coupling matrix size must match ground vector")
        for i, row in enumerate(coupling):
            if len(row) != n:
                raise ValueError("coupling matrix must be square")
            if row[i] != 0.0:
                raise ValueError("coupling matrix diagonal must be zero")
        reach, inf = 0, math.inf
        for i in range(n):
            if not 0.0 <= ground[i] < inf:
                raise ValueError(_NOT_A_CAPACITANCE)
            row = coupling[i]
            for value in row:
                if not 0.0 <= value < inf:
                    raise ValueError(_NOT_A_CAPACITANCE)
            for j in range(i + 1, n):
                value = row[j]
                if abs(value - coupling[j][i]) > 1e-12:
                    raise ValueError("coupling matrix must be symmetric")
                if value and j - i > reach:
                    reach = j - i
        object.__setattr__(self, "reach", reach)

    @property
    def wire_count(self) -> int:
        """Number of wires on the bus."""
        return len(self.ground)

    def net_coupling(self, wire: int) -> float:
        """Total coupling capacitance attached to ``wire`` (the paper's
        per-interconnect net coupling capacitance ``C``)."""
        return sum(self.coupling[wire])

    def net_couplings(self) -> List[float]:
        """Net coupling capacitance of every wire."""
        return [self.net_coupling(i) for i in range(self.wire_count)]

    def neighbours(self, wire: int) -> List[Tuple[int, float]]:
        """``(other wire, coupling)`` pairs with non-zero coupling."""
        return [
            (j, c) for j, c in enumerate(self.coupling[wire]) if c > 0.0
        ]

    def perturbed(self, factors: Sequence[Sequence[float]]) -> "CapacitanceSet":
        """Return a copy with each coupling scaled by ``factors[i][j]``.

        ``factors`` must be symmetric (a physical defect affects one
        capacitor, seen identically from both wires); ground capacitances
        are left untouched, matching the paper's defect model which
        perturbs only the coupling capacitances.
        """
        n = self.wire_count
        new_rows = []
        for i in range(n):
            row = []
            for j in range(n):
                if i == j:
                    row.append(0.0)
                    continue
                factor = factors[i][j]
                if abs(factor - factors[j][i]) > 1e-12:
                    raise ValueError("perturbation factors must be symmetric")
                if factor < 0:
                    raise ValueError("perturbation factors must be non-negative")
                row.append(self.coupling[i][j] * factor)
            new_rows.append(tuple(row))
        return CapacitanceSet(coupling=tuple(new_rows), ground=self.ground)


def extract_capacitance(geometry: BusGeometry) -> CapacitanceSet:
    """Extract nominal capacitances for ``geometry``.

    Only nearest-neighbour coupling is extracted (second-neighbour
    coupling is screened by the wire in between and is one to two orders
    of magnitude smaller on dense buses).
    """
    n = geometry.wire_count
    coupling = [[0.0] * n for _ in range(n)]
    for gap, spacing in enumerate(geometry.spacings_um):
        value = C_AREA_COUPLING * geometry.length_um / spacing
        coupling[gap][gap + 1] = value
        coupling[gap + 1][gap] = value
    ground = tuple([C_GROUND_PER_UM * geometry.length_um] * n)
    return CapacitanceSet(
        coupling=tuple(tuple(row) for row in coupling), ground=ground
    )


_parse_memo: Dict[str, CapacitanceSet] = {}
_load_memo: Dict[Tuple[str, int, int], CapacitanceSet] = {}


def parse_capacitance(text: str) -> CapacitanceSet:
    """Parse a JSON capacitance parameter file into a :class:`CapacitanceSet`.

    The document must be ``{"coupling": [[...], ...], "ground": [...]}``
    in femtofarads.  Identical texts return the *same* instance, which
    amortizes the O(n^2) symmetry/positivity validation in
    ``CapacitanceSet.__post_init__`` — re-reading a shared parameter
    file validates it once.
    """
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    cached = _parse_memo.get(digest)
    if cached is not None:
        return cached
    document = json.loads(text)
    if not isinstance(document, dict):
        raise ValueError("capacitance file must be a JSON object")
    unknown = set(document) - {"coupling", "ground"}
    if unknown:
        raise ValueError(
            f"unknown capacitance keys: {', '.join(sorted(unknown))}"
        )
    try:
        coupling = tuple(
            tuple(float(value) for value in row)
            for row in document["coupling"]
        )
        ground = tuple(float(value) for value in document["ground"])
    except (KeyError, TypeError) as error:
        raise ValueError(
            "capacitance file needs 'coupling' (matrix) and 'ground' "
            "(vector) numeric arrays"
        ) from error
    capacitance = CapacitanceSet(coupling=coupling, ground=ground)
    _parse_memo[digest] = capacitance
    return capacitance


def load_capacitance(path: Union[str, "os.PathLike[str]"]) -> CapacitanceSet:
    """Load a JSON capacitance file, memoized on ``(realpath, mtime, size)``.

    Same contract as :func:`repro.xtalk.params.load_params`: unchanged
    files return the cached instance, edits invalidate the entry.
    """
    real = os.path.realpath(os.fspath(path))
    stat = os.stat(real)
    key = (real, stat.st_mtime_ns, stat.st_size)
    cached = _load_memo.get(key)
    if cached is not None:
        return cached
    with open(real, "r", encoding="utf-8") as stream:
        capacitance = parse_capacitance(stream.read())
    _load_memo[key] = capacitance
    return capacitance
