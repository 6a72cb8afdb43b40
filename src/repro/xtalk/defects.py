"""Defect library generation (Fig. 10 of the paper).

The paper builds its defect library by randomly perturbing the nominal
coupling capacitances according to a Gaussian defect distribution with a
3-sigma point of 150 % variation, then keeping a perturbation as a defect
iff it pushes the net coupling capacitance of at least one interconnect
above the threshold ``Cth`` (which corresponds to the acceptable delay /
glitch budget — see :mod:`repro.xtalk.calibration`).  1000 defects were
generated per bus.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.xtalk.calibration import Calibration
from repro.xtalk.capacitance import CapacitanceSet

#: The paper's "3-delta point of 150%" Gaussian: sigma = 50 % variation.
DEFAULT_SIGMA = 0.5
#: Physical floor: a coupling capacitor cannot shrink below this fraction
#: of nominal (the wires still run in parallel).
MIN_FACTOR = 0.02


@dataclass(frozen=True)
class Defect:
    """One library entry: a perturbed capacitance set that violates Cth.

    Attributes
    ----------
    index:
        Library position (stable across runs with the same seed).
    caps:
        The perturbed capacitance parameter set.
    defective_wires:
        Wires whose net coupling exceeds the threshold (0-based).
    severity:
        Worst ``net coupling / cth`` ratio across wires (> 1 by
        construction).
    """

    index: int
    caps: CapacitanceSet
    defective_wires: Tuple[int, ...]
    severity: float


@dataclass
class DefectLibrary:
    """A collection of defects for one bus plus generation statistics."""

    nominal: CapacitanceSet
    calibration: Calibration
    sigma: float
    seed: Optional[int]
    defects: List[Defect] = field(default_factory=list)
    attempts: int = 0

    def __len__(self) -> int:
        return len(self.defects)

    def __iter__(self) -> Iterator[Defect]:
        return iter(self.defects)

    def __getitem__(self, index: int) -> Defect:
        return self.defects[index]

    @property
    def acceptance_rate(self) -> float:
        """Fraction of random perturbations that qualified as defects."""
        if self.attempts == 0:
            return 0.0
        return len(self.defects) / self.attempts

    def per_wire_incidence(self) -> Dict[int, int]:
        """How many defects render each wire defective.

        This is the distribution behind Fig. 11's shape: side wires have
        smaller net coupling, so (almost) no perturbation is large enough
        to push them over ``Cth``.
        """
        counts = {i: 0 for i in range(self.nominal.wire_count)}
        for defect in self.defects:
            for wire in defect.defective_wires:
                counts[wire] += 1
        return counts

    def severity_histogram(self, bins: int = 10) -> List[Tuple[float, int]]:
        """``(bin lower edge, count)`` histogram of defect severities."""
        if not self.defects:
            return []
        severities = [d.severity for d in self.defects]
        low, high = min(severities), max(severities)
        if high == low:
            return [(low, len(severities))]
        width = (high - low) / bins
        counts = [0] * bins
        for severity in severities:
            slot = min(int((severity - low) / width), bins - 1)
            counts[slot] += 1
        return [(low + i * width, counts[i]) for i in range(bins)]


#: Attempts drawn per numpy accept pass: bounds the factors drawn past
#: the last accepted defect and the per-pass arrays.
BATCH_ATTEMPTS = 256


def generate_defect_library(
    nominal: CapacitanceSet,
    calibration: Calibration,
    count: int = 1000,
    sigma: float = DEFAULT_SIGMA,
    seed: Optional[int] = 2001,
    max_attempts: Optional[int] = None,
) -> DefectLibrary:
    """Generate ``count`` defects for the bus described by ``nominal``.

    Each attempt draws one Gaussian factor per coupled pair ``i < j`` (in
    row order) from ``random.Random(seed)``, clamps it at
    :data:`MIN_FACTOR` and scales both ``coupling[i][j]`` and
    ``coupling[j][i]`` by it, exactly as ``nominal.perturbed`` would.
    Perturbations that do not push any wire's net coupling above
    ``calibration.cth`` are discarded (they are process variation within
    budget, not defects).  ``max_attempts`` bounds the sampling loop; the
    default allows 1000 attempts per requested defect.

    Raises
    ------
    RuntimeError
        If the attempt budget is exhausted first (e.g. a far-too-high
        safety factor).
    """
    if count <= 0:
        raise ValueError("count must be positive")
    if not 0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    gauss = random.Random(seed).gauss
    budget = max_attempts if max_attempts is not None else 1000 * count
    library = DefectLibrary(
        nominal=nominal, calibration=calibration, sigma=sigma, seed=seed
    )
    n = nominal.wire_count
    coupling = np.array(nominal.coupling, dtype=float)
    first, second = np.array(
        [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if nominal.coupling[i][j] > 0.0
        ],
        dtype=np.intp,
    ).reshape(-1, 2).T
    pairs = len(first)
    cth = calibration.cth
    while len(library.defects) < count:
        if library.attempts >= budget:
            raise RuntimeError(
                f"defect generation exhausted {budget} attempts "
                f"({len(library.defects)}/{count} defects found); "
                "lower the safety factor or raise sigma"
            )
        size = min(BATCH_ATTEMPTS, budget - library.attempts)
        draws = size * pairs
        gaussians = np.fromiter(
            map(gauss, repeat(1.0, draws), repeat(sigma, draws)), float, draws
        )
        factors = np.maximum(MIN_FACTOR, gaussians).reshape(size, pairs)
        rows = np.repeat(coupling[np.newaxis], size, axis=0)
        rows[:, first, second] *= factors
        rows[:, second, first] *= factors
        # Column by column from 0.0, the order ``sum(row)`` adds in, so
        # every net is the float ``CapacitanceSet.net_couplings`` gives
        # (Python 3.12's compensated ``sum`` agrees on every row with at
        # most two couplings, as a nearest-neighbour set has).
        nets = np.zeros((size, n))
        for column in range(n):
            nets += rows[:, :, column]
        accepted = np.flatnonzero((nets > cth).any(axis=1))
        accepted = accepted[: count - len(library.defects)]
        for row_set, net in zip(rows[accepted].tolist(), nets[accepted].tolist()):
            library.defects.append(
                Defect(
                    index=len(library.defects),
                    caps=CapacitanceSet(
                        coupling=tuple(map(tuple, row_set)),
                        ground=nominal.ground,
                    ),
                    defective_wires=calibration.wires_over(net),
                    severity=max(net) / cth,
                )
            )
        library.attempts += (
            int(accepted[-1]) + 1 if len(library.defects) == count else size
        )
    return library
