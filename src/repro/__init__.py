"""repro — software-based self-test for interconnect crosstalk defects.

A production-quality reproduction of Chen, Bai & Dey, "Testing for
Interconnect Crosstalk Defects Using On-Chip Embedded Processor Cores"
(DAC 2001 / JETTA 2002).

Quickstart::

    from repro import (
        CampaignSpec, SelfTestProgramBuilder, default_address_bus_setup,
        run_campaign,
    )

    setup = default_address_bus_setup()
    program = SelfTestProgramBuilder().build_address_bus_program()
    spec = CampaignSpec(
        program, setup.params, setup.calibration, tuple(setup.library)
    )
    print("coverage:", run_campaign(spec).coverage())

One defect at a time: ``spec.build_engine().check(defect)``.

The package namespaces re-export only what a campaign runs, so
``import repro`` loads nothing else; README.md lists the modules the
other names are imported from.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every reproduced table and figure.
"""

from dataclasses import dataclass

# numpy first: its BLAS thread spins for about 0.1 s once numpy loads,
# and loading it before repro's own modules lets that spin end during
# the import instead of running beside the first campaign.
import numpy  # noqa: F401

from repro import obs
from repro.core import (
    AppliedTest,
    CampaignJournal,
    CampaignResult,
    CampaignSpec,
    ExactEngine,
    FaultType,
    MAFault,
    ScreenedEngine,
    SelfTestProgram,
    SelfTestProgramBuilder,
    SkippedTest,
    VectorPair,
    enumerate_bus_faults,
    ma_vector_pair,
    run_campaign,
)
from repro.soc import BusDirection, CpuMemorySystem
from repro.xtalk import (
    BusGeometry,
    Calibration,
    CapacitanceSet,
    CrosstalkErrorModel,
    DefectLibrary,
    ElectricalParams,
    calibrate,
    extract_capacitance,
    generate_defect_library,
)

__version__ = "1.0.0"


@dataclass(frozen=True)
class BusTestSetup:
    """Everything needed to evaluate one bus: caps, thresholds, defects."""

    geometry: BusGeometry
    caps: CapacitanceSet
    params: ElectricalParams
    calibration: Calibration
    library: DefectLibrary


def default_bus_setup(
    wire_count: int,
    defect_count: int = 1000,
    seed: int = 2001,
    safety_factor: float = 1.25,
) -> BusTestSetup:
    """The paper's default experimental setup for one bus.

    Edge-relaxed geometry, nominal extraction, consistent calibration,
    and a Gaussian (3-sigma = 150 %) defect library.
    """
    geometry = BusGeometry.edge_relaxed(wire_count)
    caps = extract_capacitance(geometry)
    params = ElectricalParams()
    calibration = calibrate(caps, params, safety_factor)
    library = generate_defect_library(
        caps, calibration, count=defect_count, seed=seed
    )
    return BusTestSetup(
        geometry=geometry,
        caps=caps,
        params=params,
        calibration=calibration,
        library=library,
    )


def default_address_bus_setup(
    defect_count: int = 1000, seed: int = 2001
) -> BusTestSetup:
    """Setup for the demonstrator's 12-bit address bus."""
    return default_bus_setup(12, defect_count=defect_count, seed=seed)


def default_data_bus_setup(
    defect_count: int = 1000, seed: int = 2001
) -> BusTestSetup:
    """Setup for the demonstrator's 8-bit data bus."""
    return default_bus_setup(8, defect_count=defect_count, seed=seed)


__all__ = [
    "AppliedTest",
    "BusDirection",
    "BusGeometry",
    "BusTestSetup",
    "Calibration",
    "CampaignJournal",
    "CampaignResult",
    "CampaignSpec",
    "CapacitanceSet",
    "CpuMemorySystem",
    "CrosstalkErrorModel",
    "DefectLibrary",
    "ElectricalParams",
    "ExactEngine",
    "FaultType",
    "MAFault",
    "ScreenedEngine",
    "SelfTestProgram",
    "SelfTestProgramBuilder",
    "SkippedTest",
    "VectorPair",
    "calibrate",
    "default_address_bus_setup",
    "default_bus_setup",
    "default_data_bus_setup",
    "enumerate_bus_faults",
    "extract_capacitance",
    "generate_defect_library",
    "ma_vector_pair",
    "obs",
    "run_campaign",
    "__version__",
]
