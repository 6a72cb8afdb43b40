"""Quickstart: build a crosstalk self-test program and measure coverage.

Walks the paper's whole flow on the demonstrator CPU-memory system:

1. model the 12-bit address bus (geometry -> capacitances -> thresholds);
2. generate a defect library (Gaussian perturbations beyond Cth);
3. build the software self-test program (MA tests via LDA/STA sequences);
4. simulate every defect and report coverage;
5. judge one defect on its own.

Run:  python examples/quickstart.py
"""

from repro import (
    CampaignSpec,
    SelfTestProgramBuilder,
    default_address_bus_setup,
    run_campaign,
)
from repro.core.signature import capture_golden
from repro.core.validate import validate_applied_tests


def main():
    print("== 1. bus model and defect library ==")
    setup = default_address_bus_setup(defect_count=200)
    print(f"nominal net couplings (fF): "
          f"{[round(n) for n in setup.caps.net_couplings()]}")
    print(f"defect threshold Cth = {setup.calibration.cth:.0f} fF, "
          f"library = {len(setup.library)} defects")

    print("\n== 2. self-test program ==")
    builder = SelfTestProgramBuilder()
    program = builder.build_address_bus_program()
    print(f"tests applied: {len(program.applied)}/48 "
          f"({len(program.skipped)} deferred by address conflicts)")
    golden = capture_golden(program)
    print(f"program size: {program.program_size} bytes, "
          f"fault-free run: {golden.cycles} cycles")
    validation = validate_applied_tests(program)
    print(f"MA transitions observed on the bus: "
          f"{len(validation.confirmed)}/{len(program.applied)}")

    print("\n== 3. defect simulation ==")
    spec = CampaignSpec(
        program, setup.params, setup.calibration, tuple(setup.library), "addr"
    )
    result = run_campaign(spec)
    print(f"defect coverage: {100 * result.coverage():.1f}% "
          f"({result.detected}/{len(result.outcomes)}, "
          f"{result.timeouts} hung the CPU)")

    print("\n== 4. one defect ==")
    severe = max(setup.library, key=lambda defect: defect.severity)
    check = spec.build_engine().check(severe)
    print(f"most severe defect #{severe.index}: "
          f"{'detected' if check.detected else 'escaped'}"
          f"{' (timed out)' if check.timed_out else ''}")


if __name__ == "__main__":
    main()
