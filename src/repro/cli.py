"""Command-line interface: build, inspect and evaluate self-test programs.

Usage (installed as the ``repro-sbst`` entry point, or via
``python -m repro.cli``)::

    repro-sbst build --bus addr            # build + summarize a program
    repro-sbst build --bus data --listing  # with disassembly
    repro-sbst check --bus both --crosscheck  # static lint + crosscheck
    repro-sbst simulate --bus addr --defects 500
    repro-sbst fig11 --defects 400         # the paper's Fig. 11
    repro-sbst timing                      # Fig. 5 timing diagram
    repro-sbst profile examples --out run_report.json  # observed run
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from typing import Callable, List, Optional

from repro import (
    CampaignSpec,
    SelfTestProgramBuilder,
    address_bus_line_coverage,
    default_bus_setup,
    run_campaign,
)
from repro.analysis.charts import coverage_chart
from repro.analysis.tables import format_table
from repro.core.campaign import JournalError
from repro.core.signature import capture_golden
from repro.core.validate import validate_applied_tests
from repro.isa.disassembler import disassemble_image, format_listing


def _stderr_progress(label: str, every: int = 100) -> Callable[[int, int, int], None]:
    """A campaign progress callback that reports on **stderr** only.

    stdout is reserved for the command's machine-parseable output
    (``--json``, tables, charts); progress must never interleave with
    it.
    """
    state = {"last": 0}

    def progress(done: int, total: int, detected: int) -> None:
        if done - state["last"] >= every or done >= total:
            state["last"] = done
            print(
                f"{label}: {done}/{total} defects, {detected} detected",
                file=sys.stderr, flush=True,
            )

    return progress


def _build_program(bus: str, builder: Optional[SelfTestProgramBuilder] = None):
    builder = builder or SelfTestProgramBuilder()
    if bus == "addr":
        return builder, builder.build_address_bus_program()
    if bus == "data":
        return builder, builder.build_data_bus_program()
    return builder, builder.build()


def cmd_build(args: argparse.Namespace) -> int:
    _, program = _build_program(args.bus)
    golden = capture_golden(program)
    validation = validate_applied_tests(program)
    total = len(program.applied) + len(program.skipped)
    rows = [
        ("tests applied", f"{len(program.applied)}/{total}"),
        ("tests skipped (conflicts)", str(len(program.skipped))),
        ("validated on bus", f"{len(validation.confirmed)}/{len(program.applied)}"),
        ("program size (bytes)", str(program.program_size)),
        ("fault-free cycles", str(golden.cycles)),
        ("entry point", f"{program.entry:#05x}"),
    ]
    print(format_table(("quantity", "value"), rows,
                       title=f"self-test program for bus: {args.bus}"))
    if args.listing:
        print()
        print(format_listing(
            disassemble_image(program.image, start=program.entry,
                              limit=args.listing_limit)
        ))
    if args.hex:
        from repro.soc.hexfile import dump_image

        with open(args.hex, "w") as stream:
            stream.write(dump_image(program.image))
        print(f"\nimage written to {args.hex} (Intel HEX, "
              f"{program.program_size} bytes)")
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    from repro.static import analyze_program, crosscheck

    buses = ("addr", "data") if args.bus == "both" else (args.bus,)
    failed = False
    for bus in buses:
        _, program = _build_program(bus)
        report = analyze_program(program)
        print(report.render())
        if args.crosscheck:
            result = crosscheck(program, report.run)
            verdict = "agrees" if result.agreed else "DISAGREES"
            print(
                f"cross-check: static prediction {verdict} with the traced "
                f"run ({len(result.static.confirmed)} statically vs "
                f"{len(result.dynamic.confirmed)} dynamically confirmed)"
            )
            failed = failed or not result.agreed
        if len(buses) > 1:
            print()
        failed = failed or bool(report.lint.errors)
        if args.strict:
            failed = failed or bool(report.lint.warnings)
    return 1 if failed else 0


def _counter_value(snapshot: dict, name: str) -> int:
    metric = snapshot.get(name)
    return int(metric.get("value", 0)) if isinstance(metric, dict) else 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.obs import runtime as obs_runtime

    if args.resume and not args.journal:
        print("simulate: --resume requires --journal PATH", file=sys.stderr)
        return 2
    width = 12 if args.bus == "addr" else 8
    setup = default_bus_setup(width, defect_count=args.defects, seed=args.seed)
    _, program = _build_program(args.bus)
    spec = CampaignSpec(
        program=program,
        params=setup.params,
        calibration=setup.calibration,
        defects=tuple(setup.library),
        bus=args.bus,
        engine=args.engine,
        label=f"simulate:{args.bus}",
    )
    # A metrics session makes the golden and fast-forwarded cycle
    # counts observable in the output.
    with obs_runtime.session(detail="metrics") as obs_session:
        try:
            result = run_campaign(
                spec,
                journal=args.journal,
                resume=args.resume,
                progress=_stderr_progress(f"simulate[{args.bus}]"),
            )
        except JournalError as error:
            print(f"simulate: {error}", file=sys.stderr)
            return 2
        metrics = obs_session.registry.snapshot()
    golden_cycles = _counter_value(metrics, "coverage.engine.golden_cycles")
    fast_forwarded = _counter_value(metrics, "cpu.cycles_fast_forwarded")
    total = len(result.outcomes)
    detected = result.detected
    if args.json:
        json.dump(
            {
                "bus": args.bus,
                "engine": args.engine,
                "defects": total,
                "detected": detected,
                "timeouts": result.timeouts,
                "coverage": result.coverage(),
                "executed": result.executed,
                "resumed": result.resumed,
                "golden_cycles": golden_cycles,
                "cycles_fast_forwarded": fast_forwarded,
            },
            sys.stdout,
            sort_keys=True,
        )
        print()
        return 0
    rows = [
        ("engine", args.engine),
        ("defects simulated", str(total)),
        ("resumed from journal", str(result.resumed)),
        ("detected", f"{detected} ({100 * detected / total:.1f}%)"),
        ("of which hung the CPU", str(result.timeouts)),
        ("golden cycles simulated", str(golden_cycles)),
    ]
    print(format_table(("quantity", "value"), rows,
                       title=f"defect simulation on bus: {args.bus}"))
    return 0


def cmd_fig11(args: argparse.Namespace) -> int:
    if args.resume and not args.journal:
        print("fig11: --resume requires --journal PATH", file=sys.stderr)
        return 2
    setup = default_bus_setup(12, defect_count=args.defects, seed=args.seed)
    builder, program = _build_program("addr")
    try:
        report = address_bus_line_coverage(
            setup.library, setup.params, setup.calibration,
            builder=builder, full_program=program, engine=args.engine,
            journal=args.journal, resume=args.resume,
            progress=_stderr_progress("fig11"),
        )
    except JournalError as error:
        print(f"fig11: {error}", file=sys.stderr)
        return 2
    print(coverage_chart(
        [(line.line, line.individual, line.cumulative)
         for line in report.lines]
    ))
    print(f"cumulative: {100 * report.cumulative_coverage:.1f}%   "
          f"full program: {100 * report.full_program_coverage:.1f}%")
    return 0


def cmd_timing(args: argparse.Namespace) -> int:
    from repro.isa.assembler import assemble
    from repro.soc import BusTracer, CpuMemorySystem
    from repro.soc.tracer import render_timing_diagram

    system = CpuMemorySystem()
    program = assemble(
        ".org 0x010\nlda 3:0x7F\nhalt: jmp halt\n.org 0x37F\n.byte 0xC3"
    )
    system.load_image(program.image)
    tracer = BusTracer([system.address_bus, system.data_bus])
    system.run(entry=0x010, max_cycles=64)
    print(render_timing_diagram(
        [t for t in tracer.transactions if t.cycle <= 8]
    ))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Run a workload under full observability and emit a RunReport."""
    from repro import obs
    from repro.core.sessions import build_sessions
    from repro.soc.tracer import BusTracer
    from repro.core.signature import make_system

    width = 12 if args.bus == "addr" else 8
    config = {
        "target": args.target,
        "bus": args.bus,
        "defects": args.defects,
        "seed": args.seed,
        "detail": args.detail,
        "engine": args.engine,
    }
    results: dict = {}
    with obs.session(detail=args.detail) as obs_session:
        with obs.span("setup"):
            setup = default_bus_setup(
                width, defect_count=args.defects, seed=args.seed
            )
        with obs.span("build"):
            builder, program = _build_program(args.bus)
        with obs.span("golden"):
            golden = capture_golden(program)
            validation = validate_applied_tests(program)
        if args.trace:
            with obs.span("trace"):
                system = make_system(program)
                tracer = BusTracer(
                    [system.address_bus, system.data_bus],
                    max_transactions=args.max_trace,
                )
                system.run(entry=program.entry, max_cycles=golden.max_cycles)
                written = tracer.export_jsonl(args.trace)
            results["trace"] = {
                "path": args.trace,
                "transactions": written,
                "dropped": tracer.dropped,
            }
        with obs.span("campaign"):
            if args.target == "fig11":
                report = address_bus_line_coverage(
                    setup.library, setup.params, setup.calibration,
                    builder=builder, full_program=program,
                    engine=args.engine,
                )
                results["coverage"] = {
                    "cumulative": report.cumulative_coverage,
                    "full_program": report.full_program_coverage,
                    "lines": [
                        {"line": line.line, "individual": line.individual,
                         "cumulative": line.cumulative}
                        for line in report.lines
                    ],
                }
            elif args.target == "sessions":
                plan = build_sessions(builder)
                results["sessions"] = {
                    "programs": plan.session_count,
                    "applied": plan.applied_total,
                    "unapplicable": len(plan.unapplicable),
                }
            else:  # "examples": the quickstart flow
                spec = CampaignSpec(
                    program=program,
                    params=setup.params,
                    calibration=setup.calibration,
                    defects=tuple(setup.library),
                    bus=args.bus,
                    engine=args.engine,
                    label="profile:examples",
                )
                result = run_campaign(spec)
                results["coverage"] = {
                    "defects": len(result.outcomes),
                    "detected": result.detected,
                    "timeouts": result.timeouts,
                    "coverage": result.coverage(),
                }
        results["program"] = {
            "applied": len(program.applied),
            "skipped": len(program.skipped),
            "size_bytes": program.program_size,
            "golden_cycles": golden.cycles,
            "validated": len(validation.confirmed),
        }
    run_report = obs.RunReport.from_observability(
        obs_session,
        kind="profile",
        label=f"profile:{args.target}",
        config=config,
        include_spans=args.detail == "full",
    )
    run_report.results = results
    errors = run_report.validation_errors()
    if errors:
        for error in errors:
            print(f"schema violation: {error}", file=sys.stderr)
        return 1
    run_report.save(args.out)
    print(run_report.summary())
    print(f"\nrun report written to {args.out} "
          f"({len(run_report.metrics)} metrics, "
          f"{len(run_report.phases)} phases)")
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-sbst",
        description="Software-based self-test for interconnect crosstalk "
        "(Chen/Bai/Dey DAC'01 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="build a self-test program")
    build.add_argument("--bus", choices=("addr", "data", "both"),
                       default="addr")
    build.add_argument("--listing", action="store_true",
                       help="print a disassembly")
    build.add_argument("--listing-limit", type=int, default=60)
    build.add_argument("--hex", metavar="PATH",
                       help="write the program image as Intel HEX")
    build.set_defaults(func=cmd_build)

    check = sub.add_parser(
        "check", help="statically lint a generated self-test program"
    )
    check.add_argument("--bus", choices=("addr", "data", "both"),
                       default="both")
    check.add_argument("--strict", action="store_true",
                       help="treat warnings as errors")
    check.add_argument("--crosscheck", action="store_true",
                       help="also diff the static prediction against a "
                       "traced fault-free run")
    check.set_defaults(func=cmd_check)

    engine_help = (
        "defect-simulation engine: 'screened' (default) screens the "
        "library against the golden bus trace and replays only divergent "
        "defects, hooked from their first corruption; 'exact' replays "
        "every defect in full (identical outcomes, several times slower)"
    )

    journal_help = (
        "JSONL outcome journal: every judged defect is appended and "
        "flushed, so an interrupted campaign can be resumed"
    )
    resume_help = (
        "resume from the journal: skip every already-judged defect "
        "(requires --journal; the journal must match the campaign "
        "configuration)"
    )

    simulate = sub.add_parser("simulate", help="run a defect campaign")
    simulate.add_argument("--bus", choices=("addr", "data"), default="addr")
    simulate.add_argument("--defects", type=int, default=300)
    simulate.add_argument("--seed", type=int, default=2001)
    simulate.add_argument("--engine", choices=("exact", "screened"),
                          default="screened", help=engine_help)
    simulate.add_argument("--journal", metavar="PATH", help=journal_help)
    simulate.add_argument("--resume", action="store_true", help=resume_help)
    simulate.add_argument("--json", action="store_true",
                          help="emit one machine-parseable JSON object on "
                          "stdout (progress stays on stderr)")
    simulate.set_defaults(func=cmd_simulate)

    fig11 = sub.add_parser("fig11", help="reproduce the paper's Fig. 11")
    fig11.add_argument("--defects", type=int, default=300)
    fig11.add_argument("--seed", type=int, default=2001)
    fig11.add_argument("--engine", choices=("exact", "screened"),
                       default="screened", help=engine_help)
    fig11.add_argument("--journal", metavar="PATH", help=journal_help)
    fig11.add_argument("--resume", action="store_true", help=resume_help)
    fig11.set_defaults(func=cmd_fig11)

    timing = sub.add_parser("timing", help="Fig. 5 load-instruction timing")
    timing.set_defaults(func=cmd_timing)

    profile = sub.add_parser(
        "profile",
        help="run a workload under observability and emit a RunReport JSON",
    )
    profile.add_argument(
        "target", nargs="?", choices=("examples", "fig11", "sessions"),
        default="examples",
        help="workload: the quickstart flow, the per-line Fig. 11 "
        "campaign, or multi-session scheduling",
    )
    profile.add_argument("--bus", choices=("addr", "data"), default="addr")
    profile.add_argument("--defects", type=int, default=200)
    profile.add_argument("--seed", type=int, default=2001)
    profile.add_argument("--engine", choices=("exact", "screened"),
                         default="screened", help=engine_help)
    profile.add_argument("--detail", choices=("metrics", "full"),
                         default="full",
                         help="telemetry depth (full adds FSM occupancy "
                         "and per-defect spans)")
    profile.add_argument("--out", metavar="PATH", default="run_report.json",
                         help="RunReport JSON output path")
    profile.add_argument("--trace", metavar="PATH",
                         help="also write a JSONL bus trace of the "
                         "fault-free golden run")
    profile.add_argument("--max-trace", type=int, default=4096,
                         help="trace ring-buffer capacity (newest kept)")
    profile.set_defaults(func=cmd_profile)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    All logging goes to **stderr** (stdout carries only command
    output) through a handler that lives for this call only, and
    Ctrl-C exits 130 with a resume hint instead of a traceback — an
    interrupted journaled campaign picks up with ``--resume``.
    """
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    logger = logging.getLogger("repro")
    logger.addHandler(handler)
    try:
        args = make_parser().parse_args(argv)
        return args.func(args)
    except KeyboardInterrupt:
        print(
            "\ninterrupted — a journaled campaign (--journal PATH) can be "
            "picked up where it stopped with --resume",
            file=sys.stderr,
        )
        return 130
    finally:
        # In-process callers (tests, notebooks) call main repeatedly; a
        # handler left behind would duplicate every later log line and
        # keep writing to a stream its caller may since have closed.
        logger.removeHandler(handler)


if __name__ == "__main__":
    sys.exit(main())
