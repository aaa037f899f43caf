"""Command-line entry points.

``repro-lisa``
    Compile and inspect LISA machine descriptions.
``repro-asm``
    Assemble / disassemble target programs.
``repro-sim``
    Run programs on any simulator kind.
``repro-kcc``
    Compile kernel-language source to target assembly.
``repro-lint``
    Static analysis of an assembled program (packet collisions,
    control-flow defects, cross-cycle pipeline hazards).

``repro-sim`` and ``repro-lint`` share the observed-run flags:
``--trace`` exports the trace (Chrome trace-event format for Perfetto,
JSON-lines, OpenMetrics, or a text summary), ``--metrics-out`` the
metrics snapshot and ``--profile-out`` the profile-guided hot-region
report.

Every command that compiles a model prints the model's compile
diagnostics to stderr; ``--Werror`` turns diagnosed warnings into a
nonzero exit.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.api import build_toolset, compile_lisa_file, list_models, load_model
from repro.sim import SIM_BACKENDS, SIM_KINDS, create_simulator
from repro.support.errors import ReproError, SimulationTimeout
from repro.tools.objfile import Program


def _resolve_model(spec):
    """A model name from the registry, or a path to a .lisa file."""
    if spec in list_models():
        return load_model(spec)
    try:
        return compile_lisa_file(spec)
    except OSError as exc:
        raise ReproError("cannot read model %r: %s" % (spec, exc)) from exc


def _add_werror(parser):
    parser.add_argument(
        "--Werror", dest="werror", action="store_true",
        help="treat warnings as errors (nonzero exit)",
    )


def _print_model_diagnostics(parser, model, werror):
    """Print model compile diagnostics to stderr; under ``--Werror``,
    exit nonzero when any of them is a warning."""
    sink = getattr(model, "diagnostics", None)
    if not sink:
        return
    for diagnostic in sink:
        print(diagnostic, file=sys.stderr)
    if werror and getattr(sink, "warnings", ()):
        parser.exit(
            1,
            "error: model diagnostics contain warnings (--Werror)\n",
        )


def _load_program(model, path):
    """Load an object file, or assemble ``.asm``/``.s`` source."""
    if path.endswith((".asm", ".s")):
        return build_toolset(model).assembler.assemble_file(path)
    return Program.load(path)


def _add_trace_flags(parser):
    from repro.obs import OBSERVER_MODES, TRACE_FORMATS

    parser.add_argument(
        "--trace", metavar="PATH",
        help="record trace events and phase spans and write them to "
        "PATH (see --trace-format)",
    )
    parser.add_argument(
        "--trace-format", choices=TRACE_FORMATS, default="chrome",
        help="trace file format: 'chrome' loads in Perfetto / "
        "chrome://tracing, 'jsonl' is one JSON record per line, "
        "'openmetrics' is the Prometheus/OpenMetrics text exposition "
        "of the metrics snapshot, 'summary' is a human-readable "
        "report (default: chrome)",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH",
        help="write the metrics snapshot (counters, gauges, "
        "histograms) as JSON to PATH",
    )
    parser.add_argument(
        "--profile-out", metavar="PATH",
        help="write the profile-guided hot-region report (packets and "
        "windows ranked by attributed cycles) as JSON to PATH; "
        "observer-compatible with native bursts",
    )
    parser.add_argument(
        "--observe", choices=OBSERVER_MODES, default=None,
        help="observer mode: 'trace' records per-cycle events (forces "
        "the per-cycle Python path on the native backend), 'profile' "
        "keeps full metrics plus per-packet cycle attribution while "
        "native bursts stay enabled, 'counters' is metrics only "
        "(default: inferred -- trace when --trace is given, profile "
        "otherwise)",
    )
    parser.add_argument(
        "--flight-recorder", type=int, default=None, metavar="N",
        const=256, nargs="?",
        help="keep a ring of the last N trace events (default 256) and "
        "attach them to the exception of a failing run for "
        "post-mortems",
    )


def _make_observer(args, model, program):
    """An observer when any trace/metrics output was requested."""
    from repro import obs

    wants = (args.trace or args.metrics_out or args.profile_out
             or args.flight_recorder is not None or args.observe)
    if not wants:
        return None
    mode = args.observe
    if mode is None:
        mode = obs.TRACE_MODE if args.trace else obs.PROFILE_MODE
    observer = obs.Observer(
        labeler=obs.opcode_labeler(model, program), mode=mode,
    )
    if args.flight_recorder is not None:
        observer.enable_flight_recorder(args.flight_recorder)
    return observer


def _write_observer_outputs(observer, args, process_name):
    from repro import obs

    if observer is None:
        return
    if args.trace:
        obs.write_trace(observer, args.trace,
                        trace_format=args.trace_format,
                        process_name=process_name)
        print("wrote %s (%s)" % (args.trace, args.trace_format),
              file=sys.stderr)
    if args.metrics_out:
        obs.write_metrics(observer, args.metrics_out)
        print("wrote %s" % args.metrics_out, file=sys.stderr)
    if args.profile_out:
        report = obs.hot_region_report(observer)
        with open(args.profile_out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("wrote %s" % args.profile_out, file=sys.stderr)
    observer.close()


def lisa_main(argv=None):
    """repro-lisa: compile a model and print its summary."""
    parser = argparse.ArgumentParser(
        prog="repro-lisa",
        description="Compile a LISA machine description into a model "
        "data base and report on it.",
    )
    parser.add_argument(
        "model",
        help="shipped model name (%s) or path to a .lisa file"
        % ", ".join(list_models()),
    )
    parser.add_argument(
        "--emit-simulator",
        metavar="PROGRAM",
        help="emit a standalone compiled-simulator module for the given "
        "assembled program (.dspo) to stdout",
    )
    parser.add_argument(
        "--time", action="store_true",
        help="report model translation time (experiment E3)",
    )
    parser.add_argument(
        "--dump-db", action="store_true",
        help="dump the model data base as JSON to stdout",
    )
    _add_werror(parser)
    args = parser.parse_args(argv)
    try:
        start = time.perf_counter()
        model = _resolve_model(args.model)
        elapsed = time.perf_counter() - start
        if args.dump_db:
            from repro.lisa.database import model_to_json

            print(model_to_json(model))
            return 0
        _print_model_diagnostics(parser, model, args.werror)
        if args.emit_simulator:
            # Only the module on stdout, so `> simulator.py` yields a
            # runnable file; the report moves to stderr.
            print(model.describe(), file=sys.stderr)
            if args.time:
                print("model translation time: %.3f s" % elapsed,
                      file=sys.stderr)
            from repro.simcc import emit_simulator_module

            program = Program.load(args.emit_simulator)
            print(emit_simulator_module(model, program))
        else:
            print(model.describe())
            if args.time:
                print("model translation time: %.3f s" % elapsed)
    except ReproError as exc:
        parser.exit(1, "error: %s\n" % exc)
    return 0


def asm_main(argv=None):
    """repro-asm: assemble or disassemble target programs."""
    parser = argparse.ArgumentParser(
        prog="repro-asm",
        description="Retargetable assembler/disassembler generated from "
        "a machine description.",
    )
    parser.add_argument("model", help="model name or .lisa path")
    parser.add_argument("source", help="assembly source file, or .dspo "
                        "with --disassemble")
    parser.add_argument("-o", "--output", help="object file to write "
                        "(.dspo)")
    parser.add_argument(
        "-d", "--disassemble", action="store_true",
        help="treat the input as an object file and disassemble it",
    )
    _add_werror(parser)
    args = parser.parse_args(argv)
    try:
        model = _resolve_model(args.model)
        _print_model_diagnostics(parser, model, args.werror)
        tools = build_toolset(model)
        if args.disassemble:
            program = Program.load(args.source)
            for line in tools.disassembler.disassemble_program(program):
                print(line)
            return 0
        program = tools.assembler.assemble_file(args.source)
        print(
            "assembled %d program words, %d data words, entry 0x%x"
            % (
                program.word_count(model.config.program_memory),
                program.word_count() -
                program.word_count(model.config.program_memory),
                program.entry,
            )
        )
        if args.output:
            program.save(args.output)
            print("wrote %s" % args.output)
    except ReproError as exc:
        parser.exit(1, "error: %s\n" % exc)
    return 0


def sim_main(argv=None):
    """repro-sim: run a program on a chosen simulator kind."""
    parser = argparse.ArgumentParser(
        prog="repro-sim",
        description="Run a target program on an interpretive or compiled "
        "simulator.",
    )
    parser.add_argument("model", help="model name or .lisa path")
    parser.add_argument("program", help="object file (.dspo) or assembly "
                        "source (.asm/.s)")
    parser.add_argument(
        "-k", "--kind", default="compiled", choices=SIM_KINDS,
        help="simulator kind (default: compiled)",
    )
    parser.add_argument(
        "--backend", default=None, choices=SIM_BACKENDS,
        help="execution backend for the table-based kinds: 'native' "
        "compiles proven packets to C and bursts whole pipeline "
        "windows per call; when no C compiler is available it falls "
        "back to the Python path (one native.fallback trace event, "
        "exit status unchanged) rather than failing (default: auto; "
        "with --resume, the backend stamped into the checkpoint)",
    )
    parser.add_argument(
        "--tiering", default=None, choices=("off", "auto", "aggressive"),
        help="adaptive tiered execution for the table-based kinds: "
        "start at the cheap base tier and promote profile-hot windows "
        "to unfolded tables -- and, where the analysis proofs admit, "
        "to compiled native bursts -- mid-run; 'aggressive' polls "
        "earlier and promotes more (default: off; with --resume, the "
        "mode stamped into the checkpoint)",
    )
    parser.add_argument(
        "--tier-report", metavar="PATH",
        help="with --tiering: write the versioned, cycle-stamped "
        "promotion/demotion timeline as JSON to PATH",
    )
    parser.add_argument(
        "--max-cycles", type=int, default=50_000_000,
        help="abort after this many cycles",
    )
    parser.add_argument(
        "--dump", action="append", default=[], metavar="MEM:ADDR[:LEN]",
        help="print memory cells after the run (repeatable)",
    )
    parser.add_argument(
        "--dump-ir", action="store_true",
        help="print the lowered, post-pass SimIR of every execute "
        "packet instead of simulating (for debugging retargeting "
        "issues)",
    )
    parser.add_argument(
        "--dump-c", action="store_true",
        help="print the C the native backend renders for every packet "
        "instead of simulating (packets failing the native analysis "
        "print their fallback reason; no C compiler required)",
    )
    parser.add_argument(
        "--stats", action="store_true", help="print timing statistics",
    )
    parser.add_argument(
        "--cache-dir", metavar="DIR",
        default=os.environ.get("REPRO_CACHE_DIR"),
        help="persist compiled simulation tables under DIR so repeat "
        "runs skip simulation compilation (default: $REPRO_CACHE_DIR)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="disable the simulation-table cache even if --cache-dir "
        "or $REPRO_CACHE_DIR is set",
    )
    parser.add_argument(
        "-j", "--jobs", type=int, default=None, metavar="N",
        help="parallelise simulation compilation over N workers "
        "(-1 = one per CPU)",
    )
    parser.add_argument(
        "--verify-schedule", action="store_true",
        help="with -k static/unfolded_static: fail instead of falling "
        "back to dynamic scheduling when a pipeline window is not "
        "proven hazard-free",
    )
    parser.add_argument(
        "--verify-ir", action="store_true",
        help="verify SimIR well-formedness before and after every "
        "optimisation pass (also enabled by REPRO_VERIFY_IR=1); a "
        "violation fails the run naming the offending pass",
    )
    parser.add_argument(
        "--on-self-modify", default="off",
        choices=("off", "error", "recompile", "interpret"),
        metavar="POLICY",
        help="watch stores into program memory and degrade per POLICY: "
        "'error' fails fast, 'recompile' incrementally re-compiles the "
        "touched packets, 'interpret' serves them from an interpretive "
        "fallback (default: off)",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="CYCLES",
        help="write a resumable checkpoint every CYCLES simulated "
        "cycles (see --checkpoint-file)",
    )
    parser.add_argument(
        "--checkpoint-file", metavar="PATH", default=None,
        help="where to write checkpoints (default: PROGRAM.ckpt); also "
        "written when a cycle or wall-clock budget expires",
    )
    parser.add_argument(
        "--resume", metavar="PATH", default=None,
        help="restore a checkpoint written by a previous run (any "
        "simulator kind) before running",
    )
    parser.add_argument(
        "--max-wall-seconds", type=float, default=None, metavar="S",
        help="abort (with a resumable checkpoint, exit code 3) after S "
        "seconds of host wall-clock time",
    )
    _add_trace_flags(parser)
    parser.add_argument(
        "--stats-json", metavar="PATH",
        help="write run statistics (cycles, instructions, CPI, wall "
        "time, simulated cycles/s) as JSON to PATH",
    )
    _add_werror(parser)
    args = parser.parse_args(argv)
    if args.verify_schedule and args.kind not in (
        "static", "unfolded_static"
    ):
        parser.exit(
            2,
            "error: --verify-schedule requires -k static or "
            "unfolded_static\n",
        )
    if args.verify_ir:
        from repro.simcc import verify

        verify.set_verify_default(True)
    try:
        model = _resolve_model(args.model)
        _print_model_diagnostics(parser, model, args.werror)
        program = _load_program(model, args.program)
        if args.dump_ir:
            from repro.simcc.ir import dump_program_ir

            dump_program_ir(model, program, stream=sys.stdout)
            return 0
        if args.dump_c:
            from repro.simcc.native import dump_program_c

            dump_program_c(model, program, stream=sys.stdout)
            return 0
        cache = None
        if args.cache_dir and not args.no_cache:
            from repro.simcc.cache import SimulationCache

            cache = SimulationCache(args.cache_dir)
        # Resume ergonomics: flags the user left unset re-apply the
        # configuration stamped into the checkpoint (a timeout resumed
        # with bare `--resume` must not silently revert a native or
        # tiered run to the defaults); flags given explicitly win.
        checkpoint = None
        if args.resume:
            from repro.resilience.checkpoint import Checkpoint

            checkpoint = Checkpoint.load(args.resume)
        backend = args.backend
        if backend is None:
            backend = checkpoint.backend if checkpoint is not None else "auto"
        tiering = args.tiering
        if tiering is None:
            tiering = checkpoint.tiering if checkpoint is not None else "off"
        if args.kind in ("interpretive", "predecoded") and args.backend is None:
            backend = "auto"  # untabled kinds reject a stamped backend
        if (args.kind in ("interpretive", "predecoded")
                or backend == "native") and args.tiering is None:
            tiering = "off"  # stamped tiering does not apply here
        observer = _make_observer(args, model, program)
        simulator = create_simulator(
            model, args.kind, cache=cache, jobs=args.jobs,
            verify_schedule=args.verify_schedule, observer=observer,
            on_self_modify=args.on_self_modify, backend=backend,
            tiering=tiering,
        )
        load_start = time.perf_counter()
        simulator.load_program(program)
        load_time = time.perf_counter() - load_start
        if checkpoint is not None:
            simulator.restore(checkpoint)
            print(
                "resumed from %s at cycle %d (taken under -k %s, "
                "backend %s, tiering %s)"
                % (args.resume, checkpoint.cycles, checkpoint.kind,
                   backend, tiering),
                file=sys.stderr,
            )
        checkpoint_path = args.checkpoint_file
        wants_checkpoints = bool(
            checkpoint_path
            or args.checkpoint_every
            or args.max_wall_seconds is not None
        )
        if checkpoint_path is None:
            checkpoint_path = args.program + ".ckpt"
        budget = None
        if args.checkpoint_every or args.max_wall_seconds is not None:
            from repro.resilience.watchdog import RunBudget

            budget = RunBudget(
                max_wall_seconds=args.max_wall_seconds,
                checkpoint_every=args.checkpoint_every,
            )

        def save_checkpoint(snapshot):
            snapshot.save(checkpoint_path)

        run_start = time.perf_counter()
        try:
            stats = simulator.run(
                args.max_cycles, budget=budget,
                on_checkpoint=save_checkpoint if wants_checkpoints else None,
            )
        except SimulationTimeout as exc:
            message = "error: %s\n" % exc
            if wants_checkpoints and exc.checkpoint is not None:
                exc.checkpoint.save(checkpoint_path)
                message += (
                    "checkpoint written to %s; resume with --resume %s\n"
                    % (checkpoint_path, checkpoint_path)
                )
            _write_observer_outputs(observer, args, "repro-sim")
            parser.exit(3, message)
        run_time = time.perf_counter() - run_start
        print(
            "halted after %d cycles, %d instructions (CPI %.2f)"
            % (stats.cycles, stats.instructions, stats.cpi)
        )
        if args.stats:
            print(
                "load: %.3f s   run: %.3f s   %.0f cycles/s"
                % (load_time, run_time,
                   stats.cycles / run_time if run_time else float("inf"))
            )
            if cache is not None:
                print(
                    "cache: %s"
                    % "  ".join(
                        "%s=%d" % item for item in cache.stats.items()
                    )
                )
        manager = simulator.tier_manager
        if args.stats_json:
            payload = stats.to_dict()
            payload["kind"] = simulator.kind
            payload["load_seconds"] = load_time
            if manager is not None:
                payload["tier_timeline"] = manager.timeline_report()[
                    "events"
                ]
            with open(args.stats_json, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print("wrote %s" % args.stats_json, file=sys.stderr)
        if args.tier_report:
            report = (
                manager.timeline_report() if manager is not None
                else {"version": 1, "mode": tiering, "events": []}
            )
            with open(args.tier_report, "w", encoding="utf-8") as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print("wrote %s" % args.tier_report, file=sys.stderr)
        _write_observer_outputs(observer, args, "repro-sim")
        for dump in args.dump:
            _dump_memory(simulator.state, dump)
    except ReproError as exc:
        parser.exit(1, "error: %s\n" % exc)
    return 0


def kcc_main(argv=None):
    """repro-kcc: compile a kernel to target assembly (optionally run)."""
    parser = argparse.ArgumentParser(
        prog="repro-kcc",
        description="Compile C-like kernel source to DSP assembly.",
    )
    parser.add_argument("target", help="target model (tinydsp or c62x)")
    parser.add_argument("source", help="kernel source file (.k)")
    parser.add_argument("-o", "--output", help="assembly file to write")
    parser.add_argument(
        "--run", action="store_true",
        help="assemble and run the kernel on the compiled simulator",
    )
    parser.add_argument(
        "--dump", action="append", default=[], metavar="MEM:ADDR[:LEN]",
        help="with --run: print memory cells afterwards (repeatable)",
    )
    _add_werror(parser)
    args = parser.parse_args(argv)
    try:
        from repro.kcc import compile_kernel

        with open(args.source, "r", encoding="utf-8") as handle:
            kernel_source = handle.read()
        _print_model_diagnostics(
            parser, _resolve_model(args.target), args.werror
        )
        assembly = compile_kernel(kernel_source, args.target)
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(assembly)
            print("wrote %s" % args.output)
        elif not args.run:
            print(assembly, end="")
        if args.run:
            model = _resolve_model(args.target)
            tools = build_toolset(model)
            program = tools.assembler.assemble_text(assembly)
            simulator = create_simulator(model, "compiled")
            simulator.load_program(program)
            stats = simulator.run()
            print(
                "halted after %d cycles, %d instructions"
                % (stats.cycles, stats.instructions)
            )
            for dump in args.dump:
                _dump_memory(simulator.state, dump)
    except OSError as exc:
        parser.exit(1, "error: %s\n" % exc)
    except ReproError as exc:
        parser.exit(1, "error: %s\n" % exc)
    return 0


def lint_main(argv=None):
    """repro-lint: simulation-compile-time program analysis.

    Exit status: 0 when the program analyses clean, 1 when findings
    fail the run (errors, or warnings under ``--Werror``), 2 when the
    model or program cannot be compiled at all.
    """
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Analyse an assembled program against a machine "
        "description: VLIW packet write collisions, control-flow "
        "defects (branches into packet middles or delay slots, "
        "out-of-segment targets, unreachable code, dead writes) and "
        "cross-cycle pipeline hazards gating static scheduling.",
    )
    parser.add_argument("model", help="model name or .lisa path")
    parser.add_argument("program", help="object file (.dspo) or assembly "
                        "source (.asm/.s)")
    parser.add_argument(
        "--json", dest="as_json", action="store_true",
        help="emit the full report (findings, counts, hazard verdicts) "
        "as JSON on stdout",
    )
    _add_trace_flags(parser)
    _add_werror(parser)
    args = parser.parse_args(argv)
    try:
        model = _resolve_model(args.model)
        program = _load_program(model, args.program)
        from repro.analysis import analyze_program

        observer = _make_observer(args, model, program)
        result = analyze_program(model, program, observer=observer)
        _write_observer_outputs(observer, args, "repro-lint")
    except ReproError as exc:
        parser.exit(2, "error: %s\n" % exc)
    report = result.report
    # Model compile diagnostics join the program findings, so one run
    # surfaces everything the toolchain knows.
    for diagnostic in getattr(model, "diagnostics", []):
        severity = diagnostic.severity
        report.add(
            severity if severity in ("warning", "note") else "note",
            None, "model.diagnostic", str(diagnostic),
        )
    if args.as_json:
        print(json.dumps(result.to_dict(), indent=2, sort_keys=True))
    else:
        for finding in report:
            print(finding)
        counts = report.counts()
        verdicts = result.verdict_counts()
        print(
            "%d error(s), %d warning(s), %d note(s); packets: %s"
            % (
                counts["error"], counts["warning"], counts["note"],
                ", ".join(
                    "%d %s" % (count, verdict)
                    for verdict, count in sorted(verdicts.items())
                    if count
                ) or "none",
            )
        )
    return report.exit_code(werror=args.werror)


def _dump_memory(state, spec):
    parts = spec.split(":")
    if len(parts) not in (2, 3):
        raise ReproError("--dump expects MEM:ADDR[:LEN], got %r" % spec)
    memory = parts[0]
    address = int(parts[1], 0)
    length = int(parts[2], 0) if len(parts) == 3 else 1
    values = [
        state.read_memory(memory, address + offset)
        for offset in range(length)
    ]
    print("%s[%d:%d] = %s" % (memory, address, address + length, values))


if __name__ == "__main__":
    sys.exit(sim_main())
