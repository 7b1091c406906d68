"""Command-line interface: ``python -m repro``.

Subcommands:

* ``list`` — the 14 benchmark workloads and their characters;
* ``run``  — simulate one workload under one prefetching policy;
* ``figure`` — regenerate one of the paper's figures.

Examples::

    python -m repro list
    python -m repro run mcf --policy self_repairing --instructions 100000
    python -m repro run mcf --inject plan.json --wall-time-limit 120
    python -m repro figure 5 --workloads mcf,art --instructions 80000
    python -m repro figure resilience --workloads art,swim
    python -m repro figure 5 --jobs 2 --journal-dir /tmp/j \\
        --chaos seed=7 kill-rate=0.2
    python -m repro resume-sweep --journal-dir /tmp/j

A SIGINT (ctrl-C) or SIGTERM lands cleanly: in-flight futures are
cancelled, everything already simulated is committed to the result
cache and journal, and the process exits with ``128 + signum`` (130 or
143) after a one-line notice — never a traceback.  ``resume-sweep``
picks the interrupted sweep back up from its journal.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from typing import List, Optional

from .errors import ReproError
from .faults.plan import FaultPlan
from .harness.engine import ExperimentEngine, _execute_job, make_job
from .harness.experiments import (
    FIGURES,
    RESILIENCE,
    resilience_traced,
    run_figure,
)
from .harness.report import render_mapping, render_timeline
from .hwprefetch.zoo import all_policy_names
from .logutil import configure_logging
from .obs import Observer, write_chrome_trace, write_jsonl, write_metrics
from .workloads.registry import BENCHMARK_NAMES, load_workload

#: The ``figure`` subcommand's names: each figure's alias, else its name.
_FIGURE_NAMES = {
    figure.alias or figure.name: figure for figure in FIGURES.values()
}


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    """The experiment-engine knobs shared by run/figure/timeline."""
    parser.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        default=1,
        help=(
            "fan simulations out over N worker processes "
            "(results are re-ordered into submission order, so the "
            "output is identical to --jobs 1)"
        ),
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help=(
            "bypass the content-addressed result cache "
            "(REPRO_CACHE_DIR, default ~/.cache/repro) entirely"
        ),
    )
    parser.add_argument(
        "--refresh",
        action="store_true",
        help="re-simulate every job and overwrite its cache entry",
    )
    parser.add_argument(
        "--fast",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "use the pre-decoded fast interpreter (default; --no-fast "
            "selects the reference step loop — byte-identical results, "
            "distinct cache entries)"
        ),
    )
    parser.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        default=None,
        help=(
            "root of the snapshot store used to resume longer budgets "
            "from shorter ones (default: alongside the result cache; "
            "with --no-cache, checkpoints are off unless this is given)"
        ),
    )
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        metavar="N",
        default=None,
        help=(
            "also capture a mid-run snapshot every N committed "
            "instructions (run subcommand; end-of-run snapshots are "
            "always captured when a checkpoint store is active)"
        ),
    )
    parser.add_argument(
        "--journal-dir",
        metavar="DIR",
        default=None,
        help=(
            "append every job transition to a durable journal under "
            "DIR; an interrupted sweep can then be picked back up with "
            "'repro resume-sweep --journal-dir DIR'"
        ),
    )
    parser.add_argument(
        "--chaos",
        nargs="+",
        metavar="K=V",
        default=None,
        help=(
            "inject seeded fleet-level faults (worker kills, hangs, "
            "torn journal writes, cache corruption) and prove the "
            "output identical anyway; tokens: seed=N kill-rate=F "
            "hang-rate=F hang-s=F max-kills=N torn-journal=N "
            "corrupt-cache-rate=F — e.g. --chaos seed=7 kill-rate=0.2; "
            "with hang-rate set, each job's lease is hang-s/2, so hang-s "
            "must exceed twice the longest honest job"
        ),
    )


def _engine_from_args(
    args: argparse.Namespace, want_telemetry: bool = False
) -> ExperimentEngine:
    kwargs = {"workers": args.jobs, "refresh": args.refresh}
    if args.no_cache:
        kwargs["cache"] = None
    if args.checkpoint_dir:
        from .checkpoint import CheckpointStore

        kwargs["checkpoints"] = CheckpointStore(args.checkpoint_dir)
    journal_dir = getattr(args, "journal_dir", None)
    hub = None
    if want_telemetry or journal_dir:
        # A journalled sweep always gets a TelemetryHub: the hub's live
        # feed lands beside the journal, which is exactly where `repro
        # fleet status --journal-dir DIR` looks for it.
        from .obs.telemetry import TelemetryHub

        hub = TelemetryHub(out_dir=journal_dir)
        kwargs["telemetry"] = hub
    if journal_dir:
        from .harness.journal import JobJournal

        journal = JobJournal(journal_dir)
        journal.append(
            "sweep", argv=sys.argv[1:], sweep_id=hub.sweep_id
        )
        kwargs["journal"] = journal
    if getattr(args, "chaos", None):
        from .faults.chaos import ChaosPlan

        kwargs["chaos"] = ChaosPlan.parse(args.chaos)
    return ExperimentEngine(**kwargs)


def _print_fleet_summary(
    engine: ExperimentEngine, args: argparse.Namespace
) -> None:
    """The per-invocation engine (and chaos) counters, on stderr.

    With a telemetry hub the line is rendered from the fleet gauges —
    the same numbers `repro fleet status` shows — and with --quiet it is
    suppressed entirely.
    """
    if getattr(args, "quiet", False):
        return
    if engine.telemetry is not None:
        print(engine.telemetry.summary(), file=sys.stderr)
    else:
        print(engine.stats.summary(), file=sys.stderr)
    if engine.chaos is not None:
        print(engine.chaos.summary(), file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'A Self-Repairing Prefetcher in an "
            "Event-Driven Dynamic Optimization Framework' (CGO 2006)"
        ),
    )
    parser.add_argument(
        "--log-level",
        default="warning",
        choices=["debug", "info", "warning", "error"],
        help="verbosity of the repro.* loggers (stderr)",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress all diagnostics below errors",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the benchmark workloads")

    run = sub.add_parser("run", help="simulate one workload")
    run.add_argument(
        "workload",
        nargs="?",
        default=None,
        help=(
            "a builtin benchmark name, 'scenario:<catalog-name or "
            "spec.json>', or 'trace:<file.champsim.gz>' (see 'repro "
            "scenarios'); omit when using --scenario/--trace"
        ),
    )
    run.add_argument(
        "--scenario",
        metavar="NAME_OR_FILE",
        default=None,
        help=(
            "simulate a DSL scenario: a catalog name ('repro scenarios "
            "list') or a ScenarioSpec JSON file"
        ),
    )
    run.add_argument(
        "--trace",
        metavar="TRACE.champsim.gz",
        default=None,
        help=(
            "replay a ChampSim-format memory-access trace as the "
            "workload (gzip'd 64-byte records)"
        ),
    )
    run.add_argument(
        "--policy",
        default="self_repairing",
        choices=all_policy_names(),
        help=(
            "a paper policy or a hardware-prefetcher zoo name "
            "(zoo names run hw-only with that engine)"
        ),
    )
    run.add_argument("--instructions", type=int, default=100_000)
    run.add_argument("--warmup", type=int, default=200_000)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument(
        "--json", action="store_true", help="emit the result as JSON"
    )
    run.add_argument(
        "--inject",
        metavar="FAULT_PLAN.json",
        default=None,
        help=(
            "inject faults from a JSON fault plan mid-run "
            "(see repro.faults.plan for the schema: DRAM latency "
            "spikes, bus contention, cache flushes, DLT corruption, "
            "helper-thread stalls ...)"
        ),
    )
    run.add_argument(
        "--wall-time-limit",
        type=float,
        metavar="SECONDS",
        default=None,
        help=(
            "watchdog: abort with SimulationStallError when the run "
            "uses more than this much host wall time"
        ),
    )
    run.add_argument(
        "--max-cycles",
        type=float,
        metavar="CYCLES",
        default=None,
        help=(
            "watchdog: abort with SimulationStallError past this many "
            "simulated cycles"
        ),
    )
    run.add_argument(
        "--resume-from",
        metavar="SNAPSHOT.ckpt",
        default=None,
        help=(
            "restore this checkpoint file and continue it to "
            "--instructions, bypassing the engine and cache (workload/"
            "policy/warmup come from the snapshot; the positional "
            "workload must match the snapshot's)"
        ),
    )
    run.add_argument(
        "--trace-out",
        metavar="TRACE.json",
        default=None,
        help=(
            "export the run's cycle-stamped event stream; a .jsonl "
            "suffix writes JSONL (one event per line), anything else "
            "writes Chrome trace-event JSON loadable in Perfetto "
            "(https://ui.perfetto.dev)"
        ),
    )
    run.add_argument(
        "--metrics-out",
        metavar="METRICS.json",
        default=None,
        help=(
            "write the consolidated observer snapshot (metrics "
            "registry, ring summary, repair timelines, samples) as JSON"
        ),
    )
    run.add_argument(
        "--sample-interval",
        type=int,
        metavar="N",
        default=None,
        help=(
            "close a windowed IPC/miss-rate/latency sample every N "
            "committed instructions (implies observation)"
        ),
    )
    _add_engine_args(run)

    fig = sub.add_parser(
        "figure", help="regenerate a paper figure, ablation or study"
    )
    fig.add_argument("figure", choices=sorted(_FIGURE_NAMES))
    fig.add_argument(
        "--workloads",
        default=None,
        help=(
            "comma-separated subset (default: all 14); entries may be "
            "builtin names, 'scenario:<name-or-file>', or "
            "'trace:<file>' references"
        ),
    )
    fig.add_argument("--instructions", type=int, default=None)
    fig.add_argument("--warmup", type=int, default=None)
    fig.add_argument(
        "--trace-out",
        metavar="TRACE.json",
        default=None,
        help=(
            "export a Perfetto-loadable Chrome trace: the resilience "
            "figure writes its instrumented single run's event stream; "
            "every other figure writes the stitched *fleet* trace — "
            "engine and worker processes on one wall-clock timeline"
        ),
    )
    _add_engine_args(fig)

    timeline = sub.add_parser(
        "timeline",
        help=(
            "run a workload and print each delinquent PC's repair "
            "timeline (the section-3.5.2 distance search, step by step)"
        ),
    )
    timeline.add_argument("workload", choices=BENCHMARK_NAMES)
    timeline.add_argument(
        "--policy",
        default="self_repairing",
        choices=all_policy_names(),
    )
    timeline.add_argument("--instructions", type=int, default=100_000)
    timeline.add_argument("--warmup", type=int, default=200_000)
    timeline.add_argument("--seed", type=int, default=1)
    timeline.add_argument(
        "--json-out",
        metavar="TIMELINES.jsonl",
        default=None,
        help="also write the timelines as JSONL (one record per PC)",
    )
    # Accepted for CLI symmetry: a timeline needs the live observer's
    # repair-timeline tracker, so the single run stays in-process and
    # --jobs/--no-cache/--refresh change nothing.
    _add_engine_args(timeline)

    traces = sub.add_parser(
        "traces",
        help="run a workload and dump its linked hot traces",
    )
    traces.add_argument("workload", choices=BENCHMARK_NAMES)
    traces.add_argument("--instructions", type=int, default=80_000)
    traces.add_argument(
        "--policy",
        default="self_repairing",
        choices=all_policy_names(),
    )

    scen = sub.add_parser(
        "scenarios",
        help="list, inspect, or generate DSL workload scenarios",
    )
    scen_sub = scen.add_subparsers(dest="scenarios_command", required=True)
    scen_sub.add_parser(
        "list", help="the curated scenario catalog"
    )
    scen_show = scen_sub.add_parser(
        "show", help="print a scenario's JSON spec"
    )
    scen_show.add_argument(
        "scenario",
        help="a catalog name or a ScenarioSpec JSON file",
    )
    scen_gen = scen_sub.add_parser(
        "generate",
        help=(
            "deterministically generate random-but-valid scenario "
            "specs from a seed (the fuzzer's generator)"
        ),
    )
    scen_gen.add_argument("--seed", type=int, default=1)
    scen_gen.add_argument(
        "--count", type=int, default=1, metavar="N",
        help="generate N specs (seeds seed, seed+1, ...)",
    )
    scen_gen.add_argument(
        "--out-dir",
        metavar="DIR",
        default=None,
        help=(
            "write each spec to DIR/<name>.json instead of stdout "
            "(runnable via 'run --scenario DIR/<name>.json')"
        ),
    )

    compare = sub.add_parser(
        "compare", help="run two policies side by side"
    )
    compare.add_argument("workload", choices=BENCHMARK_NAMES)
    compare.add_argument(
        "--baseline", default="hw_only", choices=all_policy_names()
    )
    compare.add_argument(
        "--candidate", default="self_repairing", choices=all_policy_names()
    )
    compare.add_argument("--instructions", type=int, default=100_000)
    compare.add_argument("--warmup", type=int, default=200_000)

    claims = sub.add_parser(
        "claims", help="grade the paper's claims against this build"
    )
    claims.add_argument("--workloads", default=None)
    claims.add_argument("--instructions", type=int, default=None)
    claims.add_argument("--warmup", type=int, default=None)
    _add_engine_args(claims)

    fleet = sub.add_parser(
        "fleet",
        help="watch or inspect a fleet sweep's live telemetry",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)
    status = fleet_sub.add_parser(
        "status",
        help=(
            "tail a sweep's telemetry feed (written next to its "
            "journal): worker occupancy, queue depth, cache hit rate, "
            "throughput, freshest IPC samples"
        ),
    )
    status.add_argument(
        "--journal-dir",
        metavar="DIR",
        required=True,
        help="the sweep's --journal-dir (telemetry feed lives beside it)",
    )
    status.add_argument(
        "--watch",
        type=float,
        metavar="SECONDS",
        default=None,
        help="re-render every SECONDS until interrupted",
    )

    resume = sub.add_parser(
        "resume-sweep",
        help=(
            "pick an interrupted sweep back up from its job journal: "
            "finished jobs replay from the result cache, unfinished "
            "ones re-run"
        ),
    )
    _add_engine_args(resume)

    cache = sub.add_parser(
        "cache",
        help="inspect or prune the result/checkpoint cache",
    )
    cache.add_argument(
        "--dir",
        metavar="DIR",
        default=None,
        help="cache root (default: REPRO_CACHE_DIR or ~/.cache/repro)",
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    cache_sub.add_parser(
        "stats",
        help="entry counts and byte totals per cache section",
    )
    cache_prune = cache_sub.add_parser(
        "prune",
        help="delete oldest entries until the cache fits a byte budget",
    )
    cache_prune.add_argument(
        "--max-bytes",
        type=int,
        required=True,
        metavar="BYTES",
        help=(
            "target total size; oldest files go first (results, "
            "checkpoints, quarantine and orphaned temps alike)"
        ),
    )
    return parser


def _cmd_list() -> int:
    for name in BENCHMARK_NAMES:
        workload = load_workload(name)
        print(f"{name:10s} [{workload.kind:9s}] {workload.description}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    given = sum(
        1 for source in (args.workload, args.scenario, args.trace) if source
    )
    if given != 1:
        print(
            "error: give exactly one workload source — a positional "
            "name/reference, --scenario, or --trace",
            file=sys.stderr,
        )
        return 2
    ref = args.workload
    if args.scenario:
        ref = f"scenario:{args.scenario}"
    elif args.trace:
        ref = f"trace:{args.trace}"
    if args.resume_from and (
        args.inject
        or args.trace_out
        or args.metrics_out
        or args.sample_interval
    ):
        print(
            "error: --resume-from restores a complete captured run "
            "and cannot be combined with --inject/--trace-out/"
            "--metrics-out/--sample-interval",
            file=sys.stderr,
        )
        return 2
    job = make_job(
        ref,
        policy=args.policy,
        max_instructions=args.instructions,
        warmup_instructions=args.warmup,
        seed=args.seed,
        fault_plan=FaultPlan.load(args.inject) if args.inject else None,
        max_cycles=args.max_cycles,
        wall_time_limit=args.wall_time_limit,
        sample_interval=args.sample_interval,
        fast=args.fast,
        checkpoint_every=args.checkpoint_every,
    )
    if args.resume_from:
        from .checkpoint import Snapshot, restore

        try:
            with open(args.resume_from, "rb") as fh:
                snapshot = Snapshot.from_bytes(fh.read())
        except OSError as exc:
            print(f"error: cannot read snapshot: {exc}", file=sys.stderr)
            return 2
        sim = restore(snapshot)
        if sim.workload.name != job.workload:
            print(
                f"error: snapshot holds workload "
                f"{sim.workload.name!r}, not {job.workload!r}",
                file=sys.stderr,
            )
            return 2
        print(
            f"resumed from {args.resume_from} at "
            f"{snapshot.committed} committed instructions",
            file=sys.stderr,
        )
        result = sim.resume(args.instructions)
    elif args.trace_out or args.metrics_out or args.sample_interval:
        # Trace/metrics export needs the live observer object, which a
        # cached replay or worker process cannot provide: the same job
        # runs in-process through the engine's simulation seam.
        observer = Observer(sample_interval=args.sample_interval)
        result = _execute_job(job, observer=observer)[0]
        _export_observer(observer, args, workload=result.workload)
    else:
        engine = _engine_from_args(args)
        outcome = engine.run([job], isolate=False)[0]
        result = outcome.result
        if outcome.cached:
            print(
                "result replayed from cache (--refresh to re-simulate)",
                file=sys.stderr,
            )
        elif outcome.resumed_from is not None:
            print(
                f"resumed from a checkpoint at {outcome.resumed_from} "
                "committed instructions",
                file=sys.stderr,
            )
    if args.json:
        import json

        print(json.dumps(result.to_dict(), indent=2))
        return 0
    summary = {
        "workload": result.workload,
        "policy": result.policy.value,
        "instructions": result.instructions,
        "cycles": int(result.cycles),
        "IPC": round(result.ipc, 4),
        "traces linked": result.traces_linked,
        "prefetches (stride)": result.prefetches_inserted,
        "prefetches (pointer)": result.pointer_prefetches_inserted,
        "distance repairs": result.repairs_applied,
        "helper active": f"{result.helper_active_fraction:.1%}",
    }
    if job.fault_plan is not None:
        summary["faults applied"] = result.faults_applied
    print(render_mapping("simulation result", summary))
    if result.fault_log:
        print()
        print("fault log")
        print("=========")
        for entry in result.fault_log:
            status = " (skipped)" if entry.get("skipped") else ""
            label = f" [{entry['label']}]" if entry.get("label") else ""
            detail = entry.get("detail", "")
            print(
                f"cycle {entry['cycle']:>10d}  inst {entry['instruction']:>9d}"
                f"  {entry['kind']}{label}{status}  {detail}"
            )
    print()
    print(render_mapping(
        "load outcomes",
        {k: f"{v:.2%}" for k, v in result.breakdown().items()},
    ))
    return 0


def _export_observer(
    observer: Observer, args: argparse.Namespace, workload: str
) -> None:
    """Write the run subcommand's --trace-out / --metrics-out files."""
    if args.trace_out:
        if args.trace_out.endswith(".jsonl"):
            count = write_jsonl(observer.events(), args.trace_out)
        else:
            count = write_chrome_trace(
                observer.events(),
                args.trace_out,
                metadata={"workload": workload, "policy": args.policy},
            )
        print(
            f"wrote {count} trace events to {args.trace_out}",
            file=sys.stderr,
        )
    if args.metrics_out:
        write_metrics(observer.snapshot(), args.metrics_out)
        print(f"wrote metrics to {args.metrics_out}", file=sys.stderr)


def _cmd_figure(args: argparse.Namespace) -> int:
    figure = _FIGURE_NAMES[args.figure]
    workloads = None
    if args.workloads:
        workloads = [w.strip() for w in args.workloads.split(",")]
    # The resilience figure exports its instrumented runs' event streams;
    # every other figure is a fleet of jobs and exports the stitched
    # cross-process span trace instead.
    traced = args.trace_out is not None and figure is RESILIENCE
    fleet_trace = None if traced else args.trace_out
    engine = _engine_from_args(args, want_telemetry=fleet_trace is not None)
    if traced:
        result = resilience_traced(
            workloads, args.instructions, args.warmup, args.trace_out,
            args.fast,
        )
    else:
        result = run_figure(
            figure, workloads, args.instructions, args.warmup, engine,
            args.fast,
        )
    print(result.render())
    if fleet_trace is not None and engine.telemetry is not None:
        count = engine.telemetry.write_trace(
            fleet_trace, metadata={"figure": args.figure}
        )
        if not args.quiet:
            print(
                f"wrote {count} fleet trace events to {fleet_trace}",
                file=sys.stderr,
            )
    _print_fleet_summary(engine, args)
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    import json

    observer = Observer()
    job = make_job(
        args.workload,
        policy=args.policy,
        max_instructions=args.instructions,
        warmup_instructions=args.warmup,
        seed=args.seed,
        fast=args.fast,
    )
    _execute_job(job, observer=observer)
    timelines = observer.timelines.to_dicts()
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            for record in timelines:
                fh.write(json.dumps(record, sort_keys=True))
                fh.write("\n")
        print(
            f"wrote {len(timelines)} timelines to {args.json_out}",
            file=sys.stderr,
        )
    print(render_timeline(timelines))
    return 0


def _cmd_traces(args: argparse.Namespace) -> int:
    from .harness.runner import Simulation
    from .isa.disasm import format_instruction

    job = make_job(
        args.workload, policy=args.policy, max_instructions=args.instructions
    )
    sim = Simulation(job.workload, job.config)
    sim.run()
    if sim.runtime is None:
        print("policy has no Trident runtime (no traces)")
        return 0
    traces = sim.runtime.code_cache.linked_traces()
    if not traces:
        print("no traces linked")
        return 0
    for trace in sorted(traces, key=lambda t: t.head_pc):
        print(
            f"trace {trace.trace_id} @ pc {trace.head_pc} "
            f"(version {trace.version}, {len(trace.body)} instructions, "
            f"fallthrough {trace.fallthrough_pc})"
        )
        for tinst in trace.body:
            marker = "+" if tinst.synthetic else " "
            expect = ""
            if tinst.expected_taken is not None:
                expect = f"   ; expect {'T' if tinst.expected_taken else 'NT'}"
            print(
                f"  {marker} [{tinst.orig_pc:5d}] "
                f"{format_instruction(tinst.inst)}{expect}"
            )
        records = trace.meta.get("records", {})
        seen = set()
        for record in records.values():
            if id(record) in seen:
                continue
            seen.add(id(record))
            print(
                f"  record loads={record.load_pcs} kind={record.kind} "
                f"stride={record.stride} distance={record.distance}"
                f"{' (mature)' if record.mature else ''}"
            )
        print()
    return 0


def _cmd_scenarios(args: argparse.Namespace) -> int:
    import json
    import pathlib

    from .scenarios import CATALOG, generate_scenario, resolve_scenario

    if args.scenarios_command == "list":
        for name, spec in CATALOG.items():
            phases = len(spec.phases)
            prims = sum(len(p.primitives) for p in spec.phases)
            print(
                f"{name:12s} [{phases} phase(s), {prims} primitive(s)] "
                f"{spec.description}"
            )
        print(
            "\nrun one with: repro run --scenario <name> "
            "(or scenario:<name> anywhere a workload is accepted)"
        )
        return 0
    if args.scenarios_command == "show":
        spec = resolve_scenario(args.scenario)
        print(json.dumps(spec.to_dict(), indent=1, sort_keys=True))
        return 0
    # generate
    out_dir = pathlib.Path(args.out_dir) if args.out_dir else None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
    for offset in range(max(1, args.count)):
        spec = generate_scenario(args.seed + offset)
        if out_dir is None:
            print(json.dumps(spec.to_dict(), indent=1, sort_keys=True))
        else:
            path = out_dir / f"{spec.name}.json"
            spec.save(path)
            print(path)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from .harness.charts import bar_chart

    results = {}
    for role, policy in (
        ("baseline", args.baseline),
        ("candidate", args.candidate),
    ):
        job = make_job(
            args.workload,
            policy=policy,
            max_instructions=args.instructions,
            warmup_instructions=args.warmup,
        )
        results[role] = _execute_job(job)[0]
    base, cand = results["baseline"], results["candidate"]
    print(
        bar_chart(
            f"{args.workload}: IPC",
            [
                (f"{args.baseline}", base.ipc),
                (f"{args.candidate}", cand.ipc),
            ],
        )
    )
    print()
    speedup = cand.speedup_over(base)
    print(f"speedup: {speedup:.3f}x ({(speedup - 1) * 100:+.1f}%)")
    return 0


def _cmd_claims(args: argparse.Namespace) -> int:
    from .harness.claims import evaluate_claims, render_verdicts

    workloads = None
    if args.workloads:
        workloads = [w.strip() for w in args.workloads.split(",")]
    engine = _engine_from_args(args)
    verdicts = evaluate_claims(
        workloads=workloads,
        max_instructions=args.instructions,
        warmup=args.warmup,
        engine=engine,
        fast=args.fast,
    )
    print(render_verdicts(verdicts))
    _print_fleet_summary(engine, args)
    return 0 if all(v.ok for v in verdicts) else 1


def _cmd_resume_sweep(args: argparse.Namespace) -> int:
    from .harness.engine import SimJob
    from .harness.journal import JobJournal

    if not args.journal_dir:
        print(
            "error: resume-sweep requires --journal-dir (the directory "
            "an interrupted sweep journalled into)",
            file=sys.stderr,
        )
        return 2
    state = JobJournal(args.journal_dir).recover()
    if not state.jobs:
        print(
            f"error: no recoverable journal under {args.journal_dir}",
            file=sys.stderr,
        )
        return 2
    jobs = []
    unreadable = 0
    for record in state.jobs.values():
        if record.job is None:
            unreadable += 1
            continue
        try:
            jobs.append(SimJob.from_dict(record.job))
        except ReproError:
            unreadable += 1
    unfinished = len(state.unfinished())
    print(
        f"journal holds {len(state.jobs)} jobs "
        f"({len(state.jobs) - unfinished} finished, "
        f"{unfinished} unfinished"
        + (
            f", {state.skipped} torn records skipped "
            f"(first at byte {state.first_skipped_offset})"
            if state.skipped
            else ""
        )
        + ")",
        file=sys.stderr,
    )
    if unreadable:
        print(
            f"warning: {unreadable} journalled jobs have no readable "
            "spec and cannot be resumed",
            file=sys.stderr,
        )
    if not jobs:
        print("error: nothing resumable", file=sys.stderr)
        return 2
    engine = _engine_from_args(args)
    outcomes = engine.run(jobs)
    failed = sum(1 for outcome in outcomes if not outcome.ok)
    print(render_mapping(
        "resume-sweep",
        {
            "jobs": len(jobs),
            "replayed from cache": sum(1 for o in outcomes if o.cached),
            "re-simulated": sum(
                1 for o in outcomes if o.ok and not o.cached
            ),
            "failed": failed,
        },
    ))
    _print_fleet_summary(engine, args)
    return 0 if failed == 0 else 1


def _cmd_fleet_status(args: argparse.Namespace) -> int:
    import time as _time

    from .harness.journal import JobJournal
    from .obs.telemetry import (
        SUMMARY_GAUGES,
        format_engine_summary,
        read_snapshot,
    )

    def render_once() -> bool:
        snapshot = read_snapshot(args.journal_dir)
        try:
            state = JobJournal(args.journal_dir).recover()
        except (OSError, ReproError):
            state = None
        if snapshot is None and (state is None or not state.jobs):
            print(
                "error: no telemetry feed or journal under "
                f"{args.journal_dir} (start the sweep with "
                "--journal-dir to produce one)",
                file=sys.stderr,
            )
            return False
        rows: dict = {}
        if snapshot is not None:
            rows["sweep"] = snapshot.get("sweep_id", "?")
            age = max(0.0, _time.time() - snapshot.get("updated_at", 0.0))
            rows["feed age"] = f"{age:.1f}s"
        if state is not None and state.jobs:
            by_state: dict = {}
            for record in state.jobs.values():
                by_state[record.state] = by_state.get(record.state, 0) + 1
            rows["jobs"] = " ".join(
                f"{name}={count}"
                for name, count in sorted(by_state.items())
            )
            terminal = sum(
                by_state.get(s, 0)
                for s in ("done", "failed", "quarantined")
            )
            rows["progress"] = f"{terminal}/{len(state.jobs)} terminal"
            if state.skipped:
                rows["journal"] = (
                    f"{state.skipped} torn record(s) skipped"
                )
        if snapshot is not None:
            gauges = snapshot.get("gauges", {})
            rows["workers"] = (
                f"{int(gauges.get('fleet.workers_busy', 0))} busy / "
                f"{int(gauges.get('fleet.workers_idle', 0))} idle of "
                f"{int(gauges.get('fleet.workers', 0))}"
            )
            rows["queue depth"] = snapshot.get("queue_depth", 0)
            rows["cache hit rate"] = (
                f"{gauges.get('fleet.cache_hit_rate', 0.0):.1%}"
            )
            rows["throughput"] = (
                f"{gauges.get('fleet.sim_cycles_per_s', 0.0):,.0f} "
                "simulated cycles/s"
            )
            values = {
                label: gauges.get(gauge, 0)
                for label, gauge in SUMMARY_GAUGES
            }
            values["spent"] = gauges.get("engine.wall_time_spent_s", 0.0)
            values["saved"] = gauges.get("engine.wall_time_saved_s", 0.0)
            rows["engine"] = format_engine_summary(values)
            samples = snapshot.get("samples_tail") or []
            if samples:
                latest = samples[-1]
                ipc = latest.get("ipc")
                if isinstance(ipc, (int, float)):
                    key = str(latest.get("job_key") or "?")[:12]
                    rows["latest sample"] = f"job {key} IPC={ipc:.3f}"
        print(render_mapping(
            f"fleet status: {args.journal_dir}", rows
        ))
        return True

    if args.watch is None:
        return 0 if render_once() else 2
    try:
        while True:
            if not render_once():
                return 2
            _time.sleep(max(0.1, args.watch))
            print()
    except KeyboardInterrupt:
        return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    import pathlib

    from .harness.blobstore import default_cache_dir, prune, scan_usage

    root = pathlib.Path(args.dir) if args.dir else default_cache_dir()
    if args.cache_command == "prune":
        deleted, freed = prune(root, args.max_bytes)
        print(
            f"pruned {deleted} files ({freed} bytes) from {root}"
        )
    usage = scan_usage(root)
    rows = {
        f"{section} ({counts['entries']} entries)": f"{counts['bytes']} bytes"
        for section, counts in usage.items()
    }
    rows["total"] = (
        f"{sum(c['bytes'] for c in usage.values())} bytes "
        f"({sum(c['entries'] for c in usage.values())} entries)"
    )
    print(render_mapping(f"cache usage: {root}", rows))
    print(
        "hit/miss/resume counters are per-invocation: see the "
        "'engine: run=... cached=... resumed=...' summary each "
        "figure/claims command prints to stderr",
        file=sys.stderr,
    )
    return 0


class _SignalExit(KeyboardInterrupt):
    """KeyboardInterrupt that remembers which signal raised it."""

    def __init__(self, signum: int) -> None:
        super().__init__()
        self.signum = signum


def _install_signal_handlers():
    """Route SIGINT/SIGTERM through one exception; returns a restorer.

    Both signals become a :class:`_SignalExit` so every cleanup path —
    supervisor shutdown, the engine's ``interrupted`` journal
    record, incremental cache commits — runs exactly as it does for a
    plain ctrl-C, and ``main`` can still exit ``128 + signum``.
    """
    previous = {}

    def handler(signum, frame):
        raise _SignalExit(signum)

    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous[sig] = signal.signal(sig, handler)
        except (ValueError, OSError):
            # Not the main thread (embedded use): signals stay as-is.
            pass

    def restore() -> None:
        for sig, old in previous.items():
            try:
                signal.signal(sig, old)
            except (ValueError, OSError):
                pass

    return restore


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    configure_logging(level=args.log_level, quiet=args.quiet)
    restore_signals = _install_signal_handlers()
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "timeline":
            return _cmd_timeline(args)
        if args.command == "traces":
            return _cmd_traces(args)
        if args.command == "scenarios":
            return _cmd_scenarios(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "claims":
            return _cmd_claims(args)
        if args.command == "cache":
            return _cmd_cache(args)
        if args.command == "fleet":
            return _cmd_fleet_status(args)
        if args.command == "resume-sweep":
            return _cmd_resume_sweep(args)
        return _cmd_figure(args)
    except KeyboardInterrupt as exc:
        # Every finished job is already durable (the engine commits
        # results as they complete and journals the interruption);
        # report that and exit with the conventional signal code.
        signum = getattr(exc, "signum", signal.SIGINT)
        name = signal.Signals(signum).name
        print(
            f"interrupted ({name}); completed jobs are committed — "
            "rerun the same command or 'repro resume-sweep' to continue",
            file=sys.stderr,
        )
        return 128 + signum
    except ReproError as exc:
        # Structured errors are user errors or stalled runs, not bugs:
        # report them cleanly instead of dumping a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout went away (`repro … | head`); exit with the
        # conventional SIGPIPE code, and point stdout at devnull so the
        # interpreter's shutdown flush cannot raise a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 128 + signal.SIGPIPE
    finally:
        restore_signals()


if __name__ == "__main__":
    sys.exit(main())
