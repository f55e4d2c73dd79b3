"""Command-line interface: ``python -m repro <command>``.

Subcommands:

``generate``   synthesize a machine's trace and write it to a file
``stats``      summarize a saved trace
``missfree``   run the Figure 2/3 miss-free hoard-size simulation
``live``       run the Tables 3-5 live-usage simulation
``figure2``    run the multi-machine study and render Figure 2
``report``     run the full reproduction and render everything
``sweep``      sweep one SEER parameter and report the objective
``service``    run the multi-tenant hoard daemon (docs/service.md)
``population`` fleet-scale synthetic-population study (docs/population.md)

All simulation commands accept a machine name (A-I); ``generate`` can
persist the trace for later ``stats`` inspection.  ``population``
instead takes ``--machines N --seed S`` and synthesizes N machine
profiles sampled from Table 3's distributions.

``figure2``, ``report``, ``sweep``, ``live`` and ``population`` run
their experiment grids on the parallel runner
(docs/parallel-runner.md): ``--jobs N``
shards the grid across N worker processes, ``--checkpoint-dir DIR``
persists completed cells in the checkpoint store, one WAL-mode sqlite
database (docs/state-store.md), and ``--resume`` restarts an
interrupted study recomputing only the missing cells.  Output is
identical for every ``--jobs`` value.

``live`` and ``report`` accept ``--fault-profile``/``--fault-seed``
(docs/fault-injection.md): deterministic injection of surprise
disconnections mid-hoard-fill, failed synchronizations retried with
exponential backoff, and flaky server reads.  Injected faults appear
as ``faults.*`` counters under ``--metrics``; without the flags the
output is byte-identical to a fault-free run.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from typing import List, Optional

from repro.analysis import (
    run_reproduction,
    render_figure2,
    render_figure3,
    render_table3,
    render_table4,
    render_table5,
)
from repro.core.parameters import SeerParameters
from repro.observability import sort_metric_names
from repro.simulation import SIM_PARAMETERS
from repro.simulation.live import simulate_live_usage
from repro.simulation.missfree import simulate_miss_free
from repro.tracing import read_trace_file, summarize_trace, write_trace_file
from repro.tuning import sweep_parameter
from repro.workload import MACHINES, generate_machine_trace, machine_profile

DAY = 86400.0
WEEK = 7 * DAY
MB = 1024 * 1024


def _add_machine_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("machine", choices=sorted(MACHINES),
                        help="machine profile (paper Table 3)")
    parser.add_argument("--days", type=float, default=28.0,
                        help="simulated deployment length (default 28)")
    parser.add_argument("--seed", type=int, default=1)


def _add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags of the parallel experiment runner (docs/parallel-runner.md)."""
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the experiment grid "
                             "(default 1; results are identical for any "
                             "value)")
    parser.add_argument("--checkpoint-dir", metavar="DIR",
                        help="persist completed grid cells into DIR "
                             "through the checkpoint state store "
                             "(docs/state-store.md)")
    parser.add_argument("--resume", action="store_true",
                        help="reload completed cells from "
                             "--checkpoint-dir and run only the missing "
                             "ones")


def _add_fault_arguments(parser: argparse.ArgumentParser) -> None:
    """Fault-injection flags (docs/fault-injection.md)."""
    from repro.faults import PROFILES
    parser.add_argument("--fault-profile", choices=sorted(PROFILES),
                        default=None, metavar="PROFILE",
                        help="inject deterministic faults: surprise "
                             "disconnections mid-hoard-fill, failed "
                             "synchronizations with retry/backoff, flaky "
                             "server reads (profiles: "
                             + ", ".join(sorted(PROFILES)) + "; 'none' "
                             "is inert and output-identical to omitting "
                             "the flag)")
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="seed of the fault decision stream "
                             "(default 0); same profile + seed replays "
                             "the same faults")


def _trace_for(args):
    return generate_machine_trace(machine_profile(args.machine),
                                  seed=args.seed, days=args.days)


def _print_metrics(metrics, stream=None) -> None:
    """Render an ingestion-pipeline metrics snapshot (``--metrics``)."""
    if stream is None:
        stream = sys.stderr
    if not metrics:
        print("(no ingestion metrics collected)", file=stream)
        return
    print("ingestion metrics:", file=stream)
    # Registry-canonical order (unregistered names last): related
    # counters stay grouped and snapshots diff cleanly across runs.
    for name in sort_metric_names(list(metrics)):
        value = metrics[name]
        if isinstance(value, float) and not value.is_integer():
            rendered = f"{value:,.3f}"
        else:
            rendered = f"{int(value):,d}"
        print(f"  {name:<42s} {rendered:>16s}", file=stream)


def cmd_generate(args) -> int:
    trace = _trace_for(args)
    count = write_trace_file(trace.records, args.output)
    print(f"wrote {count:,} records for machine {args.machine} "
          f"to {args.output}")
    return 0


def cmd_stats(args) -> int:
    records = read_trace_file(args.trace)
    print(summarize_trace(records).format())
    return 0


def cmd_missfree(args) -> int:
    trace = _trace_for(args)
    window = WEEK if args.weekly else DAY
    result = simulate_miss_free(trace, window,
                                use_investigators=args.investigators,
                                include_spy=args.spy)
    label = "weekly" if args.weekly else "daily"
    print(f"machine {args.machine}, {label} disconnections, "
          f"{len(result.windows)} windows:")
    print(f"  working set : {result.mean_working_set / MB:7.2f} MB")
    print(f"  SEER        : {result.mean_seer / MB:7.2f} MB")
    if args.spy:
        print(f"  SPY UTILITY : {result.mean_spy / MB:7.2f} MB")
    print(f"  LRU         : {result.mean_lru / MB:7.2f} MB  "
          f"({result.lru_to_seer_ratio:.1f}x SEER)")
    if args.figure3:
        print()
        print(render_figure3(result))
    if args.metrics:
        _print_metrics(result.metrics)
    return 0


def cmd_live(args) -> int:
    if args.checkpoint_dir:
        # Run the single live cell through the parallel runner so it is
        # checkpointed (and resumable).
        from repro.simulation.runner import ShardSpec, run_shards
        spec = ShardSpec("live", args.machine, args.seed, args.days,
                         fault_profile=args.fault_profile,
                         fault_seed=args.fault_seed)
        (outcome,) = run_shards([spec], jobs=args.jobs,
                                checkpoint_dir=args.checkpoint_dir,
                                resume=args.resume)
        result = outcome.result
    else:
        trace = _trace_for(args)
        result = simulate_live_usage(trace,
                                     fault_profile=args.fault_profile,
                                     fault_seed=args.fault_seed)
    if args.fault_profile:
        print(f"(fault profile {args.fault_profile!r}, "
              f"fault seed {args.fault_seed})", file=sys.stderr)
    print(render_table3([result]))
    print()
    print(render_table4([result]))
    print()
    print(render_table5([result]))
    if args.metrics:
        _print_metrics(result.metrics)
    return 0


def cmd_figure2(args) -> int:
    from repro.observability import Metrics
    from repro.simulation.runner import figure2_grid, run_shards
    shards = figure2_grid(args.machines, days=args.days, seed=args.seed,
                          investigators=args.investigators)
    metrics = Metrics()
    outcomes = run_shards(shards, jobs=args.jobs,
                          checkpoint_dir=args.checkpoint_dir,
                          resume=args.resume, metrics=metrics,
                          progress=lambda msg: print(msg, file=sys.stderr))
    print(render_figure2([o.result for o in outcomes], show_ci=False))
    if args.metrics:
        _print_metrics(metrics.snapshot())
    return 0


def cmd_report(args) -> int:
    from repro.observability import Metrics
    metrics = Metrics()
    report = run_reproduction(machines=args.machines, days=args.days,
                              seed=args.seed, jobs=args.jobs,
                              checkpoint_dir=args.checkpoint_dir,
                              resume=args.resume, metrics=metrics,
                              fault_profile=args.fault_profile,
                              fault_seed=args.fault_seed,
                              progress=lambda msg: print(msg, file=sys.stderr))
    print(report.render())
    if args.metrics:
        _print_metrics(metrics.snapshot())
    if args.json:
        from repro.analysis.export import live_rows, missfree_summary, write_json
        write_json(missfree_summary(report.missfree) + live_rows(report.live),
                   args.json)
        print(f"(wrote {args.json})", file=sys.stderr)
    if args.csv:
        from repro.analysis.export import missfree_rows, write_csv
        write_csv(missfree_rows(report.missfree), args.csv)
        print(f"(wrote {args.csv})", file=sys.stderr)
    return 0


def cmd_population(args) -> int:
    import json
    from repro.analysis.population import (
        PopulationAggregate,
        aggregate_from_data,
        aggregate_to_data,
        render_population_report,
    )
    from repro.workload import PopulationSpec, SampleStats, sample_population

    if args.action == "report":
        if not args.load:
            print("population report requires --load FILE (the output of "
                  "population run --save)", file=sys.stderr)
            return 2
        with open(args.load, "r", encoding="utf-8") as stream:
            aggregate = aggregate_from_data(json.load(stream))
        print(render_population_report(aggregate,
                                       bootstrap_seed=args.bootstrap_seed,
                                       resamples=args.resamples))
        return 0

    spec = PopulationSpec(machines=args.machines, seed=args.seed)
    stats = SampleStats()
    profiles = sample_population(spec, stats=stats)

    if args.action == "sample":
        print(f"population seed {args.seed}: {stats.machines} machines")
        print(f"  never disconnect      {stats.zero_disconnection_machines}")
        print(f"  investigator users    {stats.investigator_machines}")
        print(f"  stat triples clamped  {stats.stats_clamped}")
        activities = sorted(p.activity for p in profiles)
        print(f"  activity range        {activities[0]:.3f} - "
              f"{activities[-1]:.3f}")
        preview = profiles[:min(10, len(profiles))]
        print(f"  first {len(preview)} profiles:")
        for profile in preview:
            print(f"    {profile.name}  days={profile.days_measured:<4d} "
                  f"disconnections={profile.n_disconnections:<4d} "
                  f"activity={profile.activity:.2f} "
                  f"hoard={profile.hoard_size_bytes // MB}MB"
                  + ("  +inv" if profile.uses_investigators else ""))
        return 0

    from repro.observability import Metrics
    from repro.simulation.runner import population_grid, run_shards
    metrics = Metrics()
    window = WEEK if args.weekly else DAY
    grid = population_grid(args.machines, args.seed, days=args.days,
                           window_seconds=window,
                           fault_profile=args.fault_profile,
                           fault_seed=args.fault_seed)
    aggregate = PopulationAggregate(population_seed=args.seed,
                                    days=args.days)
    progress = (lambda msg: print(msg, file=sys.stderr)) \
        if args.progress else None
    run_shards(grid, jobs=args.jobs, checkpoint_dir=args.checkpoint_dir,
               resume=args.resume, metrics=metrics,
               consume=aggregate.consume, progress=progress)
    metrics.incr("population.machines", aggregate.machines)
    metrics.incr("population.machines_zero_disconnections",
                 stats.zero_disconnection_machines)
    metrics.incr("population.machines_investigators",
                 stats.investigator_machines)
    metrics.incr("population.profiles_clamped", stats.stats_clamped)
    metrics.incr("population.disconnections_replayed",
                 sum(c.disconnections for c in aggregate.cells))
    metrics.incr("population.disconnections_failed",
                 sum(c.failed_disconnections for c in aggregate.cells))
    if args.fault_profile:
        print(f"(fault profile {args.fault_profile!r}, "
              f"fault seed {args.fault_seed})", file=sys.stderr)
    print(render_population_report(aggregate,
                                   bootstrap_seed=args.bootstrap_seed,
                                   resamples=args.resamples))
    if args.save:
        with open(args.save, "w", encoding="utf-8") as stream:
            json.dump(aggregate_to_data(aggregate), stream)
        print(f"(wrote {args.save})", file=sys.stderr)
    if args.metrics:
        _print_metrics(metrics.snapshot())
    return 0


def cmd_sweep(args) -> int:
    trace = _trace_for(args)
    values = [_coerce(v) for v in args.values]
    points = sweep_parameter(SIM_PARAMETERS, args.parameter, values, [trace],
                             jobs=args.jobs,
                             checkpoint_dir=args.checkpoint_dir,
                             resume=args.resume)
    print(f"sweep of {args.parameter} on machine {args.machine} "
          f"(objective: mean hoard overhead, lower is better)")
    for point in points:
        print(f"  {args.parameter}={point.value}: "
              f"{point.result.score:.3f}")
    if points:
        best = min(points, key=lambda p: p.result.score)
        print(f"best: {args.parameter}={best.value}")
    return 0


def cmd_service(args) -> int:
    import asyncio
    from repro.service.daemon import run_service
    counters = asyncio.run(run_service(
        host=args.host, port=args.port, unix_path=args.unix_socket,
        queue_bound=args.queue_bound, checkpoint_dir=args.checkpoint_dir,
        resume=args.resume,
        fault_profile=args.fault_profile, fault_seed=args.fault_seed,
        max_runtime_seconds=args.max_runtime))
    if args.metrics:
        _print_metrics(counters)
    return 0


def _coerce(text: str):
    for conv in (int, float):
        try:
            return conv(text)
        except ValueError:
            continue
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SEER (SOSP '97) reproduction harness")
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="synthesize a trace")
    _add_machine_arguments(generate)
    generate.add_argument("--output", "-o", required=True)
    generate.set_defaults(handler=cmd_generate)

    stats = commands.add_parser("stats", help="summarize a saved trace")
    stats.add_argument("trace")
    stats.set_defaults(handler=cmd_stats)

    missfree = commands.add_parser("missfree",
                                   help="miss-free hoard-size simulation")
    _add_machine_arguments(missfree)
    missfree.add_argument("--weekly", action="store_true",
                          help="7-day windows instead of 24-hour")
    missfree.add_argument("--investigators", action="store_true")
    missfree.add_argument("--spy", action="store_true",
                          help="include the SPY UTILITY baseline")
    missfree.add_argument("--figure3", action="store_true",
                          help="render the per-window series")
    missfree.add_argument("--metrics", action="store_true",
                          help="print ingestion-pipeline counters "
                               "(references/sec, prunes, evictions, "
                               "cluster-build latency) to stderr")
    missfree.set_defaults(handler=cmd_missfree)

    live = commands.add_parser("live", help="live-usage simulation")
    _add_machine_arguments(live)
    _add_runner_arguments(live)
    _add_fault_arguments(live)
    live.add_argument("--metrics", action="store_true",
                      help="print ingestion-pipeline counters (and, "
                           "with --fault-profile, faults.* injection/"
                           "retry/backoff counters) to stderr")
    live.set_defaults(handler=cmd_live)

    figure2 = commands.add_parser("figure2", help="multi-machine Figure 2")
    figure2.add_argument("--machines", nargs="+", default=["C", "D", "F"],
                         choices=sorted(MACHINES))
    figure2.add_argument("--days", type=float, default=28.0)
    figure2.add_argument("--seed", type=int, default=1)
    figure2.add_argument("--investigators", action="store_true")
    _add_runner_arguments(figure2)
    figure2.add_argument("--metrics", action="store_true",
                         help="print runner and ingestion counters "
                              "(pool utilization, per-machine cost) "
                              "to stderr")
    figure2.set_defaults(handler=cmd_figure2)

    report = commands.add_parser("report",
                                 help="full reproduction report")
    report.add_argument("--machines", nargs="+", default=["C", "D", "F"],
                        choices=sorted(MACHINES))
    report.add_argument("--days", type=float, default=28.0)
    report.add_argument("--seed", type=int, default=1)
    report.add_argument("--json", help="also export summary rows as JSON")
    report.add_argument("--csv", help="also export per-window rows as CSV")
    _add_runner_arguments(report)
    _add_fault_arguments(report)
    report.add_argument("--metrics", action="store_true",
                        help="print runner and ingestion counters to stderr")
    report.set_defaults(handler=cmd_report)

    service = commands.add_parser(
        "service",
        help="run the multi-tenant hoard daemon (docs/service.md)")
    service.add_argument("--host", default="127.0.0.1")
    service.add_argument("--port", type=int, default=7707,
                         help="TCP port to listen on (default 7707; "
                              "0 picks a free port)")
    service.add_argument("--unix-socket", metavar="PATH", default=None,
                         help="listen on a unix socket instead of TCP")
    service.add_argument("--queue-bound", type=int, default=1024,
                         help="per-tenant inbox bound; a full inbox "
                              "backpressures the client's socket "
                              "(default 1024)")
    service.add_argument("--checkpoint-dir", metavar="DIR",
                         help="persist tenant state into DIR through the "
                              "checkpoint state store (docs/state-store.md)")
    service.add_argument("--no-resume", dest="resume", action="store_false",
                         help="ignore existing checkpoints instead of "
                              "restoring tenants from them")
    _add_fault_arguments(service)
    service.add_argument("--max-runtime", type=float, default=None,
                         metavar="SECONDS",
                         help="drain and exit after SECONDS (default: "
                              "serve until SIGINT/SIGTERM)")
    service.add_argument("--metrics", action="store_true",
                         help="print service.* and absorbed per-tenant "
                              "pipeline counters to stderr at shutdown")
    service.set_defaults(handler=cmd_service)

    population = commands.add_parser(
        "population",
        help="fleet-scale synthetic-population study (docs/population.md)")
    population.add_argument(
        "action", nargs="?", default="run",
        choices=("run", "sample", "report"),
        help="'run' (default) runs the grid and renders the report; "
             "'sample' prints the sampled profiles without simulating; "
             "'report' re-renders a report from a --load file")
    population.add_argument("--machines", type=int, default=100, metavar="N",
                            help="synthetic machines to sample (default "
                                 "100)")
    population.add_argument("--seed", type=int, default=7,
                            help="population master seed; every machine "
                                 "is a pure function of (seed, index)")
    population.add_argument("--days", type=float, default=3.0,
                            help="simulated deployment length per machine "
                                 "(default 3; population cost scales "
                                 "linearly with this)")
    population.add_argument("--weekly", action="store_true",
                            help="7-day miss-free windows instead of "
                                 "24-hour")
    population.add_argument("--resamples", type=int, default=1000,
                            help="bootstrap resamples behind the 95%% "
                                 "confidence bands (default 1000)")
    population.add_argument("--bootstrap-seed", type=int, default=0,
                            help="seed of the bootstrap resampling stream "
                                 "(default 0; bands are deterministic for "
                                 "a fixed seed)")
    population.add_argument("--save", metavar="FILE",
                            help="also write the per-machine scorecards "
                                 "as JSON (re-render later with "
                                 "'population report --load FILE')")
    population.add_argument("--load", metavar="FILE",
                            help="scorecard JSON for the 'report' action")
    population.add_argument("--progress", action="store_true",
                            help="print per-cell completion lines to "
                                 "stderr")
    _add_runner_arguments(population)
    _add_fault_arguments(population)
    population.add_argument("--metrics", action="store_true",
                            help="print runner, ingestion and "
                                 "population.* counters to stderr")
    population.set_defaults(handler=cmd_population)

    sweep = commands.add_parser("sweep", help="sweep one SEER parameter")
    _add_machine_arguments(sweep)
    sweep.add_argument(
        "--parameter", required=True, metavar="NAME",
        choices=sorted(field.name
                       for field in dataclasses.fields(SeerParameters)))
    sweep.add_argument("--values", nargs="+", required=True)
    _add_runner_arguments(sweep)
    sweep.set_defaults(handler=cmd_sweep)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
