"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``orient``
    Read an edge list, run the Theorem 1.1 orientation, print (or write) the
    per-edge directions plus a summary.
``color``
    Read an edge list, run the Theorem 1.2 coloring, print (or write) the
    per-vertex colors plus a summary.
``layers``
    Read an edge list, compute the Lemma 3.15 H-partition, print (or write)
    the per-vertex layers plus the decay profile.
``coreness``
    Read an edge list, run the guess-in-parallel coreness decomposition.
``generate``
    Emit an edge list from one of the built-in graph families (useful for
    piping into the other commands or external tools).
``stream``
    Generate a streaming trace (uniform churn / sliding window / densifying
    core), maintain the orientation and coloring incrementally through the
    :class:`~repro.stream.service.StreamingService`, and print per-batch
    maintenance metrics plus a summary.
``stream-multi``
    Generate one trace per tenant (cycling the trace families), multiplex
    the fleet on one :class:`~repro.stream.engine.StreamEngine`, and print
    per-tick aggregate metrics (rounds charged as max-over-tenants) plus a
    per-tenant summary.  ``--policy`` picks the cross-tenant scheduler
    (serve-all / top-k-backlog / deficit-round-robin), ``--round-budget``
    caps each tick's scheduled work, and ``--quota`` puts a per-tenant
    memory cap on every tenant's sub-ledger.  ``--checkpoint-dir`` writes a
    versioned, checksummed snapshot of the drained engine
    (``checkpoint.json``); ``--restore`` rebuilds the engine from that
    snapshot instead of generating a fleet — byte-identically, verified
    against the recorded fingerprint — then drains and verifies as usual.
``experiment``
    Run a registered experiment sweep (E1/E2/E3/S1/S2/S3/S4) through its
    harness runner and print the result table (ASCII, or Markdown with
    ``--markdown``).
``trace-report``
    Summarise a ``--trace`` artifact (Chrome trace-event JSON) as text
    tables: per-span wall-clock totals with ledger deltas, plus the counter
    and histogram snapshots.
``bench-report``
    Render a trend table over the ``BENCH_*.json`` snapshots in a directory
    (latest vs. previous value per metric, per benchmark).

Every command accepts ``--seed`` for reproducibility and ``--output`` to write
the main artifact to a file instead of stdout.  ``orient``, ``color`` and
``experiment`` E1–E3 accept ``--workers N`` — host-side process fan-out of
the Lemma 2.1 orientation parts and Lemma 2.2 coloring parts; results are
identical for any worker count.  The streaming commands and experiments
(``stream``, ``stream-multi``, S1–S4) run in-process, and ``experiment``
rejects ``--workers`` above 1 for them.  ``orient``, ``color``, ``stream``,
``stream-multi`` and ``experiment`` also accept ``--trace out.json``, which
records host-side spans for the run and writes a Perfetto-loadable Chrome
trace (results are identical with tracing on or off).

The compute-heavy commands (``orient``, ``color``, ``layers``, ``stream``,
``stream-multi``, ``experiment``) accept ``--kernels {pure,numpy}`` to pick
the :mod:`repro.kernels` backend for the CSR hot paths; the flag overrides
the ``REPRO_KERNELS`` environment variable, and outputs are byte-identical
under either backend.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Sequence

from repro import kernels
from repro.core.coloring import color
from repro.core.coreness import approximate_coreness, exact_coreness
from repro.core.full_assignment import complete_layer_assignment
from repro.core.orientation import orient
from repro.graph import generators
from repro.graph.arboricity import arboricity_upper_bound
from repro.graph.io import (
    format_coloring,
    format_layering,
    format_orientation,
    read_edge_list,
    write_text,
)
from repro.stream.engine import StreamEngine
from repro.stream.scheduler import POLICIES, make_planner
from repro.stream.service import StreamingService
from repro.stream.workloads import (
    generate_trace,
    multi_tenant_traces,
    stream_family_names,
)

STATIC_EXPERIMENTS = ("E1", "E2", "E3")
RUNNABLE_EXPERIMENTS = (*STATIC_EXPERIMENTS, "S1", "S2", "S3", "S4")


def _emit(content: str, output: str | None) -> None:
    if output:
        write_text(content, output)
    else:
        print(content)


def _positive_int(text: str) -> int:
    """Argparse type for counts that must be at least 1."""
    value = int(text)  # argparse reports a ValueError as "invalid value"
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_workers_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="process workers for the static part fan-out (default 1 = serial; "
        "results are identical for any worker count)",
    )


def _add_kernels_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--kernels",
        choices=sorted(kernels.BACKENDS),
        default=None,
        help="compute-kernel backend (default: the REPRO_KERNELS env var, "
        "else pure python; numpy is vectorized but byte-identical)",
    )


def _add_trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="record host-side spans and write a Chrome trace-event JSON "
        "(Perfetto-loadable) to PATH; results are identical with tracing "
        "on or off",
    )


def _make_tracer(args):
    """A live tracer when ``--trace`` was given, else ``None``."""
    if getattr(args, "trace", None) is None:
        return None
    from repro.obs import Tracer

    return Tracer()


def _export_trace(tracer, args) -> None:
    if tracer is not None:
        tracer.export_chrome(args.trace)


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("graph", help="path to an edge-list file ('u v' per line)")
    parser.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    parser.add_argument("--delta", type=float, default=0.5, help="memory exponent δ (default 0.5)")
    parser.add_argument("--output", help="write the main artifact to this file instead of stdout")
    parser.add_argument(
        "--quiet", action="store_true", help="suppress the human-readable summary on stderr"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Density-dependent orientation and coloring in simulated scalable MPC",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    orient_parser = subparsers.add_parser("orient", help="compute an O(λ log log n) orientation")
    _add_common_arguments(orient_parser)
    _add_workers_argument(orient_parser)
    _add_kernels_argument(orient_parser)
    _add_trace_argument(orient_parser)

    color_parser = subparsers.add_parser("color", help="compute an O(λ log log n) coloring")
    _add_common_arguments(color_parser)
    _add_workers_argument(color_parser)
    _add_kernels_argument(color_parser)
    _add_trace_argument(color_parser)

    layers_parser = subparsers.add_parser("layers", help="compute the Lemma 3.15 H-partition")
    _add_common_arguments(layers_parser)
    layers_parser.add_argument(
        "--k", type=int, default=None, help="arboricity proxy k (default: 2·degeneracy)"
    )
    _add_kernels_argument(layers_parser)

    coreness_parser = subparsers.add_parser("coreness", help="approximate coreness decomposition")
    _add_common_arguments(coreness_parser)
    coreness_parser.add_argument(
        "--epsilon", type=float, default=0.5, help="guess-ladder resolution (default 0.5)"
    )
    coreness_parser.add_argument(
        "--exact", action="store_true", help="also print the exact core numbers for comparison"
    )

    generate_parser = subparsers.add_parser("generate", help="emit an edge list from a built-in family")
    generate_parser.add_argument("family", choices=sorted(generators.family_names()))
    generate_parser.add_argument("num_vertices", type=int)
    generate_parser.add_argument("--seed", type=int, default=0)
    generate_parser.add_argument("--arboricity", type=int, default=4)
    generate_parser.add_argument("--output", help="write the edge list to this file")

    stream_parser = subparsers.add_parser(
        "stream", help="maintain orientation/coloring incrementally over a streaming trace"
    )
    stream_parser.add_argument("family", choices=sorted(stream_family_names()))
    stream_parser.add_argument("num_vertices", type=int)
    stream_parser.add_argument("--batches", type=int, default=10, help="number of update batches")
    stream_parser.add_argument("--batch-size", type=int, default=200, help="updates per batch")
    stream_parser.add_argument("--seed", type=int, default=0)
    stream_parser.add_argument("--delta", type=float, default=0.5, help="memory exponent δ (default 0.5)")
    stream_parser.add_argument(
        "--arboricity", type=int, default=3, help="initial arboricity (uniform_churn only)"
    )
    stream_parser.add_argument(
        "--window", type=int, default=None, help="live-edge window (sliding_window only)"
    )
    stream_parser.add_argument(
        "--core-size", type=int, default=None, help="adversarial core size (densifying_core only)"
    )
    stream_parser.add_argument("--output", help="write the per-batch metrics to this file")
    stream_parser.add_argument(
        "--quiet", action="store_true", help="suppress the human-readable summary on stderr"
    )
    _add_kernels_argument(stream_parser)
    _add_trace_argument(stream_parser)

    multi_parser = subparsers.add_parser(
        "stream-multi", help="multiplex N streaming tenants on one shared engine"
    )
    multi_parser.add_argument(
        "num_vertices",
        type=int,
        nargs="?",
        default=None,
        help="vertices per tenant graph (optional with --smoke, which defaults to 96)",
    )
    multi_parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny CI-sized preset: 96 vertices, 3 tenants, 3 batches of 40 "
        "updates (explicit flags still win)",
    )
    multi_parser.add_argument(
        "--tenants", type=int, default=None, help="number of tenants (default 4; 3 with --smoke)"
    )
    multi_parser.add_argument(
        "--batches", type=int, default=None, help="batches per tenant (default 6; 3 with --smoke)"
    )
    multi_parser.add_argument(
        "--batch-size",
        type=int,
        default=None,
        help="updates per batch (default 120; 40 with --smoke)",
    )
    multi_parser.add_argument("--seed", type=int, default=0)
    multi_parser.add_argument(
        "--delta", type=float, default=0.5, help="memory exponent δ (default 0.5)"
    )
    multi_parser.add_argument(
        "--policy",
        choices=POLICIES,
        default="serve-all",
        help="cross-tenant scheduling policy (default serve-all)",
    )
    multi_parser.add_argument(
        "--round-budget",
        type=int,
        default=None,
        help="per-tick round budget for scheduled work (default: unbounded)",
    )
    multi_parser.add_argument(
        "--topk",
        type=int,
        default=3,
        help="K for --policy top-k-backlog (default 3)",
    )
    multi_parser.add_argument(
        "--quantum",
        type=int,
        default=4,
        help="per-tick round credit for --policy deficit-round-robin (default 4)",
    )
    multi_parser.add_argument(
        "--quota",
        type=int,
        default=None,
        help="per-tenant memory quota in words (default: uncapped)",
    )
    multi_parser.add_argument("--output", help="write the per-tick metrics to this file")
    multi_parser.add_argument(
        "--quiet", action="store_true", help="suppress the human-readable summary on stderr"
    )
    multi_parser.add_argument(
        "--checkpoint-dir",
        help="write a checkpoint.json snapshot of the drained engine into this "
        "directory (created if missing); with --restore, read it from there",
    )
    multi_parser.add_argument(
        "--restore",
        action="store_true",
        help="restore the engine from --checkpoint-dir instead of generating a "
        "fleet, then drain and verify (the snapshot fingerprint is re-verified)",
    )
    _add_kernels_argument(multi_parser)
    _add_trace_argument(multi_parser)

    experiment_parser = subparsers.add_parser(
        "experiment", help="run a registered experiment sweep and print its table"
    )
    experiment_parser.add_argument(
        "experiment_id",
        choices=sorted(RUNNABLE_EXPERIMENTS),
        help="experiment to run (experiments with bespoke benchmarks run via benchmarks/)",
    )
    experiment_parser.add_argument("--seed", type=int, default=0)
    experiment_parser.add_argument(
        "--delta", type=float, default=0.5, help="memory exponent δ (default 0.5)"
    )
    experiment_parser.add_argument(
        "--markdown", action="store_true", help="emit the table as Markdown instead of ASCII"
    )
    experiment_parser.add_argument("--output", help="write the table to this file")
    experiment_parser.add_argument(
        "--quiet", action="store_true", help="suppress the human-readable summary on stderr"
    )
    _add_workers_argument(experiment_parser)
    _add_kernels_argument(experiment_parser)
    _add_trace_argument(experiment_parser)

    trace_report_parser = subparsers.add_parser(
        "trace-report", help="summarise a --trace artifact as text tables"
    )
    trace_report_parser.add_argument(
        "trace", help="path to a Chrome trace-event JSON written by --trace"
    )
    trace_report_parser.add_argument(
        "--markdown", action="store_true", help="emit the tables as Markdown instead of ASCII"
    )
    trace_report_parser.add_argument("--output", help="write the tables to this file")

    bench_report_parser = subparsers.add_parser(
        "bench-report", help="trend table over BENCH_*.json benchmark snapshots"
    )
    bench_report_parser.add_argument(
        "directory",
        nargs="?",
        default="benchmarks",
        help="directory holding BENCH_*.json snapshots (default: benchmarks)",
    )
    bench_report_parser.add_argument(
        "--markdown", action="store_true", help="emit the tables as Markdown instead of ASCII"
    )
    bench_report_parser.add_argument("--output", help="write the tables to this file")
    return parser


def _summary(lines: list[str], quiet: bool) -> None:
    if quiet:
        return
    for line in lines:
        print(line, file=sys.stderr)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # Select the kernel backend for the whole run; ``None`` (flag absent or
    # command without the flag) defers to REPRO_KERNELS, then pure.
    kernels.set_backend(getattr(args, "kernels", None))

    if args.command == "generate":
        kwargs = {}
        if args.family == "union_forests":
            kwargs["arboricity"] = args.arboricity
        graph = generators.generate(args.family, args.num_vertices, seed=args.seed, **kwargs)
        lines = [f"# vertices {graph.num_vertices}"]
        lines.extend(f"{u} {v}" for u, v in graph.edges)
        _emit("\n".join(lines), args.output)
        return 0

    if args.command == "stream":
        params: dict[str, object] = {
            "num_batches": args.batches,
            "batch_size": args.batch_size,
        }
        if args.family == "uniform_churn":
            params["arboricity"] = args.arboricity
        if args.family == "sliding_window" and args.window is not None:
            params["window"] = args.window
        if args.family == "densifying_core":
            # Default core: 32 vertices, clamped so tiny graphs still work.
            params["core_size"] = (
                args.core_size
                if args.core_size is not None
                else max(2, min(32, args.num_vertices))
            )
        trace = generate_trace(args.family, args.num_vertices, seed=args.seed, **params)
        tracer = _make_tracer(args)
        service = StreamingService(
            trace.initial, delta=args.delta, seed=args.seed, tracer=tracer
        )
        header = (
            "batch inserts deletes flips recolors rebuilds compactions "
            "rounds m max_outdegree colors"
        )
        lines = [f"# {header}"]
        for batch in trace.batches:
            report = service.apply(batch)
            lines.append(
                f"{report.batch_index} {report.num_inserts} {report.num_deletes} "
                f"{report.flips} {report.recolors} {report.rebuilds} "
                f"{report.compactions} {report.rounds} {report.num_edges} "
                f"{report.max_outdegree} {report.num_colors}"
            )
        service.verify()
        _export_trace(tracer, args)
        _emit("\n".join(lines), args.output)
        summary = service.summary
        final = summary.final_report()
        _summary(
            [
                f"n={trace.initial.num_vertices} initial_m={trace.initial.num_edges} "
                f"final_m={final.num_edges}",
                f"updates: {summary.total_updates} in {summary.num_batches} batches",
                f"flips: {summary.total_flips} ({summary.amortised_flips:.3f}/update), "
                f"recolors: {summary.total_recolors}, rebuilds: {summary.total_rebuilds}, "
                f"compactions: {summary.total_compactions}",
                f"final max outdegree: {final.max_outdegree} (cap {final.outdegree_cap})",
                f"final colors: {final.num_colors}",
                f"simulated MPC rounds: {service.cluster.stats.num_rounds}",
            ],
            args.quiet,
        )
        return 0

    if args.command == "stream-multi":
        if args.restore and not args.checkpoint_dir:
            parser.error("stream-multi: --restore requires --checkpoint-dir")
        checkpoint_path = (
            os.path.join(args.checkpoint_dir, "checkpoint.json")
            if args.checkpoint_dir
            else None
        )
        tracer = _make_tracer(args)
        if args.restore:
            engine = StreamEngine.restore(checkpoint_path, tracer=tracer)
            traces = []
        else:
            if args.num_vertices is None:
                if not args.smoke:
                    parser.error(
                        "stream-multi: num_vertices is required unless --smoke is given"
                    )
                args.num_vertices = 96
            num_tenants = args.tenants if args.tenants is not None else (3 if args.smoke else 4)
            num_batches = args.batches if args.batches is not None else (3 if args.smoke else 6)
            batch_size = args.batch_size if args.batch_size is not None else (40 if args.smoke else 120)
            traces = multi_tenant_traces(
                num_tenants=num_tenants,
                num_vertices=args.num_vertices,
                num_batches=num_batches,
                batch_size=batch_size,
                seed=args.seed,
            )
            policy_options = {}
            if args.policy == "top-k-backlog":
                policy_options["k"] = args.topk
            if args.policy == "deficit-round-robin":
                policy_options["quantum"] = args.quantum
            planner = make_planner(args.policy, **policy_options)
            engine = StreamEngine(
                delta=args.delta,
                seed=args.seed,
                planner=planner,
                round_budget=args.round_budget,
                tracer=tracer,
            )
        with engine:
            for trace in traces:
                engine.add_tenant(trace.name, trace.initial, memory_quota=args.quota)
                engine.submit_all(trace.name, trace.batches)
            num_tenants = len(engine.tenant_names())
            summary = engine.run_until_drained()
            engine.verify()
            header = (
                "tick served deferred backlog inserts deletes flips rebuilds "
                "rounds rounds_sequential m max_outdegree colors"
            )
            lines = [f"# {header}"]
            for tick, report in zip(engine.ticks, summary.reports):
                lines.append(
                    f"{tick.tick_index} {tick.num_tenants_served} "
                    f"{tick.num_tenants_deferred} {tick.backlog_updates} "
                    f"{report.num_inserts} {report.num_deletes} {report.flips} "
                    f"{report.rebuilds} {tick.rounds} {tick.sequential_rounds} "
                    f"{report.num_edges} {report.max_outdegree} {report.num_colors}"
                )
            _emit("\n".join(lines), args.output)
            saved = None
            if checkpoint_path is not None:
                os.makedirs(args.checkpoint_dir, exist_ok=True)
                saved = engine.checkpoint(checkpoint_path)
            parallel_rounds = summary.total_rounds
            sequential_rounds = sum(tick.sequential_rounds for tick in engine.ticks)
            budget = "unbounded" if engine.round_budget is None else engine.round_budget
            fleet_line = (
                f"tenants: {num_tenants} (restored from {checkpoint_path})"
                if args.restore
                else f"tenants: {num_tenants} (n={args.num_vertices} each)"
            )
            tenant_lines = [
                f"  {name}: updates={engine.tenant_summary(name).total_updates} "
                f"flips={engine.tenant_summary(name).total_flips} "
                f"rebuilds={engine.tenant_summary(name).total_rebuilds} "
                f"rounds={engine.tenant_summary(name).total_rounds}"
                for name in engine.tenant_names()
            ]
            _summary(
                [
                    f"{fleet_line}, "
                    f"ticks: {len(engine.ticks)}, updates: {summary.total_updates}",
                    f"policy: {engine.planner.name}, round budget: {budget}, "
                    f"served: {summary.total_served}, deferred: {summary.total_deferred}, "
                    f"max backlog: {summary.max_backlog_updates} updates",
                    *tenant_lines,
                    f"tick rounds: {parallel_rounds} parallel (max-over-tenants) vs "
                    f"{sequential_rounds} sequential "
                    f"({sequential_rounds / max(parallel_rounds, 1):.2f}x saved)",
                    f"shared-ledger rounds incl. tenant builds: "
                    f"{engine.cluster.stats.num_rounds}",
                    *(
                        [f"checkpoint: {checkpoint_path} fingerprint {saved['fingerprint']}"]
                        if saved is not None
                        else []
                    ),
                ],
                args.quiet,
            )
        _export_trace(tracer, args)
        return 0

    if args.command == "experiment":
        from repro.analysis.reporting import Table
        from repro.experiments.registry import get_experiment, get_runner

        static = args.experiment_id in STATIC_EXPERIMENTS
        if args.workers > 1 and not static:
            parser.error(
                f"experiment {args.experiment_id}: --workers applies to "
                f"{'/'.join(STATIC_EXPERIMENTS)} only; streaming experiments run in-process"
            )
        spec = get_experiment(args.experiment_id)
        runner = get_runner(args.experiment_id)
        tracer = _make_tracer(args)
        table = Table(title=f"{spec.experiment_id}: {spec.claim}", columns=list(spec.columns))
        extra = {"workers": args.workers} if static else {}
        for workload in spec.workloads:
            row = runner(workload, delta=args.delta, seed=args.seed, tracer=tracer, **extra)
            table.add_row(row.as_dict())
        _export_trace(tracer, args)
        _emit(table.to_markdown() if args.markdown else table.to_ascii(), args.output)
        _summary(
            [
                f"experiment {spec.experiment_id}: {len(spec.workloads)} workloads, "
                f"workers={args.workers}",
                f"claim: {spec.claim}",
            ],
            args.quiet,
        )
        return 0

    if args.command == "trace-report":
        from repro.obs.report import trace_report_tables

        tables = trace_report_tables(args.trace)
        rendered = "\n\n".join(
            table.to_markdown() if args.markdown else table.to_ascii() for table in tables
        )
        _emit(rendered, args.output)
        return 0

    if args.command == "bench-report":
        from repro.obs.report import bench_trend_tables

        tables = bench_trend_tables(args.directory)
        if not tables:
            print(f"no benchmark snapshots under {args.directory}", file=sys.stderr)
            return 1
        rendered = "\n\n".join(
            table.to_markdown() if args.markdown else table.to_ascii() for table in tables
        )
        _emit(rendered, args.output)
        return 0

    graph = read_edge_list(args.graph)

    if args.command == "orient":
        tracer = _make_tracer(args)
        run = orient(graph, delta=args.delta, seed=args.seed, workers=args.workers, tracer=tracer)
        _export_trace(tracer, args)
        _emit(format_orientation(run.orientation), args.output)
        _summary(
            [
                f"n={graph.num_vertices} m={graph.num_edges}",
                f"max outdegree: {run.max_outdegree}",
                f"simulated MPC rounds: {run.rounds}",
                f"edge partitioning used: {run.used_edge_partitioning}",
            ],
            args.quiet,
        )
        return 0

    if args.command == "color":
        tracer = _make_tracer(args)
        run = color(graph, delta=args.delta, seed=args.seed, workers=args.workers, tracer=tracer)
        _export_trace(tracer, args)
        _emit(format_coloring(run.coloring), args.output)
        _summary(
            [
                f"n={graph.num_vertices} m={graph.num_edges}",
                f"colors used: {run.num_colors} (palette {run.palette_size})",
                f"proper: {run.coloring.is_proper()}",
                f"simulated MPC rounds: {run.rounds}",
            ],
            args.quiet,
        )
        return 0

    if args.command == "layers":
        k = args.k if args.k is not None else max(2, 2 * arboricity_upper_bound(graph))
        run = complete_layer_assignment(graph, k=k, delta=args.delta)
        partition = run.to_hpartition()
        _emit(format_layering(partition), args.output)
        _summary(
            [
                f"n={graph.num_vertices} m={graph.num_edges} k={k}",
                f"layers: {partition.num_layers}",
                f"max out-degree: {partition.max_out_degree()} (bound {run.out_degree_bound})",
                f"layer sizes: {partition.layer_sizes()}",
            ],
            args.quiet,
        )
        return 0

    if args.command == "coreness":
        result = approximate_coreness(graph, epsilon=args.epsilon, delta=args.delta)
        lines = [f"{v} {result.estimates[v]}" for v in graph.vertices]
        _emit("\n".join(lines), args.output)
        summary = [
            f"n={graph.num_vertices} m={graph.num_edges}",
            f"guesses: {result.guesses}",
            f"max estimate: {result.max_estimate()}",
            f"simulated MPC rounds: {result.rounds}",
        ]
        if args.exact:
            exact = exact_coreness(graph)
            worst = max(
                (result.estimates[v] / max(exact[v], 1) for v in graph.vertices), default=0.0
            )
            summary.append(f"max estimate / exact core ratio: {worst:.2f}")
        _summary(summary, args.quiet)
        return 0

    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    raise SystemExit(main())
