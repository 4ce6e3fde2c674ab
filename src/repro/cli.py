"""Command-line interface.

Examples::

    repro-skyline run --plan ZDG+ZS+ZM --dist anticorrelated -n 20000 -d 5
    repro-skyline experiment fig7a
    repro-skyline experiment all --csv-dir results/
    repro-skyline list

(Equivalently ``python -m repro.cli ...``.)
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, Optional

from repro.bench import experiments
from repro.bench.harness import BenchScale, ResultTable, run_plan_measured
from repro.data.synthetic import generate

#: experiment name -> zero-config callable returning a ResultTable
EXPERIMENTS: Dict[str, Callable[[], ResultTable]] = {
    "fig7a": lambda: experiments.fig7_size_sweep("independent"),
    "fig7b": lambda: experiments.fig7_size_sweep("anticorrelated"),
    "fig7c": lambda: experiments.fig7_dims_sweep("independent"),
    "fig7d": lambda: experiments.fig7_dims_sweep("anticorrelated"),
    "fig8a": lambda: experiments.fig8_merge_size_sweep("independent"),
    "fig8b": lambda: experiments.fig8_merge_size_sweep("anticorrelated"),
    "fig8c": lambda: experiments.fig8_merge_dims_sweep("independent"),
    "fig8d": lambda: experiments.fig8_merge_dims_sweep("anticorrelated"),
    "fig9": lambda: experiments.fig9_candidates("independent"),
    "fig9-anti": lambda: experiments.fig9_candidates("anticorrelated"),
    "fig10": lambda: experiments.fig10_partition_count_sweep(),
    "fig11": lambda: experiments.fig11_realworld(),
    "fig12": lambda: experiments.fig12_scalability(),
    "fig13": lambda: experiments.fig13_sampling(),
    "load-balance": lambda: experiments.load_balance_metrics(),
    "pruning": lambda: experiments.pruning_analysis(),
    "worker-scaling": lambda: experiments.worker_scaling(),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-skyline",
        description=(
            "Parallel skyline query processing (ICDE 2019 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one plan on a synthetic dataset")
    run.add_argument("--plan", default="ZDG+ZS+ZM")
    run.add_argument(
        "--dist",
        default="independent",
        choices=["independent", "correlated", "anticorrelated"],
    )
    run.add_argument("-n", "--num-points", type=int, default=20_000)
    run.add_argument("-d", "--dimensions", type=int, default=5)
    run.add_argument("--groups", type=int, default=32)
    run.add_argument("--workers", type=int, default=8)
    run.add_argument("--sample-ratio", type=float, default=0.02)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--executor",
        default="simulated",
        choices=["simulated", "threaded", "procpool"],
        help=(
            "task executor (threaded = thread-per-worker, "
            "procpool = process-per-worker multicore)"
        ),
    )
    run.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help=(
            "deterministic fault injection, e.g. "
            "'seed=7,task=0.1,crash=0.2,corrupt=0.05,attempts=5'"
        ),
    )
    run.add_argument(
        "--splits", type=int, default=None, metavar="N",
        help="number of input splits (default: 2x workers)",
    )
    run.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="persist each completed stage to DIR (supervised run)",
    )
    run.add_argument(
        "--resume", action="store_true",
        help="resume from the last durable stage in --checkpoint-dir",
    )
    run.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="whole-run wall-clock budget (supervised run)",
    )
    run.add_argument(
        "--degraded-ok", action="store_true",
        help=(
            "return a partial, certified-subset skyline instead of "
            "failing when phase-1 groups are terminally lost"
        ),
    )
    run.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="export the run's span trace as JSONL (enables tracing)",
    )
    run.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="export unified metrics (counters/timers/histograms) as JSONL",
    )

    exp = sub.add_parser(
        "experiment", help="regenerate a paper figure's rows"
    )
    exp.add_argument(
        "name", choices=sorted(EXPERIMENTS) + ["all"],
        help="experiment id (figure) or 'all'",
    )
    exp.add_argument(
        "--csv-dir", default=None, help="also write each table as CSV here"
    )

    analyze = sub.add_parser(
        "analyze", help="profile a workload and recommend a plan"
    )
    analyze.add_argument(
        "--dist",
        default="independent",
        choices=["independent", "correlated", "anticorrelated"],
    )
    analyze.add_argument("-n", "--num-points", type=int, default=5_000)
    analyze.add_argument("-d", "--dimensions", type=int, default=5)
    analyze.add_argument("--csv", default=None,
                         help="analyze a CSV dataset instead")
    analyze.add_argument("--workers", type=int, default=8)
    analyze.add_argument("--seed", type=int, default=0)

    estimate = sub.add_parser(
        "estimate", help="estimate skyline cardinality without computing it"
    )
    estimate.add_argument(
        "--dist",
        default="independent",
        choices=["independent", "correlated", "anticorrelated"],
    )
    estimate.add_argument("-n", "--num-points", type=int, default=20_000)
    estimate.add_argument("-d", "--dimensions", type=int, default=5)
    estimate.add_argument("--sample-ratio", type=float, default=0.05)
    estimate.add_argument("--seed", type=int, default=0)

    cmp_parser = sub.add_parser(
        "compare", help="run every strategy on one dataset"
    )
    cmp_parser.add_argument(
        "--dist",
        default="independent",
        choices=["independent", "correlated", "anticorrelated"],
    )
    cmp_parser.add_argument("-n", "--num-points", type=int, default=10_000)
    cmp_parser.add_argument("-d", "--dimensions", type=int, default=6)
    cmp_parser.add_argument("--groups", type=int, default=32)
    cmp_parser.add_argument("--workers", type=int, default=8)
    cmp_parser.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve-bench",
        help="replay a seeded mixed workload against the serving layer",
    )
    serve.add_argument(
        "--dist",
        default="independent",
        choices=["independent", "correlated", "anticorrelated"],
    )
    serve.add_argument("-n", "--num-points", type=int, default=5_000)
    serve.add_argument("-d", "--dimensions", type=int, default=5)
    serve.add_argument("--bits", type=int, default=12,
                       help="grid bits per dimension")
    serve.add_argument("--ops", type=int, default=500,
                       help="operations to replay")
    serve.add_argument("--read-fraction", type=float, default=0.9)
    serve.add_argument("--query-pool", type=int, default=8,
                       help="distinct read queries in rotation")
    serve.add_argument("--batch-size", type=int, default=8,
                       help="points per insert/delete batch")
    serve.add_argument("--workers", type=int, default=4,
                       help="read-query worker threads")
    serve.add_argument("--cache-size", type=int, default=512,
                       help="result-cache entries (0 disables caching)")
    serve.add_argument("--max-deletes", type=int, default=None,
                       help="drift policy: rebuild after this many deletes")
    serve.add_argument("--timeout", type=float, default=None,
                       metavar="SECONDS", help="per-request deadline")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="seeded chaos injection, e.g. "
             "'seed=7,worker=0.05,writer=0.1,cache=0.1,delay=0.05' "
             "(keys: seed, worker, writer, cache, delay, delaysec, "
             "requeues)",
    )
    serve.add_argument(
        "--shards", type=int, default=0, metavar="N",
        help="serve through a sharded scatter-gather router with N "
             "Z-range shards (0 = single service)",
    )
    serve.add_argument(
        "--shard-faults", default=None, metavar="SPEC",
        help="shard-level chaos, merged into --faults, e.g. "
             "'seed=7,crashshard=2:40,shardslow=0.05,heartbeat=0.1' "
             "(keys: crashshard=SID:OP, terminal=SID+SID, shard, "
             "shardslow, shardslowsec, heartbeat)",
    )
    serve.add_argument(
        "--hedge-after-ms", type=float, default=50.0, metavar="MS",
        help="duplicate a shard sub-query not answered within this "
             "many milliseconds (0 disables hedging)",
    )
    serve.add_argument(
        "--heartbeat-every", type=int, default=0, metavar="OPS",
        help="router heartbeat round every OPS operations (0 = off)",
    )
    serve.add_argument(
        "--min-availability", type=float, default=None, metavar="FRAC",
        help="fail (exit 1) when workload availability drops below "
             "this fraction",
    )
    serve.add_argument(
        "--max-read-p99-ms", type=float, default=None, metavar="MS",
        help="fail (exit 1) when read p99 latency exceeds this",
    )
    serve.add_argument(
        "--durability-dir", default=None, metavar="DIR",
        help="WAL + checkpoint directory (enables crash recovery; "
             "defaults to a temp dir when --faults injects writer "
             "crashes)",
    )
    serve.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="attempts per operation (1 = no retries); retryable "
             "failures back off with seeded deterministic jitter",
    )
    serve.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="export per-request span trace as JSONL",
    )
    serve.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="export serving metrics (counters/histograms) as JSONL",
    )

    stream = sub.add_parser(
        "stream-bench",
        help="drive CDC ingest through the streaming layer and measure "
             "publish->notify latency under concurrent cached reads",
    )
    stream.add_argument(
        "--dist",
        default="independent",
        choices=["independent", "correlated", "anticorrelated"],
    )
    stream.add_argument("-n", "--num-points", type=int, default=2_000,
                        help="points registered before the stream starts")
    stream.add_argument("-d", "--dimensions", type=int, default=5)
    stream.add_argument("--bits", type=int, default=12,
                        help="grid bits per dimension")
    stream.add_argument("--records", type=int, default=5_000,
                        help="stream records to ingest")
    stream.add_argument("--batch-size", type=int, default=64,
                        help="records per CDC mutation batch")
    stream.add_argument(
        "--window", type=int, default=0, metavar="N",
        help="count window: feed-expire all but the last N ingested "
             "records (0 = unbounded)",
    )
    stream.add_argument(
        "--subscribers", type=int, default=2,
        help="diff subscribers consuming on their own threads",
    )
    stream.add_argument(
        "--slow-subscribers", type=int, default=1,
        help="additional never-draining subscribers (max_pending=1) "
             "exercising coalescing",
    )
    stream.add_argument(
        "--readers", type=int, default=2,
        help="threads issuing cached skyline reads concurrently",
    )
    stream.add_argument(
        "--on-overload", default="block", choices=["shed", "block"],
        help="feed backpressure mode when admission sheds",
    )
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument(
        "--min-ingest-per-sec", type=float, default=None, metavar="RPS",
        help="fail (exit 1) when sustained ingest drops below this "
             "many records/s",
    )
    stream.add_argument(
        "--max-p99-notify-ms", type=float, default=None, metavar="MS",
        help="fail (exit 1) when p99 publish->notify latency exceeds "
             "this",
    )
    stream.add_argument(
        "--latency-out", default=None, metavar="FILE",
        help="export per-notification latency samples as JSONL",
    )
    stream.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="export streaming metrics (counters/histograms) as JSONL",
    )

    reproduce = sub.add_parser(
        "reproduce",
        help="run all claim checks and write a reproduction report",
    )
    reproduce.add_argument(
        "--out", default="REPRODUCTION_REPORT.md",
        help="markdown report path",
    )

    sub.add_parser("list", help="list available experiments")
    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.core.exceptions import (
        ConfigurationError,
        DeadlineExceededError,
        FaultInjectionError,
    )
    from repro.mapreduce.faults import FaultPlan
    from repro.pipeline.supervisor import (
        PartialRunReport,
        SupervisorConfig,
        supervised_run,
    )

    try:
        fault_plan = (
            FaultPlan.parse(args.faults) if args.faults is not None else None
        )
    except ConfigurationError as exc:
        print(f"error: invalid --faults spec: {exc}", file=sys.stderr)
        return 2
    if args.resume and not args.checkpoint_dir:
        print("error: --resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    dataset = generate(
        args.dist, args.num_points, args.dimensions, seed=args.seed
    )
    run_kwargs = dict(
        num_groups=args.groups,
        num_workers=args.workers,
        sample_ratio=args.sample_ratio,
        seed=args.seed,
        executor=args.executor,
        fault_plan=fault_plan,
        num_input_splits=args.splits,
        trace_out=args.trace_out,
        metrics_out=args.metrics_out,
    )
    supervised = (
        args.checkpoint_dir is not None
        or args.deadline is not None
        or args.degraded_ok
    )
    try:
        if supervised:
            report = supervised_run(
                args.plan,
                dataset,
                supervisor=SupervisorConfig(
                    checkpoint_dir=args.checkpoint_dir,
                    resume=args.resume,
                    deadline_seconds=args.deadline,
                    degraded_ok=args.degraded_ok,
                ),
                **run_kwargs,
            )
        else:
            report = run_plan_measured(args.plan, dataset, **run_kwargs)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DeadlineExceededError, FaultInjectionError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        if args.checkpoint_dir:
            print(
                f"completed stages are durable in "
                f"{args.checkpoint_dir!r}; rerun with --resume to "
                "continue from there",
                file=sys.stderr,
            )
        return 1
    print(f"dataset   : {dataset.name}")
    for key, value in report.summary().items():
        print(f"{key:14s}: {value}")
    if fault_plan is not None:
        print(f"faults    : {fault_plan.describe()}")
    for label, path in (
        ("trace", report.details.get("trace_out")),
        ("metrics", report.details.get("metrics_out")),
    ):
        if path:
            print(f"{label:10s}: wrote {path}")
    resumed = report.details.get("resumed_stages") or []
    if resumed:
        print(f"resumed   : {', '.join(resumed)}")
    quarantined = report.details.get("input", {}).get(
        "quarantined_records", 0
    )
    if quarantined:
        print(f"quarantined: {quarantined} malformed input records")
    if isinstance(report, PartialRunReport):
        detail = report.completeness_detail
        print(
            "DEGRADED  : partial skyline "
            f"(completeness {report.completeness:.2f}, "
            f"candidate coverage "
            f"{detail.get('candidate_coverage', 0.0):.2f})"
        )
        print(
            f"  lost groups {detail.get('groups_lost')} may still "
            "hide skyline points; "
            f"{report.masked_candidates} uncertain candidates masked"
        )
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    names = sorted(EXPERIMENTS) if args.name == "all" else [args.name]
    for name in names:
        table = EXPERIMENTS[name]()
        print(table.render())
        print()
        if args.csv_dir:
            os.makedirs(args.csv_dir, exist_ok=True)
            table.to_csv(os.path.join(args.csv_dir, f"{name}.csv"))
    return 0


def _cmd_list() -> int:
    scale = BenchScale.from_env()
    print(f"bench scale factor: {scale.factor} (REPRO_BENCH_SCALE)")
    for name in sorted(EXPERIMENTS):
        print(f"  {name}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.analysis import workload_profile
    from repro.pipeline.advisor import advise

    if args.csv:
        from repro.data.io import load_csv

        dataset = load_csv(args.csv)
    else:
        dataset = generate(
            args.dist, args.num_points, args.dimensions, seed=args.seed
        )
    print(f"dataset: {dataset.name}")
    for key, value in workload_profile(dataset).items():
        print(f"  {key:26s}: {value:.4f}")
    advice = advise(dataset, num_workers=args.workers, seed=args.seed)
    print(f"\nrecommended plan : {advice.plan_string()}")
    print(f"recommended groups: {advice.num_groups}")
    for line in advice.rationale:
        print(f"  - {line}")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    from repro.analysis.cardinality import (
        capture_recapture_estimate,
        harmonic_estimate,
        sample_scaling_estimate,
    )

    dataset = generate(
        args.dist, args.num_points, args.dimensions, seed=args.seed
    )
    print(f"dataset: {dataset.name}")
    print(
        f"  independence formula : "
        f"{harmonic_estimate(dataset.size, dataset.dimensions):.0f}"
    )
    print(
        f"  sample scaling       : "
        f"{sample_scaling_estimate(dataset, args.sample_ratio, args.seed):.0f}"
    )
    print(
        f"  capture-recapture    : "
        f"{capture_recapture_estimate(dataset, min(args.sample_ratio, 0.5), args.seed):.0f}"
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.pipeline.compare import compare_plans

    dataset = generate(
        args.dist, args.num_points, args.dimensions, seed=args.seed
    )
    table = compare_plans(
        dataset,
        num_groups=args.groups,
        num_workers=args.workers,
        seed=args.seed,
    )
    print(table.render())
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    import tempfile

    from repro.observability.metrics import MetricsRegistry
    from repro.observability.tracer import NULL_TRACER, Tracer
    from repro.serving import (
        AdmissionConfig,
        DatasetRegistry,
        DriftPolicy,
        RouterConfig,
        ServiceConfig,
        ServingFaultPlan,
        ShardedSkylineService,
        SkylineService,
        WorkloadSpec,
        replay_workload,
    )

    from repro.core.exceptions import ReproError

    dataset = generate(
        args.dist, args.num_points, args.dimensions, seed=args.seed
    )
    metrics = MetricsRegistry()
    tracer = Tracer() if args.trace_out else NULL_TRACER
    scratch: Optional[tempfile.TemporaryDirectory] = None
    try:
        fault_spec = ",".join(
            spec for spec in (args.faults, args.shard_faults) if spec
        )
        plan = ServingFaultPlan.parse(fault_spec) if fault_spec else None
        durability_dir = args.durability_dir
        if durability_dir is None and plan is not None and (
            plan.writer_crash_rate > 0 or plan.any_shard_faults
        ):
            # Injected writer/shard crashes need a durable home to
            # recover from; keep the artefacts out of the caller's cwd.
            scratch = tempfile.TemporaryDirectory(prefix="repro-wal-")
            durability_dir = scratch.name
        drift = DriftPolicy.bounded(max_deletes=args.max_deletes)
        config = ServiceConfig(
            admission=AdmissionConfig(read_concurrency=args.workers),
            cache_entries=args.cache_size,
            fault_plan=plan,
        )
        if args.shards > 0:
            service_cm = ShardedSkylineService.from_dataset(
                "bench",
                dataset,
                bits_per_dim=args.bits,
                config=RouterConfig(
                    num_shards=args.shards,
                    hedge_after_seconds=args.hedge_after_ms / 1e3,
                    heartbeat_every_ops=args.heartbeat_every,
                    service_config=config,
                ),
                metrics=metrics,
                durability_dir=durability_dir,
                fault_plan=plan,
                drift=drift,
                tracer=tracer,
            )
        else:
            registry = DatasetRegistry(
                metrics=metrics,
                durability_dir=durability_dir,
                fault_plan=plan,
            )
            registry.register_dataset(
                "bench", dataset, bits_per_dim=args.bits, drift=drift,
            )
            service_cm = SkylineService(
                registry, config=config, metrics=metrics, tracer=tracer
            )
        spec = WorkloadSpec(
            dataset="bench",
            operations=args.ops,
            read_fraction=args.read_fraction,
            query_pool=args.query_pool,
            batch_size=args.batch_size,
            seed=args.seed,
            timeout_seconds=args.timeout,
            retry_attempts=args.retries,
        )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if plan is not None:
        print(f"faults    : {plan.describe()}")
    if args.shards > 0:
        print(f"shards    : {service_cm.num_shards}")
    router_stats: Optional[dict] = None
    try:
        with service_cm as service:
            report = replay_workload(service, spec)
            if args.shards > 0:
                stats = {}
                shard_states = service.shard_states()
                router_stats = service.stats()
            else:
                stats = service.admission.stats()
                shard_states = None
    finally:
        if scratch is not None:
            scratch.cleanup()
    print(f"dataset   : {dataset.name}")
    summary = report.summary()
    for key in (
        "operations", "reads", "writes", "shed", "expired",
        "cache_hits", "final_version", "final_skyline_size",
    ):
        print(f"{key:20s}: {summary[key]}")
    print(f"{'cache_hit_rate':20s}: {summary['cache_hit_rate']:.3f}")
    print(
        f"{'drift_rebuilds':20s}: "
        f"{metrics.counter('serving', 'drift_rebuilds')}"
    )
    if plan is not None or args.retries > 1:
        print(f"{'availability':20s}: {report.availability:.4f}")
        print(f"{'retries':20s}: {report.retries}")
        print(
            f"{'degraded':20s}: stale={report.degraded_stale} "
            f"partial={report.degraded_partial}"
        )
        if report.failures:
            parts = ", ".join(
                f"{name}={count}"
                for name, count in sorted(report.failures.items())
            )
            print(f"{'failures':20s}: {parts}")
        for counter in (
            "worker_crashes", "worker_respawns", "requeued",
            "writer_crashes", "writer_auto_recoveries",
            "cache_corrupt", "shard_crashes", "shard_failovers",
            "shard_failover_identical", "shard_failover_divergent",
            "shard_queries_partial", "hedged_subqueries", "hedge_wins",
            "heartbeat_lost", "mutations_rejected_shard_down",
        ):
            value = metrics.counter("serving", counter)
            if value:
                print(f"{counter:20s}: {value}")
    print(f"{'elapsed_seconds':20s}: {report.elapsed_seconds:.3f}")
    print(f"{'throughput_ops/s':20s}: {report.throughput:.1f}")
    for which in ("read", "write"):
        pct = report.latency_percentiles(which)
        print(
            f"{which + '_latency_ms':20s}: "
            f"p50={pct['p50'] * 1e3:.2f} p90={pct['p90'] * 1e3:.2f} "
            f"p99={pct['p99'] * 1e3:.2f}"
        )
    wait = report.queue_wait_percentiles()
    print(
        f"{'queue_wait_ms':20s}: "
        f"p50={wait['p50'] * 1e3:.2f} p90={wait['p90'] * 1e3:.2f} "
        f"p99={wait['p99'] * 1e3:.2f}"
    )
    for klass, s in stats.items():
        print(
            f"{klass + ' admission':20s}: {s['admitted']} admitted, "
            f"{s['rejected']} rejected, {s['expired']} expired"
        )
    if shard_states is not None:
        for sid, state in sorted(shard_states.items()):
            print(
                f"{'shard ' + str(sid):20s}: "
                f"{'down' if state['down'] else 'up'} "
                f"breaker={state['breaker']} "
                f"failovers={state['failovers']} "
                f"identical={state['last_failover_identical']}"
            )
        if report.shard_shed_ratios:
            fairness = report.shed_fairness
            shown = "inf" if fairness == float("inf") else f"{fairness:.2f}"
            print(
                f"{'shed_fairness':20s}: {shown} "
                + " ".join(
                    f"s{sid}={ratio:.3f}"
                    for sid, ratio in sorted(
                        report.shard_shed_ratios.items()
                    )
                )
            )
    if router_stats is not None and router_stats["merge_cache"]:
        parts = " ".join(
            f"{key}={value}"
            for key, value in sorted(router_stats["merge_cache"].items())
        )
        print(f"{'merge_cache':20s}: {parts}")
    if args.trace_out:
        count = tracer.export_jsonl(args.trace_out)
        print(f"{'trace':20s}: wrote {count} spans to {args.trace_out}")
    if args.metrics_out:
        count = metrics.export_jsonl(args.metrics_out)
        print(
            f"{'metrics':20s}: wrote {count} records to {args.metrics_out}"
        )
    # SLO gates: a CI job (or operator) asserting the run with the
    # exit code rather than by parsing stdout.
    exit_code = 0
    if (
        args.min_availability is not None
        and report.availability < args.min_availability
    ):
        print(
            f"GATE FAILED: availability {report.availability:.4f} < "
            f"{args.min_availability:.4f}",
            file=sys.stderr,
        )
        exit_code = 1
    if args.max_read_p99_ms is not None:
        read_p99_ms = report.latency_percentiles("read")["p99"] * 1e3
        if read_p99_ms > args.max_read_p99_ms:
            print(
                f"GATE FAILED: read p99 {read_p99_ms:.2f}ms > "
                f"{args.max_read_p99_ms:.2f}ms",
                file=sys.stderr,
            )
            exit_code = 1
    return exit_code


def _cmd_stream_bench(args: argparse.Namespace) -> int:
    import json

    import numpy as np

    from repro.core.exceptions import ConfigurationError, ReproError
    from repro.observability.metrics import MetricsRegistry
    from repro.serving import DatasetRegistry, DriftPolicy
    from repro.streaming.load import NOTIFY_LATENCY, StreamSpec, replay_stream

    metrics = MetricsRegistry()
    try:
        spec = StreamSpec(
            batch_size=args.batch_size,
            window=args.window,
            subscribers=args.subscribers,
            slow_subscribers=args.slow_subscribers,
            readers=args.readers,
            on_overload=args.on_overload,
        )
        if args.records < 0:
            raise ConfigurationError("--records must be >= 0")
        dataset = generate(
            args.dist, args.num_points, args.dimensions, seed=args.seed
        )
        registry = DatasetRegistry(metrics=metrics, keep_versions=4)
        registry.register_dataset(
            "stream", dataset, bits_per_dim=args.bits,
            drift=DriftPolicy.never(),
        )
        records = np.random.default_rng(args.seed).integers(
            0, 2**args.bits, size=(args.records, args.dimensions)
        ).astype(np.float64)
        report = replay_stream(registry, "stream", records, spec)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    counters = metrics.counters_as_dict().get("streaming", {})
    print(f"records             : {report.records}")
    print(f"batches             : {report.batches}")
    print(f"final_version       : {report.final_version}")
    print(f"ingest_seconds      : {report.ingest_seconds:.3f}")
    print(f"ingest_records_per_s: {report.ingest_records_per_sec:.1f}")
    print(f"notify_p50_ms       : {report.notify_p50_seconds * 1e3:.2f}")
    print(f"notify_p99_ms       : {report.notify_p99_seconds * 1e3:.2f}")
    print(f"notifications       : {report.notifications}")
    print(f"diffs_published     : {counters.get('diffs_published', 0)}")
    print(f"diffs_coalesced     : {counters.get('diffs_coalesced', 0)}")
    print(f"feed_batches_shed   : {counters.get('feed_batches_shed', 0)}")
    print(f"expired_records     : {report.expired_records}")
    print(f"concurrent_reads    : {report.reads_ok} ok, "
          f"{report.reads_failed} failed, {report.reads_cached} cached")
    print(f"replay_sound        : {report.replay_sound}")
    if args.latency_out:
        samples = sorted(metrics.histogram(NOTIFY_LATENCY))
        with open(args.latency_out, "w") as handle:
            for i, sample in enumerate(samples):
                handle.write(json.dumps({
                    "sample": i,
                    "notify_latency_ms": sample * 1e3,
                }))
                handle.write("\n")
        print(f"latency             : wrote {len(samples)} samples to "
              f"{args.latency_out}")
    if args.metrics_out:
        count = metrics.export_jsonl(args.metrics_out)
        print(f"metrics             : wrote {count} records to "
              f"{args.metrics_out}")
    max_p99 = args.max_p99_notify_ms
    failures = report.gate(
        min_ingest_per_sec=args.min_ingest_per_sec,
        max_notify_p99_seconds=None if max_p99 is None else max_p99 / 1e3,
    )
    for failure in failures:
        print(f"GATE FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "experiment":
        return _cmd_experiment(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    if args.command == "estimate":
        return _cmd_estimate(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "serve-bench":
        return _cmd_serve_bench(args)
    if args.command == "stream-bench":
        return _cmd_stream_bench(args)
    if args.command == "reproduce":
        return _cmd_reproduce(args)
    return _cmd_list()


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.bench.reproduce import run_reproduction

    report = run_reproduction()
    markdown = report.render_markdown()
    with open(args.out, "w") as handle:
        handle.write(markdown)
    print(markdown)
    print(f"report written to {args.out}")
    return 0 if report.passed == report.total else 1


if __name__ == "__main__":
    sys.exit(main())
