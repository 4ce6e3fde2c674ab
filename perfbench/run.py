"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload serve-sharded-d4 --seed 1 \\
        --seconds 24 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` alternates
untraced and traced ops and reports the per-layer metrics (see
``perfbench/README.md``).  Every line but the last is a human-readable
report; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is non-zero
when any op fails or any oracle disagrees.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import sys
import tempfile
import time
from statistics import median
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")

Metric = Tuple[float, str, int]  # value, unit, sample count

#: end-to-end metrics of every workload (untraced runs, host-normalized)
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_p50_ms": "ms",
    "kind_p50_geomean_ms": "ms",
}

#: per-kind latencies of the untraced ops: (unit, op kind, quantile)
KIND_METRICS = {
    "job_p50_s": ("s", "job", 0.5),
    "full_p50_ms": ("ms", "full", 0.5),
    "subspace_p50_ms": ("ms", "subspace", 0.5),
    "kdominant_p50_ms": ("ms", "kdominant", 0.5),
    "topk_p50_ms": ("ms", "topk", 0.5),
    "explain_p50_ms": ("ms", "explain", 0.5),
    "cached_read_p50_ms": ("ms", "cached_read", 0.5),
    "write_p50_ms": ("ms", "write", 0.5),
    "flush_p50_ms": ("ms", "flush", 0.5),
    "flush_p90_ms": ("ms", "flush", 0.9),
    "poll_p50_ms": ("ms", "poll", 0.5),
}

#: layer self time per traced op: (unit, span names summed)
TIME_METRICS = {
    "zorder.quantize_s": ("s", ("zorder.quantize",)),
    "zorder.zsearch_s": ("s", ("zorder.zsearch",)),
    "zorder.zmerge_s": ("s", ("zorder.zmerge",)),
    "zorder.build_zbtree_s": ("s", ("zorder.build_zbtree",)),
    "pipeline.preprocess_s": ("s", ("pipeline.preprocess",)),
    "mapreduce.phase1_map_s": ("s", ("mapreduce.phase1_map",)),
    "mapreduce.phase1_reduce_s": ("s", ("mapreduce.phase1_reduce",)),
    "mapreduce.phase1_shuffle_s": ("s", ("mapreduce.phase1",)),
    "mapreduce.phase2_s": ("s", ("mapreduce.phase2",)),
    "router.scatter_ms": ("ms", ("router.scatter",)),
    "router.merge_ms": ("ms", ("router.merge",)),
    "serving.queue_wait_ms": ("ms", ("serving.queue_wait",)),
    "serving.service_ms": ("ms", ("serving.service",)),
    "serving.result_cache_lookup_ms": ("ms", ("serving.result_cache_lookup",)),
    "extensions.kdominant_ms": ("ms", ("extensions.kdominant",)),
    "extensions.subspace_ms": ("ms", ("extensions.subspace",)),
    "extensions.topk_ms": ("ms", ("extensions.topk",)),
    "extensions.explain_ms": ("ms", ("extensions.explain",)),
    "serving.registry_write_ms": ("ms", ("serving.registry_write",)),
    "serving.wal_append_ms": ("ms", ("serving.wal_append",)),
    "serving.snapshot_build_ms": ("ms", ("serving.snapshot_build",)),
    "serving.checkpoint_ms": ("ms", ("serving.checkpoint",)),
    "maintenance.insert_ms": ("ms", ("maintenance.insert",)),
    "maintenance.delete_ms": ("ms", ("maintenance.delete",)),
    "streaming.flush_ms": ("ms", ("streaming.flush",)),
    "streaming.continuous_ms": ("ms", ("streaming.continuous",)),
    "streaming.hub_ms": ("ms", ("streaming.hub",)),
    "streaming.drain_ms": ("ms", ("streaming.drain",)),
}

#: program counts per op (all ops of the run)
COUNT_METRICS = {
    "pipeline.candidates": "count",
    "pipeline.prefiltered_records": "count",
    "pipeline.skyline": "count",
    "mapreduce.shuffle_records": "count",
    "mapreduce.shuffle_bytes": "B",
    "mapreduce.reduce_cost_skew": "ratio",
    "dominance.point_tests": "count",
    "dominance.region_tests": "count",
    "router.merge_cache_reused": "count",
    "router.merge_cache_refreshed": "count",
    "router.merge_cache_incremental": "count",
    "router.merge_cache_full": "count",
    "router.cached_flag_mismatch": "count",
    "serving.cache_hits": "count",
    "serving.cache_misses": "count",
    "serving.hedged_subqueries": "count",
    "serving.publishes": "count",
    "serving.wal_appends": "count",
    "serving.checkpoints": "count",
    "maintenance.point_tests": "count",
    "maintenance.region_tests": "count",
    "streaming.diffs_published": "count",
    "streaming.diffs_coalesced": "count",
    "streaming.full_syncs": "count",
    "streaming.diff_ids": "count",
}

#: the remaining per-layer metrics
OTHER_METRICS = {
    "pipeline.skyline_per_candidate": "ratio",
    "ingest_records_per_s": "1/s",
    "failed_frac": "ratio",
    "host.calibration_ms": "ms",
    "trace.unattributed_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def per_layer_units() -> Dict[str, str]:
    units = {name: unit for name, (unit, _k, _q) in KIND_METRICS.items()}
    units.update({name: unit for name, (unit, _s) in TIME_METRICS.items()})
    units.update(COUNT_METRICS)
    units.update(OTHER_METRICS)
    return units


def percentile(samples: List[float], q: float) -> Optional[float]:
    """Linear-interpolated percentile.  Above the median it is given only
    when at least ten samples lie beyond it."""
    if not samples or (q > 0.5 and round(len(samples) * (1.0 - q), 9) < 10):
        return None
    ordered = sorted(samples)
    pos = q * (len(ordered) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def measure(workload, seconds: float, log=None,
            max_ops: Optional[int] = None) -> Dict[str, object]:
    """Set up, run the closed loop for ``seconds``, check the oracles.

    A calibration burst precedes and follows every set-up and every op
    (see :mod:`perfbench.hostspeed`).  With a span ``log``, odd-numbered
    ops are traced and even-numbered ones are not.
    """
    from perfbench.hostspeed import HostSpeed
    from perfbench.workloads import Recorder

    setup_speed = HostSpeed()
    setups: List[Tuple[float, float]] = []  # (seconds, host factor)
    for _ in range(workload.setup_repeats()):
        first = setup_speed.calibrate()
        started = time.perf_counter()
        workload.setup()
        elapsed = time.perf_counter() - started
        setups.append(
            (elapsed, setup_speed.factor(first, setup_speed.calibrate()))
        )
    before = workload.counts()
    rec = Recorder(log)
    speed = HostSpeed()
    op_bursts: List[int] = []  # the burst taken just before each op
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline and (
        max_ops is None or rec.ops < max_ops
    ):
        burst = speed.calibrate()
        ops = rec.ops
        if log is not None:
            rec.tracing = log.enabled = rec.ops % 2 == 1
        try:
            workload.step(rec)
        except Exception as exc:  # noqa: BLE001 - counted and reported
            workload.fail(f"op {rec.ops}: {type(exc).__name__}: {exc}")
        finally:
            if log is not None:
                rec.tracing = log.enabled = False
        if rec.ops > ops:
            op_bursts.append(burst)
    speed.calibrate()
    rss = peak_rss_mb()
    after = workload.counts()
    try:
        workload.verify()
    except Exception as exc:  # noqa: BLE001 - counted and reported
        workload.fail(f"oracle: {type(exc).__name__}: {exc}")
    return {
        "setups": setups,
        "rec": rec,
        "speed": speed,
        "factors": [speed.around(burst) for burst in op_bursts],
        "rss": rss,
        "counts": {k: after.get(k, 0) - before.get(k, 0) for k in after},
    }


def _attempted(workload, rec) -> int:
    return rec.ops + workload.oracle_checks


def kind_metrics(workload, raw, normalized: bool = True) -> Dict[str, Metric]:
    """Per-kind latencies and the ingest rate, from untraced ops."""
    rec = raw["rec"]
    factors = raw["factors"] if normalized else None
    out: Dict[str, Metric] = {}
    for name, (unit, kind, q) in KIND_METRICS.items():
        samples = rec.seconds(kind, factors=factors)
        value = percentile(samples, q)
        scale = 1e3 if unit == "ms" else 1.0
        out[name] = (0.0 if value is None else value * scale, unit,
                     len(samples))
    ops = rec.seconds("op", factors=factors)
    rate = workload.records_per_op * len(ops) / sum(ops) if ops else 0.0
    out["ingest_records_per_s"] = (rate, "1/s", len(ops))
    out["failed_frac"] = (
        len(workload.failures) / max(_attempted(workload, rec), 1),
        "ratio", _attempted(workload, rec),
    )
    return out


def end_to_end(workload, raw) -> Dict[str, Metric]:
    rec = raw["rec"]
    factors = raw["factors"]
    setups = [seconds * factor for seconds, factor in raw["setups"]]
    ops = rec.seconds("op", factors=factors)
    medians = [median(rec.seconds(k, factors=factors))
               for k in workload.kinds if rec.seconds(k)]
    geomean = (
        math.exp(sum(math.log(m) for m in medians) / len(medians))
        if medians and len(medians) == len(workload.kinds) else 0.0
    )
    return {
        "setup_s": (median(setups), "s", len(setups)),
        "peak_rss_mb": (raw["rss"], "MB", 1),
        "op_p50_ms": (median(ops) * 1e3 if ops else 0.0, "ms", len(ops)),
        "kind_p50_geomean_ms": (geomean * 1e3, "ms", len(medians)),
    }


def per_layer(workload, raw, log) -> Dict[str, Metric]:
    from perfbench.trace import self_times

    rec = raw["rec"]
    factors = raw["factors"]
    out = kind_metrics(workload, raw)
    by_name, op_total, op_uncovered = self_times(log.spans)
    traced = max(rec.traced_ops, 1)
    for name, (unit, spans) in TIME_METRICS.items():
        seconds = sum(
            value * factors[op]
            for span in spans
            for op, value in by_name.get(span, {}).items()
        ) / traced
        out[name] = (seconds * (1e3 if unit == "ms" else 1.0), unit,
                     rec.traced_ops)
    ops = max(rec.ops, 1)
    counts = raw["counts"]
    for name, unit in COUNT_METRICS.items():
        out[name] = (float(counts.get(name, 0)) / ops, unit, rec.ops)
    candidates = counts.get("pipeline.candidates", 0)
    out["pipeline.skyline_per_candidate"] = (
        counts.get("pipeline.skyline", 0) / candidates if candidates else 0.0,
        "ratio", rec.ops,
    )
    out["host.calibration_ms"] = (
        raw["speed"].median_s() * 1e3, "ms", len(raw["speed"].values),
    )
    total = sum(op_total.values())
    out["trace.unattributed_frac"] = (
        sum(op_uncovered.values()) / total if total else 0.0, "ratio",
        len(op_total),
    )
    plain = rec.seconds("op", factors=factors)
    traced_ops = rec.seconds("op", traced=True, factors=factors)
    overhead = (
        median(traced_ops) / median(plain) - 1.0
        if plain and traced_ops else 0.0
    )
    out["trace.overhead_frac"] = (overhead, "ratio", len(traced_ops))
    return out


def _lines(metrics: Dict[str, Metric]) -> List[str]:
    return [f"  {name:34s} {value:14.6g} {unit:6s} n={n}"
            for name, (value, unit, n) in metrics.items()]


def run(workload_name: str, seed: int, seconds: float, traced: bool,
        scale=None, max_ops: Optional[int] = None,
        out_dir: str = OUT) -> Tuple[Dict[str, object], List[str]]:
    """Run one workload; returns ``(result object, report lines)``."""
    from perfbench import trace
    from perfbench.hostspeed import REFERENCE_S, host_probe
    from perfbench.workloads import FULL, WORKLOADS

    os.makedirs(out_dir, exist_ok=True)
    probe_before = host_probe()
    log = trace.SpanLog() if traced else None
    installed = trace.install(log) if log is not None else None
    workdir = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    workload = WORKLOADS[workload_name](seed, scale or FULL, workdir)
    try:
        raw = measure(workload, seconds, log, max_ops=max_ops)
    finally:
        workload.teardown()
        if installed is not None:
            installed.remove()
        shutil.rmtree(workdir, ignore_errors=True)
    probe_after = host_probe()

    rec = raw["rec"]
    tag = f"{workload_name}-seed{seed}-trace{int(traced)}"
    report = [
        f"workload {workload_name} seed={seed} trace={int(traced)} "
        f"ops={rec.ops} traced_ops={rec.traced_ops}",
        f"times are host-normalized to a {REFERENCE_S * 1e3:.1f} ms "
        f"calibration loop (this run's median: "
        f"{raw['speed'].median_s() * 1e3:.3f} ms)",
    ]
    if traced:
        metrics = per_layer(workload, raw, log)
        report.append("per-layer metrics:")
        log.export_jsonl(os.path.join(out_dir, f"spans-{tag}.jsonl"))
    else:
        metrics = end_to_end(workload, raw)
        report.append("end-to-end metrics:")
    report += _lines(metrics)
    if not traced:
        report.append("per-kind metrics, host-normalized:")
        report += _lines(kind_metrics(workload, raw))
    report.append("per-kind metrics, raw wall time:")
    report += _lines(kind_metrics(workload, raw, normalized=False))
    report.append(
        "host probe (diagnostic): "
        + " ".join(f"{k}_before={v:.4f}" for k, v in probe_before.items())
        + " "
        + " ".join(f"{k}_after={v:.4f}" for k, v in probe_after.items())
    )
    for failure in workload.failures[:20]:
        report.append(f"FAILED: {failure}")
    result = {
        "correct": not workload.failures,
        "attempted": _attempted(workload, rec),
        "failed": len(workload.failures),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit, _n) in metrics.items()
        },
    }
    with open(os.path.join(out_dir, f"result-{tag}.json"), "w") as handle:
        json.dump({
            "result": result,
            "records": rec.records,
            "factors": raw["factors"],
            "setups": raw["setups"],
            "calibration": raw["speed"].values,
            "host_probe": {"before": probe_before, "after": probe_after},
            "failures": workload.failures,
        }, handle)
    return result, report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program source under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(sorted(WORKLOADS))}", file=sys.stderr)
        return 2
    result, report = run(args.workload, args.seed, args.seconds,
                         bool(args.trace))
    print("\n".join(report))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
