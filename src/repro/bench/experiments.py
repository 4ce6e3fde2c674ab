"""Per-figure experiment definitions (see DESIGN.md §4 for the index).

Each function regenerates the rows behind one figure of the paper's §6,
at sizes scaled per :class:`~repro.bench.harness.BenchScale`.  The
benchmarks in ``benchmarks/`` call these, print the tables, and assert
the *shapes* the paper reports (who wins, by roughly what factor).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.bench.harness import BenchScale, ResultTable, run_plan_measured
from repro.core.dataset import Dataset
from repro.data.realworld import (
    dbpedia_lda_like,
    flickr_gist_like,
    nuswide_like,
)
from repro.data.scaling import scale_up
from repro.data.synthetic import generate

#: the strategy mix plotted in Figure 7 (load balancing).  Each approach
#: runs its full stack as the paper's system would: the Grid/Angle
#: baselines merge candidates with the best centralized algorithm (ZS),
#: the ZDG system with its own Z-merge.
FIG7_PLANS = (
    "Grid+SB",
    "Grid+ZS",
    "Angle+SB",
    "Angle+ZS",
    "ZDG+SB+ZM",
    "ZDG+ZS+ZM",
)

#: paper sweep: 10M..110M points (we plot a 5-point subset of the range)
FIG7_SIZES_M = (10, 35, 60, 85, 110)
FIG7_DIMS = (2, 4, 6, 8, 10)

FIG8_PLANS = (
    "Grid+ZS+SB",
    "Grid+ZS+ZS",
    "Angle+ZS+ZS",
    "ZDG+ZS+SB",
    "ZDG+ZS+ZS",
    "ZDG+ZS+ZM",
)
FIG8_SIZES_M = (20, 50, 80, 110)
FIG8_DIMS = (4, 6, 8, 10)

FIG9_PARTITIONERS = (
    "Grid+ZS",
    "Angle+ZS",
    "Naive-Z+ZS",
    "ZHG+ZS",
    "ZDG+ZS",
)

FIG12_PLANS = ("Grid+ZS", "Angle+ZS", "MR-GPMRS", "ZDG+ZS+ZM")
FIG12_SIZES_M = (2, 9, 16, 23, 30)

FIG13_RATIOS = (0.005, 0.01, 0.02, 0.04)
FIG13_PLANS = ("Naive-Z+ZS", "ZHG+ZS", "ZDG+ZS+ZM")


def _dataset(distribution: str, n: int, d: int, seed: int) -> Dataset:
    return generate(distribution, n, d, seed=seed)


def fig7_size_sweep(
    distribution: str,
    scale: Optional[BenchScale] = None,
    dimensions: int = 5,
    num_groups: int = 32,
    seed: int = 0,
    plans: Sequence[str] = FIG7_PLANS,
    sizes_m: Sequence[float] = FIG7_SIZES_M,
) -> ResultTable:
    """Figures 7a/7b: total time vs dataset size, d=5, M=32."""
    scale = scale or BenchScale.from_env()
    table = ResultTable(
        f"Fig 7 ({distribution}): total time vs |P| (d={dimensions})",
        [
            "size_m", "n", "plan", "makespan_cost", "total_cost",
            "wall_s", "candidates", "skyline",
        ],
    )
    for size_m in sizes_m:
        n = scale.size(size_m)
        ds = _dataset(distribution, n, dimensions, seed)
        for plan in plans:
            report = run_plan_measured(
                plan, ds, num_groups=num_groups, seed=seed
            )
            table.add(
                size_m=size_m,
                n=n,
                plan=plan,
                makespan_cost=report.makespan_cost,
                total_cost=report.total_cost,
                wall_s=round(report.total_seconds, 3),
                candidates=report.num_candidates,
                skyline=report.skyline_size,
            )
    return table


def fig7_dims_sweep(
    distribution: str,
    scale: Optional[BenchScale] = None,
    size_m: float = 50,
    num_groups: int = 32,
    seed: int = 0,
    plans: Sequence[str] = FIG7_PLANS,
    dims: Sequence[int] = FIG7_DIMS,
) -> ResultTable:
    """Figures 7c/7d: total time vs dimensionality, n=50M, M=32."""
    scale = scale or BenchScale.from_env()
    n = scale.size(size_m)
    table = ResultTable(
        f"Fig 7 ({distribution}): total time vs d (n={n})",
        [
            "d", "plan", "makespan_cost", "total_cost", "wall_s",
            "candidates", "skyline",
        ],
    )
    for d in dims:
        ds = _dataset(distribution, n, d, seed)
        for plan in plans:
            report = run_plan_measured(
                plan, ds, num_groups=num_groups, seed=seed
            )
            table.add(
                d=d,
                plan=plan,
                makespan_cost=report.makespan_cost,
                total_cost=report.total_cost,
                wall_s=round(report.total_seconds, 3),
                candidates=report.num_candidates,
                skyline=report.skyline_size,
            )
    return table


def fig8_merge_size_sweep(
    distribution: str,
    scale: Optional[BenchScale] = None,
    dimensions: int = 5,
    num_groups: int = 32,
    seed: int = 0,
    plans: Sequence[str] = FIG8_PLANS,
    sizes_m: Sequence[float] = FIG8_SIZES_M,
) -> ResultTable:
    """Figures 8a/8b: candidate-merging time vs dataset size."""
    scale = scale or BenchScale.from_env()
    table = ResultTable(
        f"Fig 8 ({distribution}): merge time vs |P| (d={dimensions})",
        ["size_m", "n", "plan", "merge_cost", "merge_s", "candidates"],
    )
    for size_m in sizes_m:
        n = scale.size(size_m)
        ds = _dataset(distribution, n, dimensions, seed)
        for plan in plans:
            report = run_plan_measured(
                plan, ds, num_groups=num_groups, seed=seed
            )
            table.add(
                size_m=size_m,
                n=n,
                plan=plan,
                merge_cost=report.merge_cost,
                merge_s=round(report.merge_seconds, 4),
                candidates=report.num_candidates,
            )
    return table


def fig8_merge_dims_sweep(
    distribution: str,
    scale: Optional[BenchScale] = None,
    size_m: float = 50,
    num_groups: int = 32,
    seed: int = 0,
    plans: Sequence[str] = FIG8_PLANS,
    dims: Sequence[int] = FIG8_DIMS,
) -> ResultTable:
    """Figures 8c/8d: candidate-merging time vs dimensionality."""
    scale = scale or BenchScale.from_env()
    n = scale.size(size_m)
    table = ResultTable(
        f"Fig 8 ({distribution}): merge time vs d (n={n})",
        ["d", "plan", "merge_cost", "merge_s", "candidates"],
    )
    for d in dims:
        ds = _dataset(distribution, n, d, seed)
        for plan in plans:
            report = run_plan_measured(
                plan, ds, num_groups=num_groups, seed=seed
            )
            table.add(
                d=d,
                plan=plan,
                merge_cost=report.merge_cost,
                merge_s=round(report.merge_seconds, 4),
                candidates=report.num_candidates,
            )
    return table


def fig9_candidates(
    distribution: str,
    scale: Optional[BenchScale] = None,
    dimensions: int = 5,
    num_groups: int = 32,
    seed: int = 0,
    plans: Sequence[str] = FIG9_PARTITIONERS,
    sizes_m: Sequence[float] = (20, 60, 110),
) -> ResultTable:
    """Figure 9: number of skyline candidates per partitioning approach."""
    scale = scale or BenchScale.from_env()
    table = ResultTable(
        f"Fig 9 ({distribution}): skyline candidates per approach",
        ["size_m", "n", "plan", "candidates", "skyline", "pruned_inputs"],
    )
    for size_m in sizes_m:
        n = scale.size(size_m)
        ds = _dataset(distribution, n, dimensions, seed)
        for plan in plans:
            report = run_plan_measured(
                plan, ds, num_groups=num_groups, seed=seed
            )
            pruned = report.phase1.counters.counter(
                "phase1", "prefiltered_records"
            ) + report.phase1.counters.counter("phase1", "dropped_records")
            table.add(
                size_m=size_m,
                n=n,
                plan=plan,
                candidates=report.num_candidates,
                skyline=report.skyline_size,
                pruned_inputs=pruned,
            )
    return table


def fig10_partition_count_sweep(
    distribution: str = "independent",
    scale: Optional[BenchScale] = None,
    dimensions: int = 5,
    size_m: float = 50,
    seed: int = 0,
    group_counts: Sequence[int] = (8, 16, 32, 64, 128),
    plans: Sequence[str] = ("Grid+ZS", "Angle+ZS", "ZDG+ZS+ZM"),
) -> ResultTable:
    """Figure 10 (inferred): effect of the number of partitions/groups."""
    scale = scale or BenchScale.from_env()
    n = scale.size(size_m)
    ds = _dataset(distribution, n, dimensions, seed)
    table = ResultTable(
        f"Fig 10 ({distribution}): effect of #groups M (n={n})",
        ["M", "plan", "makespan_cost", "candidates", "reducer_skew"],
    )
    for m in group_counts:
        for plan in plans:
            report = run_plan_measured(plan, ds, num_groups=m, seed=seed)
            table.add(
                M=m,
                plan=plan,
                makespan_cost=report.makespan_cost,
                candidates=report.num_candidates,
                reducer_skew=round(report.reducer_skew, 3),
            )
    return table


def fig11_realworld(
    scale: Optional[BenchScale] = None,
    seed: int = 0,
    scale_factors: Sequence[float] = (5, 15, 25),
    plans: Sequence[str] = ("Grid+ZS", "Angle+ZS", "ZDG+ZS+ZM"),
) -> ResultTable:
    """Figure 11 (inferred): real-world high-dimensional datasets with
    the paper's scale-factor protocol (s in [5, 25])."""
    scale = scale or BenchScale.from_env()
    bases = {
        "NUSWIDE-like(225d)": nuswide_like(
            max(60, int(300 * scale.factor * 5)), seed=seed
        ),
        "GIST-like(512d)": flickr_gist_like(
            max(40, int(200 * scale.factor * 5)), seed=seed
        ),
        "LDA-like(250d)": dbpedia_lda_like(
            max(60, int(300 * scale.factor * 5)), seed=seed
        ),
    }
    table = ResultTable(
        "Fig 11: real-world high-dimensional datasets (scale factor s)",
        ["dataset", "s", "n", "plan", "makespan_cost", "candidates",
         "skyline"],
    )
    for name, base in bases.items():
        for s in scale_factors:
            ds = scale_up(base, s / scale_factors[0], seed=seed)
            for plan in plans:
                report = run_plan_measured(
                    plan, ds, num_groups=16, bits_per_dim=8, seed=seed
                )
                table.add(
                    dataset=name,
                    s=s,
                    n=ds.size,
                    plan=plan,
                    makespan_cost=report.makespan_cost,
                    candidates=report.num_candidates,
                    skyline=report.skyline_size,
                )
    return table


def fig12_scalability(
    distribution: str = "independent",
    scale: Optional[BenchScale] = None,
    dimensions: int = 8,
    num_groups: int = 32,
    seed: int = 0,
    plans: Sequence[str] = FIG12_PLANS,
    sizes_m: Sequence[float] = FIG12_SIZES_M,
) -> ResultTable:
    """Figure 12: scalability of ZDG+ZM against MR-GPMRS, Angle, Grid."""
    scale = scale or BenchScale.from_env()
    table = ResultTable(
        f"Fig 12 ({distribution}): scalability vs |P|",
        ["size_m", "n", "plan", "makespan_cost", "total_cost", "wall_s"],
    )
    for size_m in sizes_m:
        n = scale.size(size_m)
        ds = _dataset(distribution, n, dimensions, seed)
        for plan in plans:
            report = run_plan_measured(
                plan, ds, num_groups=num_groups, seed=seed
            )
            table.add(
                size_m=size_m,
                n=n,
                plan=plan,
                makespan_cost=report.makespan_cost,
                total_cost=report.total_cost,
                wall_s=round(report.total_seconds, 3),
            )
    return table


def fig13_sampling(
    distribution: str = "independent",
    scale: Optional[BenchScale] = None,
    dimensions: int = 5,
    size_m: float = 50,
    num_groups: int = 32,
    seed: int = 0,
    ratios: Sequence[float] = FIG13_RATIOS,
    plans: Sequence[str] = FIG13_PLANS,
) -> ResultTable:
    """Figure 13: effect of the sampling ratio (0.5%..4%)."""
    scale = scale or BenchScale.from_env()
    n = scale.size(size_m)
    ds = _dataset(distribution, n, dimensions, seed)
    table = ResultTable(
        f"Fig 13 ({distribution}): effect of sampling ratio (n={n})",
        ["ratio", "plan", "candidates", "preprocess_s", "makespan_cost"],
    )
    for ratio in ratios:
        for plan in plans:
            report = run_plan_measured(
                plan, ds, num_groups=num_groups, sample_ratio=ratio,
                seed=seed,
            )
            table.add(
                ratio=ratio,
                plan=plan,
                candidates=report.num_candidates,
                preprocess_s=round(report.preprocess_seconds, 4),
                makespan_cost=report.makespan_cost,
            )
    return table


def worker_scaling(
    distribution: str = "anticorrelated",
    scale: Optional[BenchScale] = None,
    dimensions: int = 6,
    size_m: float = 50,
    seed: int = 0,
    worker_counts: Sequence[int] = (1, 2, 4, 8, 16),
    plans: Sequence[str] = ("ZDG+ZS+ZM", "ZDG+ZS+ZMP"),
) -> ResultTable:
    """Speedup curve: makespan vs cluster size.

    The classic scaling figure the paper's cluster setup implies: with
    the single-reducer ZM merge, adding workers stops helping once the
    merge dominates; the parallel ZMP merge keeps scaling.
    """
    scale = scale or BenchScale.from_env()
    n = scale.size(size_m)
    ds = _dataset(distribution, n, dimensions, seed)
    table = ResultTable(
        f"Worker scaling ({distribution}, d={dimensions}, n={n})",
        ["workers", "plan", "makespan_cost", "total_cost", "speedup"],
    )
    baselines = {}
    for plan in plans:
        for workers in worker_counts:
            report = run_plan_measured(
                plan, ds, num_groups=32, num_workers=workers, seed=seed
            )
            key = plan
            baselines.setdefault(key, report.makespan_cost)
            table.add(
                workers=workers,
                plan=plan,
                makespan_cost=report.makespan_cost,
                total_cost=report.total_cost,
                speedup=round(
                    baselines[key] / max(report.makespan_cost, 1), 2
                ),
            )
    return table


def load_balance_metrics(
    distribution: str = "anticorrelated",
    scale: Optional[BenchScale] = None,
    dimensions: int = 8,
    size_m: float = 50,
    num_groups: int = 32,
    seed: int = 0,
    plans: Sequence[str] = ("Grid+ZS", "Angle+ZS", "ZHG+ZS", "ZDG+ZS"),
) -> ResultTable:
    """§6.2's underlying claim: reducer work skew per strategy."""
    scale = scale or BenchScale.from_env()
    n = scale.size(size_m)
    ds = _dataset(distribution, n, dimensions, seed)
    table = ResultTable(
        f"Load balance ({distribution}, d={dimensions}, n={n})",
        ["plan", "reducer_skew", "phase1_makespan", "phase1_total"],
    )
    for plan in plans:
        report = run_plan_measured(plan, ds, num_groups=num_groups, seed=seed)
        table.add(
            plan=plan,
            reducer_skew=round(report.reducer_skew, 3),
            phase1_makespan=report.phase1.reduce_metrics.makespan_cost,
            phase1_total=report.phase1.reduce_metrics.total_cost,
        )
    return table


def pruning_analysis(
    scale: Optional[BenchScale] = None,
    dimensions: int = 5,
    size_m: float = 50,
    num_groups: int = 32,
    seed: int = 0,
) -> ResultTable:
    """§5.4's data-pruning analysis, measured per distribution: how many
    input points the first job eliminates before the merge."""
    scale = scale or BenchScale.from_env()
    n = scale.size(size_m)
    table = ResultTable(
        "Pruning analysis (ZDG+ZS+ZM): points eliminated before merge",
        ["distribution", "n", "prefiltered", "dropped", "combiner_pruned",
         "candidates", "skyline", "pruned_fraction"],
    )
    for distribution in ("correlated", "independent", "anticorrelated"):
        ds = _dataset(distribution, n, dimensions, seed)
        report = run_plan_measured(
            "ZDG+ZS+ZM", ds, num_groups=num_groups, seed=seed
        )
        counters = report.phase1.counters
        prefiltered = counters.counter("phase1", "prefiltered_records")
        dropped = counters.counter("phase1", "dropped_records")
        combiner = counters.counter("phase1", "combiner_pruned")
        table.add(
            distribution=distribution,
            n=n,
            prefiltered=prefiltered,
            dropped=dropped,
            combiner_pruned=combiner,
            candidates=report.num_candidates,
            skyline=report.skyline_size,
            pruned_fraction=round(1.0 - report.num_candidates / n, 4),
        )
    return table
