"""Quickstart: compute a skyline with the full three-phase pipeline.

Runs the paper's best configuration (ZDG partition grouping, Z-search
local computation, Z-merge candidate merging) on an anti-correlated
synthetic workload — the hard case where skylines are large — and
verifies the distributed result against the centralized oracle.

Run:  python examples/quickstart.py
"""

from repro import run_plan
from repro.core.skyline import is_skyline_of
from repro.data import anticorrelated
from repro.zorder import quantize_dataset


def main() -> None:
    # 20k points in 5 dimensions, clustered around the anti-diagonal:
    # roughly a third of them end up on the skyline.
    dataset = anticorrelated(20_000, 5, seed=7)
    print(f"dataset: {dataset.name}")

    report = run_plan(
        "ZDG+ZS+ZM",
        dataset,
        num_groups=32,      # reducer groups (M in the paper)
        num_workers=8,      # simulated cluster size
        sample_ratio=0.02,  # phase-0 reservoir sample
        seed=0,
    )

    print(f"skyline size      : {report.skyline_size}")
    print(f"candidates emitted: {report.num_candidates}")
    print(f"input prefiltered : "
          f"{report.phase1.counters.counter('phase1', 'prefiltered_records')}")
    print(f"preprocess        : {report.preprocess_seconds:.3f}s")
    print(f"phase 1 (compute) : {report.phase1_seconds:.3f}s")
    print(f"phase 2 (merge)   : {report.merge_seconds:.3f}s")
    print(f"reducer skew      : {report.reducer_skew:.2f}x")

    # The engine computes the skyline of the grid-snapped dataset;
    # verify against the simple quadratic oracle.
    snapped, _ = quantize_dataset(dataset, bits_per_dim=12)
    assert is_skyline_of(report.skyline.points, snapped.points)
    print("verified against the centralized oracle: OK")

    # Skyline ids refer to the original rows.
    first = sorted(report.skyline.ids.tolist())[:5]
    print(f"first skyline row ids: {first}")


if __name__ == "__main__":
    main()
