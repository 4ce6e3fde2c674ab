"""Perf smoke for the vectorized Z-kernel (``repro.zorder.kernel``).

Measures encode/decode throughput of both kernel paths against an
in-process scalar reference (the per-row Python-int implementation the
kernel replaced), the grid dominance kernel against the float
two-comparison reduction it replaced, plus end-to-end wall clock on
three fig-9/fig-12-shaped pipeline workloads, and writes everything to
``BENCH_zkernel.json`` at the repo root (a CI artifact).

Guards:

* the kernel must deliver at least a **5x** combined encode+decode
  speedup over the scalar reference on both the fast (d=4, 16 bits) and
  wide (d=8, 16 bits) workloads;
* measured against the *committed* ``BENCH_zkernel.json``, the current
  speedup ratio may not regress by more than **20%** (ratios compare a
  machine against itself, so the guard is host-independent);
* the grid dominance kernel (narrow-int columns and row sums, one
  ``<=`` pass per dimension) must answer exactly like the float
  ``dominance_blocks`` reduction on a 512 x 6,000 block at d=8 and 12
  bits, and at least **2x** faster (again a same-host ratio);
* Z-search over phase-1-shaped blocks (600 blocks of 8-32 rows, d=8,
  12 bits, Z-addresses given) through the tree-free ``zs_skyline``
  must give the same points, ids and charges as ``build_zbtree`` plus
  ``zsearch``, and be at least **2x** faster (a same-host ratio);
* the phase-1 combine of a batch-indep-d8-shaped job (n=10,000, d=8,
  12 bits, 8 workers, ZDG+ZS+ZM), replayed on the map tasks' captured
  outputs, must give the same blocks, carried Z-addresses, charges and
  counters through the grouped one-leaf pass as through one
  local-skyline call per group, and be at least **2x** faster (a
  same-host ratio);
* the phase-2 Z-merge reducers of batch-indep-d8-shaped jobs, replayed
  on their captured candidate blocks, must build trees identical to
  one ``build_zbtree`` per block through one ``build_zbtrees`` call,
  at least **1.3x** faster (a same-host ratio), and the whole reducer
  must give the same skyline, Z-addresses, charges and counters as a
  reducer that builds one tree per block;
* the end-to-end runs must reproduce their recorded skyline sizes
  exactly (the cheap bit-identity canary), and the two wide-path runs
  (d=6 and d=8) must stay at or under their baseline seconds.

Each section writes its numbers to ``BENCH_zkernel.json`` only after its
asserts pass, so a failing run never lowers the floor the next run is
held to.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np
import pytest

from conftest import read_bench, update_bench

from repro.algorithms.zs import zs_skyline
from repro.core.point import dominance_blocks, kernel_rows, pairwise_dominance
from repro.data.synthetic import generate
from repro.mapreduce.job import TaskContext
from repro.mapreduce.types import Block
from repro.observability.metrics import MetricsRegistry
from repro.pipeline import phase1, phase2
from repro.pipeline.preprocess import CACHE_CODEC
from repro.pipeline.driver import run_plan
from repro.zorder.encoding import ZGridCodec
from repro.zorder.kernel import ZKernel
from repro.zorder.zbtree import OpCounter, TreeBlock, build_zbtree, build_zbtrees
from repro.zorder.zmerge import zmerge_all
from repro.zorder.zsearch import zsearch

#: minimum kernel-vs-scalar-reference speedup (encode+decode combined)
MIN_SPEEDUP = 5.0
#: largest tolerated relative drop vs the recorded speedup ratio
MAX_REGRESSION = 0.20
#: minimum grid-kernel-vs-float-reduction speedup (dominance kernel)
MIN_DOMINANCE_SPEEDUP = 2.0
#: minimum tree-free-vs-tree Z-search speedup on phase-1-shaped blocks
MIN_BLOCK_SPEEDUP = 2.0
#: minimum grouped-vs-per-group speedup of the phase-1 combine
MIN_COMBINE_SPEEDUP = 2.0
#: minimum batched-vs-per-block speedup of the Z-merge candidate builds
MIN_BUILD_SPEEDUP = 1.3


# ----------------------------------------------------------------------
# scalar reference (the implementation the kernel replaced)
# ----------------------------------------------------------------------
def _reference_encode(grid: np.ndarray, bits: int) -> List[int]:
    out = []
    for row in grid:
        z = 0
        for level in range(bits - 1, -1, -1):
            for value in row:
                z = (z << 1) | ((int(value) >> level) & 1)
        out.append(z)
    return out


def _reference_decode(zs: List[int], d: int, bits: int) -> np.ndarray:
    out = np.empty((len(zs), d), dtype=np.uint32)
    for i, z in enumerate(zs):
        z = int(z)
        vals = [0] * d
        for level in range(bits):
            for k in range(d - 1, -1, -1):
                vals[k] |= (z & 1) << level
                z >>= 1
        out[i] = vals
    return out


def _timed(fn, repeats: int = 1):
    """Run ``fn`` ``repeats`` times; return its result and the *best*
    elapsed time (min-of-N damps transient host-load spikes, which
    matters for the ratio guards on shared CI runners)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


# ----------------------------------------------------------------------
# encode/decode micro-benchmark
# ----------------------------------------------------------------------
WORKLOADS = (
    # (key, dimensions, bits_per_dim, kernel rows, reference rows)
    ("fast_d4_b16", 4, 16, 200_000, 5_000),
    ("wide_d8_b16", 8, 16, 100_000, 5_000),
)


class TestEncodeDecodeThroughput:
    def test_kernel_beats_scalar_reference(self):
        recorded = read_bench("zkernel").get("encode_decode", {})
        results: Dict[str, Dict] = {}
        for key, d, bits, n_kernel, n_ref in WORKLOADS:
            rng = np.random.default_rng(17)
            grid = rng.integers(0, 1 << bits, size=(n_kernel, d)).astype(
                np.int64
            )
            kernel = ZKernel(d, bits)
            assert kernel.fast_path == (d * bits <= 64)

            zbatch, enc_s = _timed(lambda: kernel.interleave(grid), repeats=3)
            _, dec_s = _timed(lambda: kernel.deinterleave(zbatch), repeats=3)

            sample = grid[:n_ref]
            ref_zs, ref_enc_s = _timed(
                lambda: _reference_encode(sample, bits), repeats=3
            )
            ref_grid, ref_dec_s = _timed(
                lambda: _reference_decode(ref_zs, d, bits), repeats=3
            )
            # The reference must agree with the kernel before its
            # timing means anything.
            assert kernel.to_int_list(zbatch[:n_ref]) == ref_zs
            assert np.array_equal(ref_grid.astype(np.int64), sample)

            kernel_rps = 2.0 * n_kernel / (enc_s + dec_s)
            ref_rps = 2.0 * n_ref / (ref_enc_s + ref_dec_s)
            speedup = kernel_rps / ref_rps
            results[key] = {
                "dimensions": d,
                "bits_per_dim": bits,
                "path": "fast" if kernel.fast_path else "wide",
                "rows_kernel": n_kernel,
                "rows_reference": n_ref,
                "kernel_encode_rows_per_s": round(n_kernel / enc_s),
                "kernel_decode_rows_per_s": round(n_kernel / dec_s),
                "reference_encode_rows_per_s": round(n_ref / ref_enc_s),
                "reference_decode_rows_per_s": round(n_ref / ref_dec_s),
                "speedup_encode_decode": round(speedup, 2),
            }
        for key, entry in results.items():
            speedup = entry["speedup_encode_decode"]
            assert speedup >= MIN_SPEEDUP, (
                f"{key}: kernel is only {speedup:.2f}x faster than the "
                f"scalar reference (need >= {MIN_SPEEDUP}x)"
            )
            prior = recorded.get(key, {}).get("speedup_encode_decode")
            if prior:
                floor = prior * (1.0 - MAX_REGRESSION)
                assert speedup >= floor, (
                    f"{key}: speedup regressed to {speedup:.2f}x from the "
                    f"recorded {prior:.2f}x (floor {floor:.2f}x)"
                )
        update_bench("zkernel", "encode_decode", results)


# ----------------------------------------------------------------------
# dominance kernel: grid columns vs the float two-comparison reduction
# ----------------------------------------------------------------------
class TestDominanceKernel:
    def test_grid_kernel_beats_float_reduction(self):
        rows, cols, d, bits = 512, 6_000, 8, 12
        rng = np.random.default_rng(23)
        a = rng.integers(0, 1 << bits, (rows, d)).astype(np.float64)
        b = rng.integers(0, 1 << bits, (cols, d)).astype(np.float64)
        # the columns are stored once per tree, so they are built
        # outside the timed region
        ga, gb = kernel_rows(a, b)

        def grid():
            return next(pairwise_dominance(ga, gb, rows))[1]

        def reference():
            _, le, lt = next(dominance_blocks(a, b, rows))
            return (le == d) & lt

        grid_dom, grid_s = _timed(grid, repeats=5)
        float_dom, float_s = _timed(reference, repeats=5)
        assert np.array_equal(grid_dom, float_dom)
        assert grid_dom.any()
        speedup = float_s / grid_s
        assert speedup >= MIN_DOMINANCE_SPEEDUP, (
            f"grid dominance kernel is only {speedup:.2f}x faster than the "
            f"float reduction (need >= {MIN_DOMINANCE_SPEEDUP}x)"
        )
        update_bench("zkernel", 
            "dominance_kernel",
            {
                "block": [rows, cols],
                "dimensions": d,
                "bits_per_dim": bits,
                "column_dtype": str(ga.cols.dtype),
                "float_reduction_ms": round(float_s * 1e3, 2),
                "grid_kernel_ms": round(grid_s * 1e3, 2),
                "speedup": round(speedup, 2),
            },
        )


# ----------------------------------------------------------------------
# Z-search on phase-1-shaped blocks: tree-free vs build + walk
# ----------------------------------------------------------------------
class TestPhase1Blocks:
    def test_tree_free_zsearch_beats_build_and_walk(self):
        count, d, bits = 600, 8, 12
        rng = np.random.default_rng(29)
        codec = ZGridCodec.grid_identity(d, bits_per_dim=bits)
        blocks = []
        for k in range(count):
            pts = rng.integers(0, 1 << bits, (int(rng.integers(8, 33)), d))
            pts = pts.astype(np.float64)
            ids = np.arange(k * 32, k * 32 + pts.shape[0], dtype=np.int64)
            blocks.append((pts, ids, codec.encode_grid_batch(pts)))

        def tree_free():
            counter = OpCounter()
            out = [
                zs_skyline(pts, ids, counter, codec, zaddresses=z)
                for pts, ids, z in blocks
            ]
            return out, counter

        def tree_walk():
            counter = OpCounter()
            out = [
                zsearch(build_zbtree(codec, pts, ids=ids, zaddresses=z), counter)
                for pts, ids, z in blocks
            ]
            return out, counter

        (free_out, free_counter), free_s = _timed(tree_free, repeats=5)
        (tree_out, tree_counter), tree_s = _timed(tree_walk, repeats=5)
        assert free_counter == tree_counter
        for (fp, fi), (tp, ti) in zip(free_out, tree_out):
            assert np.array_equal(fp, tp) and np.array_equal(fi, ti)
        speedup = tree_s / free_s
        assert speedup >= MIN_BLOCK_SPEEDUP, (
            f"tree-free Z-search is only {speedup:.2f}x faster than build + "
            f"walk on phase-1 blocks (need >= {MIN_BLOCK_SPEEDUP}x)"
        )
        update_bench("zkernel", 
            "phase1_blocks",
            {
                "blocks": count,
                "rows_per_block": [8, 32],
                "dimensions": d,
                "bits_per_dim": bits,
                "tree_walk_ms": round(tree_s * 1e3, 2),
                "tree_free_ms": round(free_s * 1e3, 2),
                "speedup": round(speedup, 2),
            },
        )


# ----------------------------------------------------------------------
# phase-1 combine: one grouped pass per map task vs one call per group
# ----------------------------------------------------------------------
def _per_group_combine(local_algorithm, emitted, ctx):
    """The combiner the grouped pass replaced: one local-skyline call
    per group, Z-addresses carried by id lookup."""
    out = {}
    for gid, blocks in emitted.items():
        merged = Block.concat(blocks)
        points, ids = phase1._local_skyline(local_algorithm, merged, ctx)
        ctx.counters.inc(
            "phase1", "combiner_pruned", merged.size - points.shape[0]
        )
        out[gid] = [
            Block(ids, points, zaddresses=phase1._carry_z(merged, ids))
        ]
    return out


class TestPhase1Combine:
    def test_grouped_pass_beats_per_group_calls(self, monkeypatch):
        # capture every map task's keyed output (and its cache) from one
        # batch-indep-d8-shaped job
        captured = []
        combine = phase1.Phase1Combiner.__call__

        def capture(self, emitted, ctx):
            captured.append((emitted, ctx.cache))
            return combine(self, emitted, ctx)

        monkeypatch.setattr(phase1.Phase1Combiner, "__call__", capture)
        dataset = generate("independent", 10_000, 8, seed=1)
        run_plan("ZDG+ZS+ZM", dataset, num_workers=8, bits_per_dim=12)
        monkeypatch.undo()
        grouped_combiner = phase1.Phase1Combiner("ZS")

        def replay(fn):
            outs, contexts = [], []
            for emitted, cache in captured:
                ctx = TaskContext(cache, MetricsRegistry())
                outs.append(fn(emitted, ctx))
                contexts.append(ctx)
            return outs, contexts

        (got, got_ctx), grouped_s = _timed(
            lambda: replay(grouped_combiner), repeats=5
        )
        (want, want_ctx), per_group_s = _timed(
            lambda: replay(lambda e, c: _per_group_combine("ZS", e, c)),
            repeats=5,
        )
        groups = sum(len(emitted) for emitted, _ in captured)
        assert groups > 10 * len(captured)
        for g_out, w_out, g_ctx, w_ctx in zip(got, want, got_ctx, want_ctx):
            assert list(g_out) == list(w_out)
            for gid, (g_block,) in g_out.items():
                (w_block,) = w_out[gid]
                assert np.array_equal(g_block.ids, w_block.ids)
                assert np.array_equal(g_block.points, w_block.points)
                assert np.array_equal(g_block.zaddresses, w_block.zaddresses)
            assert g_ctx.ops == w_ctx.ops
            assert (
                g_ctx.counters.counters_as_dict()
                == w_ctx.counters.counters_as_dict()
            )
        speedup = per_group_s / grouped_s
        assert speedup >= MIN_COMBINE_SPEEDUP, (
            f"the grouped phase-1 combine is only {speedup:.2f}x faster "
            f"than per-group calls (need >= {MIN_COMBINE_SPEEDUP}x)"
        )
        update_bench("zkernel", 
            "phase1_combine",
            {
                "plan": "ZDG+ZS+ZM",
                "n": 10_000,
                "dimensions": 8,
                "bits_per_dim": 12,
                "map_tasks": len(captured),
                "groups": groups,
                "per_group_ms": round(per_group_s * 1e3, 2),
                "grouped_ms": round(grouped_s * 1e3, 2),
                "speedup": round(speedup, 2),
            },
        )


# ----------------------------------------------------------------------
# phase-2 Z-merge: one batched build of a reducer's candidate trees
# ----------------------------------------------------------------------
def _per_block_zmerge_reducer(key, blocks, ctx):
    """The Z-merge reducer with one ``build_zbtree`` per candidate
    block, the builds the batched one replaced."""
    codec = ctx.cache.get(CACHE_CODEC)
    trees = [
        build_zbtree(codec, block.points, ids=block.ids, zaddresses=block.zaddresses)
        for block in blocks
        if block.size > 0
    ]
    merged = zmerge_all(trees, counter=ctx.ops)
    zs, points, ids = merged.collect()
    ctx.observe("phase2.merge_fanin", len(trees))
    return Block(ids, points, zaddresses=zs)


def _tree_bytes(tree):
    """Every table and grid column of a tree, with dtypes."""
    arrays = [value for value in vars(tree).values() if isinstance(value, np.ndarray)]
    arrays += tree.levels
    for grid in (tree.grid_points, tree.grid_min, tree.grid_max):
        arrays += [grid.cols, grid.sums]
    return [(a.dtype.str, a.shape, a.tobytes()) for a in arrays]


class TestZmergeFold:
    def test_batched_builds_beat_one_build_per_block(self, monkeypatch):
        # capture the merge reducer's candidate blocks (and cache) from
        # four batch-indep-d8-shaped jobs
        captured = []
        reducer = phase2._zmerge_reducer

        def capture(key, blocks, ctx):
            captured.append((key, blocks, ctx.cache))
            return reducer(key, blocks, ctx)

        monkeypatch.setattr(phase2, "_zmerge_reducer", capture)
        for seed in range(1, 5):
            dataset = generate("independent", 10_000, 8, seed=seed)
            run_plan("ZDG+ZS+ZM", dataset, num_workers=8, bits_per_dim=12)
        monkeypatch.undo()
        inputs = [
            (cache.get(CACHE_CODEC), [
                TreeBlock(b.points, b.ids, b.zaddresses) for b in blocks if b.size
            ])
            for _key, blocks, cache in captured
        ]
        blocks = sum(len(tree_blocks) for _, tree_blocks in inputs)
        assert blocks > 20 * len(captured)

        def batched():
            return [build_zbtrees(codec, tree_blocks) for codec, tree_blocks in inputs]

        def per_block():
            return [
                [build_zbtree(codec, *block[:3]) for block in tree_blocks]
                for codec, tree_blocks in inputs
            ]

        got, batched_s = _timed(batched, repeats=5)
        want, per_block_s = _timed(per_block, repeats=5)
        for mine, theirs in zip(got, want):
            assert len(mine) == len(theirs)
            for a, b in zip(mine, theirs):
                assert _tree_bytes(a) == _tree_bytes(b)

        # the whole reducer: same skyline, addresses, charges, counters
        for key, candidate_blocks, cache in captured:
            runs = []
            for fn in (reducer, _per_block_zmerge_reducer):
                ctx = TaskContext(cache, MetricsRegistry())
                runs.append((fn(key, candidate_blocks, ctx), ctx))
            (g_block, g_ctx), (w_block, w_ctx) = runs
            assert np.array_equal(g_block.ids, w_block.ids)
            assert np.array_equal(g_block.points, w_block.points)
            assert np.array_equal(g_block.zaddresses, w_block.zaddresses)
            assert g_ctx.ops == w_ctx.ops
            assert (
                g_ctx.counters.counters_as_dict()
                == w_ctx.counters.counters_as_dict()
            )

        speedup = per_block_s / batched_s
        assert speedup >= MIN_BUILD_SPEEDUP, (
            f"the batched Z-merge candidate builds are only {speedup:.2f}x "
            f"faster than one build per block (need >= {MIN_BUILD_SPEEDUP}x)"
        )
        update_bench("zkernel", 
            "zmerge_builds",
            {
                "plan": "ZDG+ZS+ZM",
                "n": 10_000,
                "dimensions": 8,
                "bits_per_dim": 12,
                "reducers": len(captured),
                "candidate_blocks": blocks,
                "per_block_ms": round(per_block_s * 1e3, 2),
                "batched_ms": round(batched_s * 1e3, 2),
                "speedup": round(speedup, 2),
            },
        )


# ----------------------------------------------------------------------
# end-to-end fig-9/fig-12-shaped pipeline workloads
# ----------------------------------------------------------------------
E2E_WORKLOADS = (
    # (key, plan, distribution, n, d, expected skyline size)
    ("zdg_zs_zm_40k_d6_independent", "ZDG+ZS+ZM", "independent", 40_000, 6, 1701),
    ("zdg_zs_zm_10k_d8_independent", "ZDG+ZS+ZM", "independent", 10_000, 8, 2581),
    (
        "naivez_zs_zm_20k_d4_anticorrelated",
        "Naive-Z+ZS+ZM",
        "anticorrelated",
        20_000,
        4,
        894,
    ),
)

#: baseline wall clock (seconds) per workload; absolute seconds are
#: host-dependent, so these are recorded rather than asserted — except
#: for the keys in E2E_GATED, which must stay at or below their
#: baseline.  The d=6 and d=4 entries are the pre-kernel wall clock on
#: the reference host; the d=8 entry is the flat-walk run (~0.63 s on a
#: 2-CPU container, against ~1.39 s for the node-by-node walks) with
#: the same ~1.3x headroom as the d=6 gate.
E2E_BASELINE_SECONDS = {
    "zdg_zs_zm_40k_d6_independent": 1.78,
    "zdg_zs_zm_10k_d8_independent": 0.85,
    "naivez_zs_zm_20k_d4_anticorrelated": 0.99,
}

#: workloads whose measured seconds are asserted against the baseline.
#: The d=6 wide-path run regressed past its pre-kernel baseline once
#: (1.78s -> 1.89s); the batched dominance-test work brought it well
#: under, and this gate keeps it there.  The d=8 run is the fig-12
#: shape whose Z-search and Z-merge walks run flat over the tree's
#: pre-order table; its gate fails if they fall back to per-node cost.
E2E_GATED = frozenset(
    {"zdg_zs_zm_40k_d6_independent", "zdg_zs_zm_10k_d8_independent"}
)


class TestEndToEnd:
    @pytest.mark.parametrize(
        "key,plan,dist,n,d,expected_skyline", E2E_WORKLOADS
    )
    def test_pipeline_wall_clock(self, key, plan, dist, n, d, expected_skyline):
        dataset = generate(dist, n, d, seed=3)
        report, seconds = _timed(
            lambda: run_plan(plan, dataset, seed=3), repeats=2
        )
        # Skyline cardinality is deterministic: a mismatch means the
        # kernel changed results, not just speed.
        assert report.skyline.ids.shape[0] == expected_skyline
        if key in E2E_GATED:
            baseline = E2E_BASELINE_SECONDS[key]
            assert seconds <= baseline, (
                f"{key}: end-to-end wall clock {seconds:.3f}s exceeds its "
                f"{baseline:.2f}s baseline (wide-path regression gate)"
            )
        recorded = read_bench("zkernel").get("end_to_end", {})
        recorded[key] = {
            "plan": plan,
            "distribution": dist,
            "n": n,
            "d": d,
            "skyline": int(report.skyline.ids.shape[0]),
            "seconds": round(seconds, 3),
            "baseline_seconds": E2E_BASELINE_SECONDS[key],
        }
        update_bench("zkernel", "end_to_end", recorded)
