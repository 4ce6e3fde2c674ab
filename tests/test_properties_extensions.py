"""Property-based tests for the query extensions."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.point import dominance_blocks, dominates
from repro.core.skyline import skyline_indices_oracle
from repro.extensions import (
    dominance_scores,
    k_dominant_skyline,
    k_dominates,
    subspace_skyline,
    top_k_skyline,
    why_not,
)
from repro.extensions.kdominant import k_dominated_mask
from repro.zorder.zbtree import OpCounter


@st.composite
def grid_points(draw, max_points=40, max_dims=4, top=8):
    d = draw(st.integers(min_value=1, max_value=max_dims))
    n = draw(st.integers(min_value=1, max_value=max_points))
    rows = draw(
        st.lists(
            st.lists(
                st.integers(min_value=0, max_value=top - 1),
                min_size=d, max_size=d,
            ),
            min_size=n, max_size=n,
        )
    )
    return np.asarray(rows, dtype=float)


@given(grid_points(), st.data())
@settings(max_examples=60, deadline=None)
def test_k_dominant_is_subset_of_skyline(points, data):
    d = points.shape[1]
    k = data.draw(st.integers(min_value=1, max_value=d))
    kd_pts, kd_ids = k_dominant_skyline(points, k)
    sky = set(skyline_indices_oracle(points).tolist())
    # k-dominance is a *stronger* pruning: its survivors are regular
    # skyline members too.
    assert set(kd_ids.tolist()) <= sky


@given(grid_points())
@settings(max_examples=60, deadline=None)
def test_k_equals_d_matches_oracle(points):
    d = points.shape[1]
    _, ids = k_dominant_skyline(points, d)
    assert ids.tolist() == skyline_indices_oracle(points).tolist()


@given(grid_points(max_dims=3), st.data())
@settings(max_examples=60, deadline=None)
def test_k_dominates_pairwise_consistency(points, data):
    d = points.shape[1]
    k = data.draw(st.integers(min_value=1, max_value=d))
    i = data.draw(st.integers(0, points.shape[0] - 1))
    j = data.draw(st.integers(0, points.shape[0] - 1))
    if i == j:
        return
    p, q = points[i], points[j]
    # Regular dominance implies k-dominance for every k <= d.
    if dominates(p, q):
        assert k_dominates(p, q, k)


@given(grid_points(max_dims=4), st.data())
@settings(max_examples=60, deadline=None)
def test_subspace_skyline_superset_property(points, data):
    d = points.shape[1]
    if d < 2:
        return
    size = data.draw(st.integers(min_value=1, max_value=d - 1))
    dims = sorted(
        data.draw(
            st.lists(
                st.integers(0, d - 1), min_size=size, max_size=size,
                unique=True,
            )
        )
    )
    _, sub_ids = subspace_skyline(points, dims)
    # Subspace skyline members are never dominated *in the subspace*.
    proj = points[:, dims]
    sub_sky = set(skyline_indices_oracle(proj).tolist())
    assert set(sub_ids.tolist()) == sub_sky


@given(grid_points())
@settings(max_examples=60, deadline=None)
def test_why_not_consistent_with_oracle(points):
    sky = set(skyline_indices_oracle(points).tolist())
    for i in range(min(points.shape[0], 5)):
        explanation = why_not(points[i], points)
        assert explanation.is_skyline_member == (i in sky)
        if not explanation.is_skyline_member:
            # Every reported dominator genuinely dominates.
            for dom in explanation.dominator_points:
                assert dominates(dom, points[i])


@st.composite
def grids_with_duplicates(draw, max_points=40, max_dims=6, top=3):
    """Small-cell grids (heavy ties) with some rows repeated verbatim."""
    points = draw(grid_points(max_points, max_dims, top))
    repeats = draw(
        st.lists(st.integers(0, points.shape[0] - 1), max_size=8)
    )
    return np.vstack([points, points[repeats]])


@given(grids_with_duplicates(), st.data())
@settings(max_examples=150, deadline=None)
def test_k_dominant_over_skyline_equals_over_all_rows(points, data):
    # KDSky(P) = KDSky(Sky(P)): the serving executor computes on the
    # skyline alone.
    d = points.shape[1]
    k = data.draw(st.integers(min_value=1, max_value=d))
    ids = np.arange(points.shape[0], dtype=np.int64) * 5 + 2
    sky = skyline_indices_oracle(points)
    _, from_all = k_dominant_skyline(points, k, ids=ids)
    _, from_sky = k_dominant_skyline(points[sky], k, ids=ids[sky])
    assert sorted(from_all.tolist()) == sorted(from_sky.tolist())


# Per-pair reference loops for the column-wise kernel.
def _pair_facts(p, q):
    """(#dims where p <= q, p < q on any dim)."""
    return int(np.sum(p <= q)), bool(np.any(p < q))


def _loop_k_dominated(points, k):
    n = points.shape[0]
    out = np.zeros(n, dtype=bool)
    for i in range(n):
        for j in range(n):
            le, lt = _pair_facts(points[j], points[i])
            out[i] |= le >= k and lt
    return out


def _loop_scores(sky, data):
    d = sky.shape[1]
    return np.array(
        [sum(_pair_facts(p, q) == (d, True) for q in data) for p in sky],
        dtype=np.int64,
    )


def _loop_top_k(sky, ids, data, k):
    """The greedy max-coverage selection, one candidate at a time."""
    d = sky.shape[1]
    coverage = [
        np.array([_pair_facts(p, q) == (d, True) for q in data], dtype=bool)
        for p in sky
    ]
    covered = np.zeros(data.shape[0], dtype=bool)
    remaining = list(range(sky.shape[0]))
    chosen = []
    for _ in range(min(k, sky.shape[0])):
        best_pos, best_gain = None, -1
        for pos in remaining:
            gain = int((coverage[pos] & ~covered).sum())
            if gain > best_gain:
                best_pos, best_gain = pos, gain
        chosen.append(best_pos)
        covered |= coverage[best_pos]
        remaining.remove(best_pos)
    return ids[np.asarray(chosen, dtype=np.int64)]


@given(
    grid_points(max_points=25, max_dims=5),
    grid_points(max_points=25, max_dims=5),
    st.data(),
)
@settings(max_examples=80, deadline=None)
def test_kernel_matches_per_pair_loop(a, b, data):
    d = min(a.shape[1], b.shape[1])
    a, b = a[:, :d], b[:, :d]
    # chunk sizes straddling every boundary: 1, mid, exactly len(a),
    # and past it
    chunk = data.draw(st.integers(min_value=1, max_value=a.shape[0] + 2))
    counter = OpCounter()
    le = np.zeros((a.shape[0], b.shape[0]), dtype=np.int64)
    lt = np.zeros((a.shape[0], b.shape[0]), dtype=bool)
    starts = []
    for start, le_block, lt_block in dominance_blocks(a, b, chunk, counter):
        starts.append(start)
        assert le_block.shape[0] == lt_block.shape[0] <= chunk
        le[start : start + le_block.shape[0]] = le_block
        lt[start : start + lt_block.shape[0]] = lt_block
    assert starts == list(range(0, a.shape[0], chunk))
    assert counter.point_tests == a.shape[0] * b.shape[0]
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            assert (int(le[i, j]), bool(lt[i, j])) == _pair_facts(a[i], b[j])


@given(grids_with_duplicates(max_points=30), st.data())
@settings(max_examples=80, deadline=None)
def test_k_dominated_mask_matches_per_pair_loop(points, data):
    d = points.shape[1]
    n = points.shape[0]
    k = data.draw(st.integers(min_value=1, max_value=d))
    chunk = data.draw(st.integers(min_value=1, max_value=n + 2))
    counter = OpCounter()
    mask = k_dominated_mask(points, k, counter, chunk=chunk)
    np.testing.assert_array_equal(mask, _loop_k_dominated(points, k))
    assert counter.point_tests == n * n


@given(grids_with_duplicates(max_points=30), st.data())
@settings(max_examples=80, deadline=None)
def test_dominance_scores_and_top_k_match_per_pair_loop(points, data):
    sky_rows = skyline_indices_oracle(points)
    sky = points[sky_rows]
    ids = np.arange(points.shape[0], dtype=np.int64)[sky_rows] + 100
    np.testing.assert_array_equal(
        dominance_scores(sky, points), _loop_scores(sky, points)
    )
    k = data.draw(st.integers(min_value=1, max_value=sky.shape[0] + 1))
    _, top_ids = top_k_skyline(sky, ids, points, k)
    np.testing.assert_array_equal(
        top_ids, _loop_top_k(sky, ids, points, k)
    )
