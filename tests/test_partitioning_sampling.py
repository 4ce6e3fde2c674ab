"""Unit tests for reservoir sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import Dataset
from repro.core.exceptions import DatasetError
from repro.partitioning.sampling import (
    reservoir_sample,
    reservoir_sample_indices,
)


class TestIndices:
    def test_exact_size(self):
        rng = np.random.default_rng(0)
        idx = reservoir_sample_indices(1000, 50, rng)
        assert idx.shape == (50,)
        assert len(np.unique(idx)) == 50
        assert idx.min() >= 0 and idx.max() < 1000

    def test_k_at_least_n_returns_everything(self):
        rng = np.random.default_rng(0)
        assert reservoir_sample_indices(10, 10, rng).tolist() == list(range(10))
        assert reservoir_sample_indices(10, 99, rng).tolist() == list(range(10))

    def test_rejects_nonpositive_k(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DatasetError):
            reservoir_sample_indices(10, 0, rng)

    def test_deterministic_given_seed(self):
        a = reservoir_sample_indices(500, 20, np.random.default_rng(42))
        b = reservoir_sample_indices(500, 20, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_roughly_uniform(self):
        # Every position should be selected with probability ~k/n.
        n, k, trials = 200, 20, 400
        hits = np.zeros(n)
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            hits[reservoir_sample_indices(n, k, rng)] += 1
        freq = hits / trials
        # Expected 0.1; allow generous tolerance.
        assert abs(freq.mean() - k / n) < 1e-9
        assert freq.min() > 0.03
        assert freq.max() < 0.25


def _loop_reservoir(n, k, rng):
    """Algorithm R as one replacement per draw, in draw order (the
    loop the vectorised replay must equal)."""
    if k >= n:
        return np.arange(n, dtype=np.int64)
    reservoir = np.arange(k, dtype=np.int64)
    slots = (rng.random(n - k) * (np.arange(k, n) + 1)).astype(np.int64)
    for offset, slot in enumerate(slots):
        if slot < k:
            reservoir[slot] = k + offset
    return np.sort(reservoir)


@st.composite
def _sizes(draw):
    n = draw(st.integers(min_value=1, max_value=5_000))
    k = draw(
        st.one_of(
            st.just(1),
            st.just(max(1, n - 1)),
            st.integers(min_value=n, max_value=n + 3),
            st.integers(min_value=1, max_value=n),
        )
    )
    return n, k


class TestVectorisedReplay:
    @given(_sizes(), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_replacement_loop(self, sizes, seed):
        n, k = sizes
        got = reservoir_sample_indices(n, k, np.random.default_rng(seed))
        want = _loop_reservoir(n, k, np.random.default_rng(seed))
        assert got.dtype == want.dtype == np.int64
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n,k", [(2, 1), (5_000, 1), (5_000, 4_999), (10_000, 200)])
    def test_edge_sizes_over_many_seeds(self, n, k):
        for seed in range(25):
            got = reservoir_sample_indices(n, k, np.random.default_rng(seed))
            want = _loop_reservoir(n, k, np.random.default_rng(seed))
            np.testing.assert_array_equal(got, want)


class TestDatasetSampling:
    def test_sample_by_ratio(self):
        ds = Dataset(np.arange(200.0).reshape(100, 2))
        sample = reservoir_sample(ds, ratio=0.1, seed=1)
        assert sample.size == 10
        # Sampled rows exist in the original dataset.
        assert set(sample.ids.tolist()) <= set(ds.ids.tolist())

    def test_sample_by_size(self):
        ds = Dataset(np.arange(200.0).reshape(100, 2))
        assert reservoir_sample(ds, size=7, seed=1).size == 7

    def test_requires_exactly_one_of_ratio_size(self):
        ds = Dataset(np.arange(20.0).reshape(10, 2))
        with pytest.raises(DatasetError):
            reservoir_sample(ds)
        with pytest.raises(DatasetError):
            reservoir_sample(ds, ratio=0.5, size=3)

    def test_ratio_bounds(self):
        ds = Dataset(np.arange(20.0).reshape(10, 2))
        with pytest.raises(DatasetError):
            reservoir_sample(ds, ratio=0.0)
        with pytest.raises(DatasetError):
            reservoir_sample(ds, ratio=1.5)

    def test_tiny_ratio_gives_at_least_one(self):
        ds = Dataset(np.arange(20.0).reshape(10, 2))
        assert reservoir_sample(ds, ratio=0.001, seed=0).size == 1
