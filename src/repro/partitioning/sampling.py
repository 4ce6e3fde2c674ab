"""Reservoir sampling (Vitter's Algorithm R).

The paper's preprocessing step collects its sample with reservoir
sampling, which draws a uniform fixed-size sample in one pass without
knowing the stream length in advance — the natural choice on a DFS where
data arrives block by block.  We implement the classic algorithm
faithfully (it *is* the substrate here, not just `rng.choice`), seeded for
reproducibility.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.dataset import Dataset
from repro.core.exceptions import DatasetError


def reservoir_sample_indices(
    n: int, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Indices of a uniform k-subset of ``range(n)`` via Algorithm R.

    The first ``k`` items fill the reservoir; each later item ``i``
    replaces a uniformly random reservoir slot with probability
    ``k / (i + 1)``.
    """
    if k <= 0:
        raise DatasetError(f"sample size must be positive; got {k}")
    if k >= n:
        return np.arange(n, dtype=np.int64)
    # Draw all randomness up front, then replay Algorithm R's
    # replacements at once: a slot ends up holding the last item that
    # replaced it (the largest draw index), or its initial item.
    slots = (rng.random(n - k) * (np.arange(k, n) + 1)).astype(np.int64)
    hits = np.flatnonzero(slots < k)
    reservoir = np.arange(k, dtype=np.int64)
    last = np.full(k, -1, dtype=np.int64)
    np.maximum.at(last, slots[hits], hits)
    replaced = last >= 0
    reservoir[replaced] = k + last[replaced]
    return np.sort(reservoir)


def reservoir_sample(
    dataset: Dataset,
    ratio: Optional[float] = None,
    size: Optional[int] = None,
    seed: int = 0,
) -> Dataset:
    """Uniform sample of a dataset by ratio or absolute size.

    Exactly one of ``ratio`` (in ``(0, 1]``) or ``size`` must be given.
    """
    if (ratio is None) == (size is None):
        raise DatasetError("give exactly one of ratio= or size=")
    if ratio is not None:
        if not (0.0 < ratio <= 1.0):
            raise DatasetError(f"ratio must be in (0, 1]; got {ratio}")
        size = max(1, int(round(dataset.size * ratio)))
    assert size is not None
    rng = np.random.default_rng(seed)
    idx = reservoir_sample_indices(dataset.size, size, rng)
    return dataset.select(idx, name=f"{dataset.name}[sample]")
