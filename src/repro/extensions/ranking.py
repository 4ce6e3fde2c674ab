"""Ranking and top-k selection over skyline results.

The paper defers this to follow-up work ("users could rank the computed
skyline sets based on user defined functions", §1); these are the
standard instantiations:

* **dominance score** — how many dataset points each skyline point
  dominates (a popularity measure);
* **utility score** — a user-supplied monotone weighting of the
  (minimised) attributes;
* **representative top-k** — greedy max-coverage: pick the k skyline
  points that together dominate as much of the dataset as possible.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.exceptions import DatasetError
from repro.core.point import kernel_rows, pairwise_dominance


def dominance_scores(
    skyline_points: np.ndarray, dataset_points: np.ndarray
) -> np.ndarray:
    """Number of dataset points each skyline point dominates."""
    sky, data = kernel_rows(skyline_points, dataset_points)
    scores = np.zeros(len(sky), dtype=np.int64)
    for start, dom in pairwise_dominance(sky, data):
        scores[start : start + dom.shape[0]] = dom.sum(axis=1)
    return scores


def rank_skyline(
    skyline_points: np.ndarray,
    skyline_ids: np.ndarray,
    dataset_points: Optional[np.ndarray] = None,
    method: str = "dominance",
    weights: Optional[Sequence[float]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Order skyline points by a preference criterion.

    Returns ``(points, ids, scores)`` sorted best-first.  Methods:

    * ``"dominance"`` — descending dominance score (needs
      ``dataset_points``);
    * ``"sum"`` — ascending coordinate sum (equal weights);
    * ``"weighted"`` — ascending weighted sum with the given positive
      ``weights``.
    """
    sky = np.asarray(skyline_points, dtype=np.float64)
    ids = np.asarray(skyline_ids, dtype=np.int64)
    if sky.shape[0] != ids.shape[0]:
        raise DatasetError("skyline points and ids must align")
    if method == "dominance":
        if dataset_points is None:
            raise DatasetError("dominance ranking needs dataset_points")
        scores = dominance_scores(sky, dataset_points).astype(np.float64)
        order = np.argsort(-scores, kind="stable")
    elif method == "sum":
        scores = sky.sum(axis=1)
        order = np.argsort(scores, kind="stable")
    elif method == "weighted":
        if weights is None:
            raise DatasetError("weighted ranking needs weights")
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (sky.shape[1],) or np.any(w < 0):
            raise DatasetError(
                "weights must be non-negative, one per dimension"
            )
        scores = sky @ w
        order = np.argsort(scores, kind="stable")
    else:
        raise DatasetError(f"unknown ranking method {method!r}")
    return sky[order].copy(), ids[order].copy(), scores[order].copy()


def top_k_skyline(
    skyline_points: np.ndarray,
    skyline_ids: np.ndarray,
    dataset_points: np.ndarray,
    k: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Representative top-k: greedy maximum dominance coverage.

    Repeatedly picks the skyline point dominating the most not-yet-
    covered dataset points — the classic (1 - 1/e) approximation of the
    NP-hard max-representative problem.
    """
    sky = np.asarray(skyline_points, dtype=np.float64)
    ids = np.asarray(skyline_ids, dtype=np.int64)
    data = np.asarray(dataset_points, dtype=np.float64)
    if k <= 0:
        raise DatasetError(f"k must be positive; got {k}")
    k = min(k, sky.shape[0])
    coverage = np.zeros((sky.shape[0], data.shape[0]), dtype=bool)
    for start, dom in pairwise_dominance(*kernel_rows(sky, data)):
        coverage[start : start + dom.shape[0]] = dom
    covered = np.zeros(data.shape[0], dtype=bool)
    available = np.ones(sky.shape[0], dtype=bool)
    chosen: list = []
    for _ in range(k):
        # Ties go to the lowest remaining position (argmax is first-max).
        gains = (coverage & ~covered).sum(axis=1)
        gains[~available] = -1
        best = int(np.argmax(gains))
        chosen.append(best)
        covered |= coverage[best]
        available[best] = False
    idx = np.asarray(chosen, dtype=np.int64)
    return sky[idx].copy(), ids[idx].copy()
