"""Incremental skyline maintenance over a dynamic point set.

The paper computes one-shot skylines; a natural extension (and the
reason its Z-merge is tree-based at all) is *maintaining* the skyline as
points arrive and leave.  :class:`~repro.maintenance.maintainer.SkylineMaintainer`
keeps the skyline of a changing set:

* **insertions** fold a batch's local skyline into the maintained
  ZB-tree with Z-merge — exactly the paper's phase-2 machinery;
* **deletions** are the asymmetric hard case: removing a skyline point
  may surface points it exclusively dominated, so the maintainer
  re-examines the deleted points' dominance regions;
* **windows** (:class:`~repro.maintenance.window.WindowSkyline`) keep
  the skyline of the arrivals a :class:`~repro.maintenance.window.WindowSpec`
  still admits.
"""

from repro.maintenance.maintainer import BatchDelta, SkylineMaintainer
from repro.maintenance.window import (
    SlidingWindowSkyline, WindowSkyline, WindowSpec,
)

__all__ = [
    "BatchDelta", "SkylineMaintainer", "SlidingWindowSkyline",
    "WindowSkyline", "WindowSpec",
]
