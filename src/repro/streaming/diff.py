"""Skyline diffs: the unit of push-based change notification.

A :class:`SkylineDiff` describes how the skyline id-set changed between
two published versions of a dataset — which ids *entered* the skyline
and which *exited*.  Diffs compose: two consecutive diffs coalesce into
one cumulative diff spanning both version ranges (the slow-subscriber
path), and applying a diff stream to a starting id-set reconstructs the
skyline at the stream's end exactly (the soundness oracle the streaming
tests assert with).

A :class:`FullSync` is the fallback when no contiguous diff chain
exists (a resume cursor older than the retention ring): it carries the
complete skyline id-set at one version and resets the subscriber's
state wholesale.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, Tuple, Union

import numpy as np

from repro.core.exceptions import DatasetError


def _sealed(ids: np.ndarray) -> np.ndarray:
    """A freshly computed id array, write-protected as it is."""
    ids.setflags(write=False)
    return ids


@dataclass(frozen=True)
class SkylineDiff:
    """How the skyline changed from one published version to another.

    ``entered_ids`` / ``exited_ids`` are disjoint, sorted int64 arrays;
    ``coalesced_from`` counts how many raw per-publish diffs were
    merged into this one (1 = a raw diff).  ``published_at`` is the
    ``perf_counter`` stamp of the oldest publish this diff covers —
    what notification-latency measurement wants (a coalesced diff is as
    late as its oldest unacknowledged change).
    """

    dataset: str
    from_version: int
    to_version: int
    entered_ids: np.ndarray
    exited_ids: np.ndarray
    coalesced_from: int = 1
    published_at: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        if self.to_version <= self.from_version:
            raise DatasetError(
                f"diff must advance the version: {self.from_version} -> "
                f"{self.to_version}"
            )
        if (
            self.entered_ids.size
            and self.exited_ids.size
            and np.isin(self.entered_ids, self.exited_ids).any()
        ):
            raise DatasetError("entered and exited ids must be disjoint")

    @classmethod
    def between(
        cls,
        dataset: str,
        from_version: int,
        from_sky_ids: np.ndarray,
        to_version: int,
        to_sky_ids: np.ndarray,
        published_at: float = 0.0,
    ) -> "SkylineDiff":
        """The raw diff between two skyline id-sets, each given as a
        sorted id array without repeats (taken as it is, not re-sorted)."""
        old = np.asarray(from_sky_ids, dtype=np.int64)
        new = np.asarray(to_sky_ids, dtype=np.int64)
        return cls(
            dataset=dataset,
            from_version=from_version,
            to_version=to_version,
            entered_ids=_sealed(new[~np.isin(new, old, assume_unique=True)]),
            exited_ids=_sealed(old[~np.isin(old, new, assume_unique=True)]),
            published_at=published_at,
        )

    @property
    def is_empty(self) -> bool:
        """Version advanced but the skyline id-set did not change."""
        return self.entered_ids.size == 0 and self.exited_ids.size == 0

    @property
    def size(self) -> int:
        return int(self.entered_ids.size + self.exited_ids.size)

    def apply(self, sky_ids: FrozenSet[int]) -> FrozenSet[int]:
        """The skyline id-set after this diff.

        Strict: every exited id must be present and no entered id may
        already be present — a mismatch means the diff is being applied
        to the wrong base version, which must fail loudly rather than
        silently corrupt the subscriber's view.
        """
        entered = {int(i) for i in self.entered_ids}
        exited = {int(i) for i in self.exited_ids}
        if not exited <= sky_ids:
            raise DatasetError(
                f"diff {self.from_version}->{self.to_version} exits ids "
                f"not in the base set: {sorted(exited - sky_ids)[:5]}"
            )
        clash = entered & sky_ids
        if clash:
            raise DatasetError(
                f"diff {self.from_version}->{self.to_version} enters ids "
                f"already in the base set: {sorted(clash)[:5]}"
            )
        return frozenset((sky_ids - exited) | entered)

    def coalesce(self, later: "SkylineDiff") -> "SkylineDiff":
        """One cumulative diff equivalent to ``self`` then ``later``.

        With ``E/X`` the entered/exited sets, the net change is

        * entered: ``(E1 \\ X2) | (E2 \\ X1)`` — an id that entered and
          then exited (or vice versa) nets out to nothing;
        * exited: ``(X1 \\ E2) | (X2 \\ E1)``.

        The stamp is the *older* of the two (a coalesced notification
        is as stale as its oldest change); ``coalesced_from`` adds up.
        """
        if later.dataset != self.dataset:
            raise DatasetError(
                f"cannot coalesce diffs of {self.dataset!r} and "
                f"{later.dataset!r}"
            )
        if later.from_version != self.to_version:
            raise DatasetError(
                f"diffs are not consecutive: ...{self.to_version} then "
                f"{later.from_version}..."
            )
        entered = np.union1d(
            np.setdiff1d(self.entered_ids, later.exited_ids),
            np.setdiff1d(later.entered_ids, self.exited_ids),
        )
        exited = np.union1d(
            np.setdiff1d(self.exited_ids, later.entered_ids),
            np.setdiff1d(later.exited_ids, self.entered_ids),
        )
        stamps = [
            s for s in (self.published_at, later.published_at) if s > 0.0
        ]
        return SkylineDiff(
            dataset=self.dataset,
            from_version=self.from_version,
            to_version=later.to_version,
            entered_ids=_sealed(entered),
            exited_ids=_sealed(exited),
            coalesced_from=self.coalesced_from + later.coalesced_from,
            published_at=min(stamps) if stamps else 0.0,
        )

    def __repr__(self) -> str:
        return (
            f"SkylineDiff({self.dataset!r} v{self.from_version}->"
            f"v{self.to_version}, +{self.entered_ids.size} "
            f"-{self.exited_ids.size}"
            + (f", coalesced={self.coalesced_from}"
               if self.coalesced_from > 1 else "")
            + ")"
        )


@dataclass(frozen=True)
class FullSync:
    """A full-state resync: the complete skyline id-set at ``version``.

    Sent when a subscriber's cursor cannot be served by diff replay
    (older than the diff retention ring) and when a dataset's version
    history restarts.  Applying it discards the subscriber's state and
    adopts ``sky_ids`` wholesale.
    """

    dataset: str
    version: int
    sky_ids: np.ndarray
    published_at: float = field(default=0.0, compare=False)

    @property
    def to_version(self) -> int:
        """Uniform cursor accessor shared with :class:`SkylineDiff`."""
        return self.version

    def apply(self, sky_ids: FrozenSet[int]) -> FrozenSet[int]:
        return frozenset(int(i) for i in self.sky_ids)

    def __repr__(self) -> str:
        return (
            f"FullSync({self.dataset!r}@v{self.version}, "
            f"|skyline|={self.sky_ids.size})"
        )


#: what a subscriber receives
StreamEvent = Union[SkylineDiff, FullSync]


def replay(
    events: Iterable[StreamEvent],
    initial: FrozenSet[int] = frozenset(),
    initial_version: int = 0,
) -> Tuple[FrozenSet[int], int]:
    """Fold a diff stream over a starting id-set.

    Returns ``(final id-set, final version)``.  Checks version
    contiguity between consecutive diffs (a :class:`FullSync` may land
    anywhere and resets the cursor), so a broken stream fails loudly.
    """
    sky = frozenset(initial)
    version = initial_version
    for event in events:
        if isinstance(event, SkylineDiff):
            if event.from_version != version:
                raise DatasetError(
                    f"diff stream gap: at v{version} but next diff "
                    f"starts at v{event.from_version}"
                )
            sky = event.apply(sky)
        else:
            sky = event.apply(sky)
        version = event.to_version
    return sky, version
