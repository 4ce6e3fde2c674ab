"""Continuous skyline queries over live data: CDC ingest, sliding
windows, and push-based diff subscriptions.

The streaming layer turns the versioned serving registry into a live
feed.  Writes enter through an :class:`IngestFeed` (batched, admission-
controlled, window-expired via ordinary WAL delete batches); standing
:class:`ContinuousQuery` windows (count- or time-based) advance on
every published version; and the :class:`SubscriptionHub` pushes
:class:`SkylineDiff` notifications (entered/exited skyline ids per
version) to subscribers over bounded, coalescing queues — with
resumable cursors and a :class:`FullSync` fallback.

See ``docs/INTERNALS.md`` §17 for the model and invariants, and
``examples/streaming_subscriptions.py`` for an end-to-end tour.
"""

from repro.maintenance.window import WindowSpec
from repro.streaming.continuous import (
    STREAMING_GROUP,
    ContinuousQuery,
    ContinuousQueryManager,
)
from repro.streaming.diff import (
    FullSync,
    SkylineDiff,
    StreamEvent,
    replay,
)
from repro.streaming.feed import BLOCK, SHED, FeedConfig, IngestFeed
from repro.streaming.hub import Subscription, SubscriptionHub

__all__ = [
    "BLOCK",
    "SHED",
    "STREAMING_GROUP",
    "ContinuousQuery",
    "ContinuousQueryManager",
    "FeedConfig",
    "FullSync",
    "IngestFeed",
    "SkylineDiff",
    "StreamEvent",
    "Subscription",
    "SubscriptionHub",
    "WindowSpec",
    "replay",
]
