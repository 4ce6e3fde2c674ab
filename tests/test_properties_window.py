"""Property tests of the windowed skybuffer.

A :class:`WindowSkyline` keeps in its maintainer only the window rows
that no younger row dominates.  Against a plain model of the arrival
stream (every row the window holds, oldest first), after every
``extend`` and ``advance_to``:

* the window skyline equals the oracle's over *all* window rows;
* the buffer is exactly the window rows no younger row dominates;
* ``verify()`` (the class's own cross-check) passes.

The streams mix duplicate rows, equal timestamps, batches whose rows a
later row of the same batch dominates, and ids that arrive again while
an older arrival is still inside the window.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.skyline import skyline_indices_oracle
from repro.maintenance.window import WindowSkyline, WindowSpec
from repro.zorder.encoding import ZGridCodec

DIMS = 3
TOP = 4  # a tiny grid, so duplicates and dominance are common


def _dominated_by_younger(rows: np.ndarray) -> np.ndarray:
    """Per row (oldest first): does a later row dominate it?"""
    out = np.zeros(rows.shape[0], dtype=bool)
    for i in range(rows.shape[0]):
        later = rows[i + 1 :]
        out[i] = bool(
            np.any(np.all(later <= rows[i], axis=1) & np.any(later < rows[i], axis=1))
        )
    return out


class _Model:
    """The window's rows, ids and stamps, oldest first."""

    def __init__(self, spec: WindowSpec) -> None:
        self.spec = spec
        self.rows = np.empty((0, DIMS))
        self.ids = np.empty(0, dtype=np.int64)
        self.stamps = np.empty(0)
        self.now = float("-inf")

    def extend(self, rows, ids, stamps) -> None:
        self.rows = np.vstack([self.rows, rows])
        self.ids = np.concatenate([self.ids, ids])
        self.stamps = np.concatenate([self.stamps, stamps])
        self.advance_to(max(self.now, float(stamps[-1])))

    def advance_to(self, now: float) -> None:
        self.now = now
        if self.spec.kind == WindowSpec.COUNT:
            keep = slice(max(0, self.ids.shape[0] - self.spec.count_size), None)
        else:
            keep = self.stamps > now - self.spec.horizon
        self.rows = self.rows[keep]
        self.ids = self.ids[keep]
        self.stamps = self.stamps[keep]


def _check(window: WindowSkyline, model: _Model) -> None:
    assert window.window_ids() == tuple(model.ids.tolist())
    # the skyline: the oracle's over every window row (by position, so
    # a repeated id or a duplicate row is told apart)
    _, got = window.skyline()
    want = model.ids[skyline_indices_oracle(model.rows)]
    assert sorted(got.tolist()) == sorted(want.tolist())
    # the buffer: the window rows no younger row dominates, by position
    oldest = window._next_seq - window.size
    buffered = window._maintainer.alive_ids() - oldest
    expect = np.flatnonzero(~_dominated_by_younger(model.rows))
    np.testing.assert_array_equal(buffered, expect)
    assert window.buffer_size == expect.size
    window.verify()


@st.composite
def window_stream(draw):
    """Steps of ``("extend", rows, ids, stamp gaps)`` or
    ``("advance", gap)``; ids come from a small pool so they repeat."""
    steps = []
    for _ in range(draw(st.integers(1, 10))):
        if draw(st.integers(0, 4)) == 0:
            steps.append(("advance", draw(st.integers(0, 3))))
            continue
        n = draw(st.integers(1, 7))
        rows = draw(
            st.lists(
                st.lists(st.integers(0, TOP - 1), min_size=DIMS, max_size=DIMS),
                min_size=n,
                max_size=n,
            )
        )
        ids = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
        gaps = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        steps.append(("extend", rows, ids, gaps))
    return steps


@given(
    window_stream(),
    st.integers(min_value=1, max_value=9),
    st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_skybuffer_matches_the_window(steps, size, use_time):
    spec = WindowSpec.time(float(size)) if use_time else WindowSpec.count(size)
    codec = ZGridCodec.grid_identity(DIMS, bits_per_dim=2)
    window = WindowSkyline(codec, spec)
    model = _Model(spec)
    clock = 0.0
    for step in steps:
        if step[0] == "advance":
            clock += step[1]
            window.advance_to(clock)
            model.advance_to(clock)
        else:
            _, rows, ids, gaps = step
            # non-decreasing stamps; a zero gap repeats a timestamp
            stamps = clock + np.cumsum(gaps).astype(np.float64)
            clock = float(stamps[-1])
            rows = np.asarray(rows, dtype=np.float64)
            window.extend(rows, ids, stamps)
            model.extend(rows, np.asarray(ids, dtype=np.int64), stamps)
        _check(window, model)


def test_batch_row_dominated_by_a_later_row_never_enters():
    codec = ZGridCodec.grid_identity(2, bits_per_dim=3)
    window = WindowSkyline(codec, WindowSpec.count(10))
    window.extend(
        np.array([[5.0, 5.0], [1.0, 1.0], [5.0, 5.0]]), [7, 8, 9], [0.0, 0.0, 0.0]
    )
    # rows 0 and 2 are dominated by row 1; row 0 by a later row, row 2
    # by an earlier one, which cannot outlive it
    assert window.buffer_size == 2
    window.extend(np.array([[0.0, 0.0]]), [10], [1.0])
    # the new row dominates every older buffer row
    assert window.buffer_size == 1
    _, ids = window.skyline()
    assert ids.tolist() == [10]
    window.verify()
