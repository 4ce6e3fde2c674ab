"""Unit tests for dominance primitives."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.point as point_module
from repro.core.point import (
    EXIT_BLOCK,
    DominanceRelation,
    GridRows,
    any_dominates,
    block_dominates,
    compare,
    dominance_counts,
    dominated_mask,
    dominates,
    dominates_block,
    dominates_or_equal,
    kernel_rows,
    pairwise_dominance,
    strictly_dominates,
    sum_dtype,
)


class TestDominates:
    def test_strictly_smaller_everywhere(self):
        assert dominates([1, 1], [2, 2])

    def test_smaller_in_one_equal_in_other(self):
        assert dominates([1, 2], [1, 3])

    def test_equal_points_do_not_dominate(self):
        assert not dominates([1, 2], [1, 2])

    def test_incomparable_points(self):
        assert not dominates([1, 3], [2, 1])
        assert not dominates([2, 1], [1, 3])

    def test_dominance_is_antisymmetric(self):
        assert dominates([0, 0], [1, 1])
        assert not dominates([1, 1], [0, 0])

    def test_single_dimension(self):
        assert dominates([1], [2])
        assert not dominates([2], [1])
        assert not dominates([1], [1])

    def test_works_with_numpy_inputs(self):
        assert dominates(np.array([1.0, 1.0]), np.array([2.0, 2.0]))


class TestStrictAndWeak:
    def test_strict_requires_all_dimensions(self):
        assert strictly_dominates([1, 1], [2, 2])
        assert not strictly_dominates([1, 2], [2, 2])

    def test_weak_allows_equality(self):
        assert dominates_or_equal([1, 2], [1, 2])
        assert dominates_or_equal([1, 1], [1, 2])
        assert not dominates_or_equal([2, 1], [1, 2])


class TestCompare:
    def test_all_four_outcomes(self):
        assert compare([1, 1], [2, 2]) is DominanceRelation.DOMINATES
        assert compare([2, 2], [1, 1]) is DominanceRelation.DOMINATED
        assert compare([1, 2], [2, 1]) is DominanceRelation.INCOMPARABLE
        assert compare([1, 2], [1, 2]) is DominanceRelation.EQUAL

    def test_compare_is_consistent_with_dominates(self, rng=None):
        rng = np.random.default_rng(7)
        for _ in range(200):
            p, q = rng.integers(0, 4, (2, 3))
            rel = compare(p, q)
            assert (rel is DominanceRelation.DOMINATES) == dominates(p, q)
            assert (rel is DominanceRelation.DOMINATED) == dominates(q, p)


class TestBlockHelpers:
    def test_dominates_block_matches_scalar(self):
        p = np.array([1.0, 1.0])
        block = np.array([[2.0, 2.0], [1.0, 1.0], [0.0, 3.0], [1.0, 2.0]])
        expected = [dominates(p, row) for row in block]
        assert dominates_block(p, block).tolist() == expected

    def test_block_dominates_matches_scalar(self):
        p = np.array([1.0, 1.0])
        block = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [0.5, 1.0]])
        expected = [dominates(row, p) for row in block]
        assert block_dominates(block, p).tolist() == expected

    def test_any_dominates_empty_block(self):
        assert not any_dominates(np.empty((0, 2)), [1.0, 1.0])

    def test_any_dominates(self):
        block = np.array([[3.0, 3.0], [0.0, 0.0]])
        assert any_dominates(block, [1.0, 1.0])

    def test_dominated_mask_matches_scalar(self):
        rng = np.random.default_rng(11)
        points = rng.integers(0, 5, (40, 3)).astype(float)
        dominators = rng.integers(0, 5, (15, 3)).astype(float)
        mask = dominated_mask(points, dominators)
        for i in range(points.shape[0]):
            expected = any(dominates(s, points[i]) for s in dominators)
            assert mask[i] == expected

    def test_dominated_mask_chunking_consistent(self):
        rng = np.random.default_rng(13)
        points = rng.integers(0, 5, (100, 2)).astype(float)
        dominators = rng.integers(0, 5, (9, 2)).astype(float)
        a = dominated_mask(points, dominators, chunk=7)
        b = dominated_mask(points, dominators, chunk=10_000)
        assert np.array_equal(a, b)

    def test_dominated_mask_empty_inputs(self):
        assert dominated_mask(np.empty((0, 2)), np.ones((3, 2))).size == 0
        out = dominated_mask(np.ones((3, 2)), np.empty((0, 2)))
        assert not out.any()


class TestDominanceCounts:
    def test_simple_chain(self):
        # p0 dominates p1 dominates p2
        points = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        assert dominance_counts(points).tolist() == [0, 1, 2]

    def test_incomparable_set(self):
        points = np.array([[0.0, 2.0], [1.0, 1.0], [2.0, 0.0]])
        assert dominance_counts(points).tolist() == [0, 0, 0]

    def test_duplicates_do_not_count(self):
        points = np.array([[1.0, 1.0], [1.0, 1.0]])
        assert dominance_counts(points).tolist() == [0, 0]


# ----------------------------------------------------------------------
# the grid dominance kernel
# ----------------------------------------------------------------------
#: value palettes: small values make equal rows and duplicates common;
#: the others straddle the uint16/uint32 column switch and the top of
#: the 32-bit grid
PALETTES = (
    (0, 1, 2),
    (0, (1 << 16) - 2, (1 << 16) - 1),
    ((1 << 16) - 1, 1 << 16, (1 << 16) + 1),
    (0, 1, (1 << 32) - 1, (1 << 32) - 2),
)


def _float_reference(a, b, reverse):
    """``all(<=) & any(<)`` by broadcasting, in the kernel's layout."""
    lo, hi = (b[None], a[:, None]) if reverse else (a[:, None], b[None])
    return np.all(lo <= hi, axis=2) & np.any(lo < hi, axis=2)


def _kernel_matrix(a, b, chunk, reverse, strict=True, budget=None):
    """The kernel's answer as one matrix; ``budget=1`` forces the
    per-dimension passes (with early exit) even on tiny blocks."""
    saved = point_module.PAIR_BUDGET
    point_module.PAIR_BUDGET = budget or saved
    try:
        out = np.zeros((len(a), len(b)), dtype=bool)
        for start, dom in pairwise_dominance(a, b, chunk, reverse=reverse, strict=strict):
            out[start : start + dom.shape[0]] = dom
        return out
    finally:
        point_module.PAIR_BUDGET = saved


#: one broadcast over all dimensions, or one pass per dimension
BUDGETS = st.sampled_from((None, 1))


@st.composite
def grid_blocks(draw):
    d = draw(st.sampled_from((1, 2, 3, 8, EXIT_BLOCK, 2 * EXIT_BLOCK, 40)))
    palette = draw(st.sampled_from(PALETTES))
    values = st.sampled_from(palette)
    row = st.lists(values, min_size=d, max_size=d)
    a, b = (
        np.array(draw(st.lists(row, max_size=9)), dtype=np.float64).reshape(-1, d)
        for _ in range(2)
    )
    na, nb = len(a), len(b)
    if na and nb and draw(st.booleans()):
        # an exact duplicate across the two blocks
        b[draw(st.integers(0, nb - 1))] = a[draw(st.integers(0, na - 1))]
    return a, b


class TestGridKernel:
    @settings(max_examples=300, deadline=None)
    @given(
        blocks=grid_blocks(),
        chunk=st.integers(1, 12),
        reverse=st.booleans(),
        budget=BUDGETS,
    )
    def test_matches_float_reference(self, blocks, chunk, reverse, budget):
        a, b = blocks
        ga, gb = kernel_rows(a, b)
        assert isinstance(ga, GridRows) and isinstance(gb, GridRows)
        wide = max(a.max(initial=0), b.max(initial=0)) >= 1 << 16
        assert ga.cols.dtype == (np.uint32 if wide else np.uint16)
        assert np.array_equal(
            _kernel_matrix(ga, gb, chunk, reverse, budget=budget),
            _float_reference(a, b, reverse),
        )

    @settings(max_examples=100, deadline=None)
    @given(blocks=grid_blocks(), reverse=st.booleans(), budget=BUDGETS)
    def test_weak_form_is_all_less_equal(self, blocks, reverse, budget):
        a, b = blocks
        lo, hi = (b[None], a[:, None]) if reverse else (a[:, None], b[None])
        expected = np.all(lo <= hi, axis=2)
        got = _kernel_matrix(*kernel_rows(a, b), 5, reverse, strict=False, budget=budget)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("top", [(1 << 16) - 1, 1 << 16, (1 << 32) - 1])
    def test_column_switch_and_top_of_grid(self, top):
        a = np.array([[top, 0.0], [top, top], [0.0, 0.0]])
        ga, gb = kernel_rows(a, a)
        assert ga.cols.dtype == (np.uint16 if top < 1 << 16 else np.uint32)
        assert np.array_equal(ga.sums, a.sum(axis=1))
        for reverse in (False, True):
            for budget in (None, 1):
                assert np.array_equal(
                    _kernel_matrix(ga, gb, 2, reverse, budget=budget),
                    _float_reference(a, a, reverse),
                )

    def test_early_exit_stops_after_a_dead_block(self):
        # every pair dies within the first block of dimensions, so no
        # later dimension is read
        d = 3 * EXIT_BLOCK
        a = np.zeros((4, d))
        a[:, 0] = 5.0
        b = np.ones((6, d))
        ga, gb = kernel_rows(a, b)
        read = set()

        class Spy(np.ndarray):
            def __getitem__(self, key):
                if isinstance(key, int):
                    read.add(key)
                return super().__getitem__(key)

        gb.cols = gb.cols.view(Spy)
        assert not _kernel_matrix(ga, gb, 4, False, budget=1).any()
        assert read and max(read) < EXIT_BLOCK
        b[:, 0] = 9.0
        ga, gb = kernel_rows(a, b)
        gb.cols = gb.cols.view(Spy)
        assert _kernel_matrix(ga, gb, 4, False, budget=1).all()
        assert max(read) == d - 1

    def test_rows_select_and_convert_like_points(self):
        pts = np.array([[3.0, 1.0], [0.0, 2.0], [4.0, 4.0]])
        (rows,) = kernel_rows(pts)
        assert len(rows) == 3
        assert np.array_equal(np.asarray(rows[1:]), pts[1:])
        assert np.array_equal(rows[np.array([True, False, True])].sums, [4.0, 8.0])


class TestIntegerSums:
    @pytest.mark.parametrize(
        "cols,sums", [(np.uint16, np.uint32), (np.uint32, np.uint64)]
    )
    def test_dtype_survives_every_constructor(self, cols, sums):
        assert sum_dtype(cols) == sums
        pts = np.array([[3.0, 1.0], [0.0, 2.0], [4.0, 4.0]])
        rows = GridRows.of(pts, cols)
        picks = (
            rows,
            GridRows.concat(rows, rows[1:]),
            rows[1:],
            rows[np.array([True, False, True])],
            rows[np.array([2, 0])],
            rows[np.array([], dtype=np.int64)],
        )
        for got in picks:
            assert got.cols.dtype == cols
            assert got.sums.dtype == sums
            assert np.array_equal(got.sums, np.asarray(got).sum(axis=1))

    def test_exact_at_the_top_of_the_wide_grid(self):
        # 40 * (2^32 - 1) needs 38 bits: exact in uint64
        top = (1 << 32) - 1
        pts = np.full((2, 40), float(top))
        pts[1, 7] = top - 1
        (rows,) = kernel_rows(pts)
        assert rows.cols.dtype == np.uint32 and rows.sums.dtype == np.uint64
        assert rows.sums.tolist() == [40 * top, 40 * top - 1]
        # the sums alone decide strictness between these two rows
        dom = _kernel_matrix(rows, rows, 2, False)
        assert dom.tolist() == [[False, False], [True, False]]

    def test_exact_at_the_top_of_the_narrow_grid(self):
        top = (1 << 16) - 1
        pts = np.full((2, 40), float(top))
        pts[0, 0] = 0.0
        (rows,) = kernel_rows(pts)
        assert rows.cols.dtype == np.uint16 and rows.sums.dtype == np.uint32
        assert rows.sums.tolist() == [39 * top, 40 * top]


class TestNonGridRoute:
    FLOATS = np.array(
        [[0.5, 1.25], [0.5, 1.0], [0.25, 2.0], [0.5, 1.25], [1.0, 0.75], [-1.0, 3.0]]
    )

    def test_non_grid_blocks_stay_float(self):
        a, b = kernel_rows(self.FLOATS, np.ones((2, 2)))
        assert isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
        (neg,) = kernel_rows(np.array([[-1.0, 2.0]]))
        assert isinstance(neg, np.ndarray)

    @pytest.fixture
    def float_calls(self, monkeypatch):
        """Counts the calls that take the float two-comparison path."""
        calls = []
        original = point_module.dominance_blocks

        def spy(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(point_module, "dominance_blocks", spy)
        return calls

    def test_dominated_mask_on_floats_matches_scalar(self, float_calls):
        pts = self.FLOATS
        mask = dominated_mask(pts, pts[::-1])
        expected = [any(dominates(q, p) for q in pts[::-1]) for p in pts]
        assert mask.tolist() == expected
        assert float_calls

    def test_dominance_counts_on_floats_matches_scalar(self, float_calls):
        pts = self.FLOATS
        expected = [sum(dominates(q, p) for q in pts) for p in pts]
        assert dominance_counts(pts).tolist() == expected
        assert float_calls

    def test_grid_input_never_takes_the_float_path(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("float two-comparison path used")

        monkeypatch.setattr(point_module, "dominance_blocks", refuse)
        rng = np.random.default_rng(5)
        pts = rng.integers(0, 6, (30, 3)).astype(float)
        expected = [sum(dominates(q, p) for q in pts) for p in pts]
        assert dominance_counts(pts).tolist() == expected
        assert dominated_mask(pts, pts[:5]).tolist() == [
            any(dominates(q, p) for q in pts[:5]) for p in pts
        ]
