"""Unit tests for ResultSet and NeighborTable."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.result import NeighborTable, PairFragments, ResultSet


def make_result(pairs, n):
    return ResultSet.from_pairs(pairs, num_points=n)


class TestResultSetBasics:
    def test_empty(self):
        r = ResultSet.empty(5)
        assert r.num_pairs == 0
        assert r.neighbor_counts().tolist() == [0] * 5

    def test_from_pairs(self):
        r = make_result([(0, 1), (1, 0), (2, 2)], 3)
        assert r.num_pairs == 3
        assert r.num_points == 3

    def test_neighbor_counts(self):
        r = make_result([(0, 1), (0, 2), (2, 0)], 4)
        assert r.neighbor_counts().tolist() == [2, 0, 1, 0]

    def test_average_neighbors_excludes_self(self):
        r = make_result([(0, 0), (1, 1), (0, 1), (1, 0)], 2)
        assert r.average_neighbors() == pytest.approx(2.0)
        assert r.average_neighbors(exclude_self=True) == pytest.approx(1.0)

    def test_sort_orders_by_key_then_value(self):
        r = make_result([(2, 1), (0, 5), (0, 2), (2, 0)], 3)
        s = r.sort()
        assert s.keys.tolist() == [0, 0, 2, 2]
        assert s.values.tolist() == [2, 5, 0, 1]

    def test_merge(self):
        a = make_result([(0, 1)], 3)
        b = make_result([(1, 2), (2, 0)], 3)
        merged = ResultSet.merge([a, b])
        assert merged.num_pairs == 3

    def test_merge_requires_same_num_points(self):
        a = make_result([(0, 1)], 3)
        b = make_result([(0, 1)], 4)
        with pytest.raises(ValueError):
            ResultSet.merge([a, b])

    def test_merge_empty_list_raises(self):
        with pytest.raises(ValueError):
            ResultSet.merge([])


class TestResultSetPredicates:
    def test_canonical_pairs_deduplicates(self):
        r = make_result([(0, 1), (0, 1), (1, 0)], 2)
        assert r.canonical_pairs().shape == (2, 2)

    def test_same_pairs_as_ignores_order_and_duplicates(self):
        a = make_result([(0, 1), (1, 0)], 2)
        b = make_result([(1, 0), (0, 1), (0, 1)], 2)
        assert a.same_pairs_as(b)

    def test_same_pairs_as_detects_difference(self):
        a = make_result([(0, 1)], 3)
        b = make_result([(0, 2)], 3)
        assert not a.same_pairs_as(b)

    def test_is_symmetric(self):
        assert make_result([(0, 1), (1, 0)], 2).is_symmetric()
        assert not make_result([(0, 1)], 2).is_symmetric()

    def test_contains_all_self_pairs(self):
        assert make_result([(0, 0), (1, 1)], 2).contains_all_self_pairs()
        assert not make_result([(0, 0)], 2).contains_all_self_pairs()

    def test_without_self_pairs(self):
        r = make_result([(0, 0), (0, 1), (1, 1)], 2).without_self_pairs()
        assert r.num_pairs == 1
        assert r.keys.tolist() == [0]


class TestNeighborTable:
    def test_round_trip(self):
        r = make_result([(0, 1), (0, 2), (1, 0), (2, 0), (2, 2)], 3)
        table = r.to_neighbor_table()
        table.validate()
        assert table.neighbors_of(0).tolist() == [1, 2]
        assert table.neighbors_of(1).tolist() == [0]
        assert table.neighbors_of(2).tolist() == [0, 2]

    def test_counts_and_degree(self):
        table = make_result([(0, 1), (0, 2), (2, 0)], 3).to_neighbor_table()
        assert table.counts().tolist() == [2, 0, 1]
        assert table.degree(0) == 2
        assert table.degree(1) == 0

    def test_num_pairs(self):
        table = make_result([(0, 1), (1, 0)], 2).to_neighbor_table()
        assert table.num_pairs == 2

    def test_out_of_range_raises(self):
        table = make_result([(0, 1)], 2).to_neighbor_table()
        with pytest.raises(IndexError):
            table.neighbors_of(2)
        with pytest.raises(IndexError):
            table.neighbors_of(-1)

    def test_empty_table(self):
        table = ResultSet.empty(4).to_neighbor_table()
        table.validate()
        assert table.num_pairs == 0
        assert table.neighbors_of(3).size == 0

    def test_validate_catches_bad_offsets(self):
        table = NeighborTable(offsets=np.array([0, 2, 1]),
                              neighbors=np.array([0, 1]), num_points=2)
        with pytest.raises(AssertionError):
            table.validate()


def lexsort_table(keys, values, num_points):
    """Reference CSR finalize: one ``lexsort`` over (key, value)."""
    keys = np.asarray(keys, dtype=np.int64)
    values = np.asarray(values, dtype=np.int64)
    order = np.lexsort((values, keys))
    offsets = np.zeros(num_points + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=num_points), out=offsets[1:])
    return NeighborTable(offsets=offsets, neighbors=values[order],
                         num_points=num_points)


def random_pairs(rng, num_rows, num_values, num_pairs):
    keys = rng.integers(0, num_rows, size=num_pairs)
    values = rng.integers(0, num_values, size=num_pairs)
    return keys.astype(np.int64), values.astype(np.int64)


class TestCombinedKeyFinalize:
    def test_shuffled_multi_fragment_pairs(self):
        rng = np.random.default_rng(7)
        keys, values = random_pairs(rng, 50, 50, 2_000)
        sink = PairFragments(50)
        for part in np.array_split(rng.permutation(keys.shape[0]), 9):
            sink.emit(keys[part], values[part])
        table = sink.to_neighbor_table()
        table.validate()
        concat_keys, concat_values = sink.concatenated()
        assert table.same_contents_as(
            lexsort_table(concat_keys, concat_values, 50))

    def test_duplicate_pairs_survive(self):
        keys = np.array([1, 1, 0, 1, 0])
        values = np.array([3, 3, 2, 0, 2])
        table = NeighborTable.from_pairs(keys, values, 4)
        assert table.same_contents_as(lexsort_table(keys, values, 4))
        assert table.neighbors_of(1).tolist() == [0, 3, 3]

    def test_bipartite_values_beyond_num_rows(self):
        # Probe-side keys index 5 query rows; values index a 1000-point
        # dataset, so the value span must not be taken from the row count.
        rng = np.random.default_rng(11)
        keys, values = random_pairs(rng, 5, 1_000, 400)
        assert values.max() >= 5
        table = NeighborTable.from_pairs(keys, values, 5)
        assert table.same_contents_as(lexsort_table(keys, values, 5))

    def test_empty_result(self):
        empty = np.empty(0, dtype=np.int64)
        table = NeighborTable.from_pairs(empty, empty, 3)
        assert table.same_contents_as(lexsort_table(empty, empty, 3))
        assert table.offsets.tolist() == [0, 0, 0, 0]
        assert table.neighbors.dtype == np.int64
        assert PairFragments(3).to_neighbor_table().same_contents_as(table)
        assert ResultSet.empty(3).sort().num_pairs == 0

    def test_include_self_false(self, uniform_2d, eps_2d):
        from repro.engine import Query, run_query
        result = run_query(Query.self_join(uniform_2d, eps_2d, include_self=False),
                           backend="vectorized")
        keys, values = result.pairs()
        assert keys.shape[0] and not np.any(keys == values)
        n = uniform_2d.shape[0]
        assert result.neighbor_table.same_contents_as(lexsort_table(keys, values, n))

    def test_sort_and_to_neighbor_table_share_the_finalize(self):
        rng = np.random.default_rng(3)
        keys, values = random_pairs(rng, 40, 60, 500)
        r = ResultSet(keys=keys, values=values, num_points=40)
        s = r.sort()
        order = np.lexsort((values, keys))
        assert np.array_equal(s.keys, keys[order])
        assert np.array_equal(s.values, values[order])
        assert r.to_neighbor_table().same_contents_as(lexsort_table(keys, values, 40))
        # The round trip through the pair-list view is lossless.
        table = r.to_neighbor_table()
        assert table.to_result_set().to_neighbor_table().same_contents_as(table)

    def test_overflow_guard_raises_value_error(self):
        keys = np.array([0, 3], dtype=np.int64)
        values = np.array([1, 2 ** 62], dtype=np.int64)
        with pytest.raises(ValueError, match="overflow"):
            NeighborTable.from_pairs(keys, values, 4)
        with pytest.raises(ValueError, match="overflow"):
            ResultSet(keys=keys, values=values, num_points=4).sort()

    def test_largest_representable_key_is_accepted(self):
        span = 2 ** 31
        keys = np.array([(np.iinfo(np.int64).max - (span - 1)) // span], dtype=np.int64)
        values = np.array([span - 1], dtype=np.int64)
        combined_max = int(keys[0]) * span + int(values[0])
        assert combined_max <= np.iinfo(np.int64).max
        s = ResultSet(keys=keys, values=values, num_points=int(keys[0]) + 1).sort()
        assert s.keys.tolist() == keys.tolist()
        assert s.values.tolist() == values.tolist()

    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError):
            NeighborTable.from_pairs(np.array([0]), np.array([-1]), 2)
