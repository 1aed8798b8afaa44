"""Unit tests for the self-join kernels (GLOBAL and UNICOMP, all implementations)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.baselines.kdtree_ref import kdtree_selfjoin
from repro.core.gridindex import GridIndex
from repro.core import kernels as K
from repro.core.neighbors import NeighborResolver, all_neighbor_offsets


ALL_KERNELS = [
    ("pointwise-global", K.selfjoin_global_pointwise),
    ("cellwise-global", K.selfjoin_global_cellwise),
    ("cellwise-unicomp", K.selfjoin_unicomp_cellwise),
    ("vectorized-global", K.selfjoin_global_vectorized),
    ("vectorized-unicomp", K.selfjoin_unicomp_vectorized),
]


class TestKernelCorrectness:
    @pytest.mark.parametrize("name,kernel", ALL_KERNELS)
    def test_matches_kdtree_2d(self, name, kernel, uniform_2d, eps_2d, reference_pairs_2d):
        index = GridIndex.build(uniform_2d, eps_2d)
        out = kernel(index)
        assert np.array_equal(out.result.canonical_pairs(), reference_pairs_2d), name

    @pytest.mark.parametrize("name,kernel", ALL_KERNELS)
    def test_matches_kdtree_3d(self, name, kernel, uniform_3d, eps_3d, reference_pairs_3d):
        index = GridIndex.build(uniform_3d, eps_3d)
        out = kernel(index)
        assert np.array_equal(out.result.canonical_pairs(), reference_pairs_3d), name

    @pytest.mark.parametrize("name,kernel", [k for k in ALL_KERNELS if "pointwise" not in k[0]])
    def test_matches_kdtree_5d(self, name, kernel, uniform_5d):
        eps = 1.2
        index = GridIndex.build(uniform_5d, eps)
        expected = kdtree_selfjoin(uniform_5d, eps).canonical_pairs()
        out = kernel(index)
        assert np.array_equal(out.result.canonical_pairs(), expected), name

    @pytest.mark.parametrize("name,kernel", ALL_KERNELS)
    def test_clustered_data(self, name, kernel, clustered_2d):
        eps = 1.0
        index = GridIndex.build(clustered_2d, eps)
        expected = kdtree_selfjoin(clustered_2d, eps).canonical_pairs()
        out = kernel(index)
        assert np.array_equal(out.result.canonical_pairs(), expected), name

    @pytest.mark.parametrize("name,kernel", ALL_KERNELS)
    def test_no_duplicate_emissions(self, name, kernel, uniform_2d, eps_2d):
        index = GridIndex.build(uniform_2d, eps_2d)
        out = kernel(index)
        # The raw pair list must already be duplicate-free (each ordered pair once).
        assert out.result.num_pairs == out.result.canonical_pairs().shape[0], name

    @pytest.mark.parametrize("name,kernel", ALL_KERNELS)
    def test_result_symmetric_and_contains_self(self, name, kernel, uniform_3d, eps_3d):
        index = GridIndex.build(uniform_3d, eps_3d)
        out = kernel(index)
        assert out.result.is_symmetric()
        assert out.result.contains_all_self_pairs()

    def test_eps_smaller_than_cell(self, uniform_2d):
        # The search distance may be smaller than the grid cell length.
        index = GridIndex.build(uniform_2d, 1.0)
        eps = 0.4
        expected = kdtree_selfjoin(uniform_2d, eps).canonical_pairs()
        out = K.selfjoin_global_vectorized(index, eps)
        assert np.array_equal(out.result.canonical_pairs(), expected)

    def test_single_point(self):
        index = GridIndex.build(np.array([[1.0, 1.0]]), 0.5)
        out = K.selfjoin_unicomp_vectorized(index)
        assert out.result.keys.tolist() == [0]
        assert out.result.values.tolist() == [0]

    def test_all_points_identical(self):
        pts = np.tile(np.array([[3.0, 3.0, 3.0]]), (20, 1))
        index = GridIndex.build(pts, 1.0)
        out = K.selfjoin_unicomp_vectorized(index)
        assert out.result.num_pairs == 20 * 20

    def test_no_pairs_when_far_apart(self):
        pts = np.array([[0.0, 0.0], [100.0, 100.0], [200.0, 0.0]])
        index = GridIndex.build(pts, 1.0)
        out = K.selfjoin_global_vectorized(index)
        # Only the self-pairs remain.
        assert out.result.num_pairs == 3
        assert out.result.contains_all_self_pairs()


class TestUnicompWorkReduction:
    def test_unicomp_halves_cells_and_distances(self, uniform_2d, eps_2d):
        index = GridIndex.build(uniform_2d, eps_2d)
        full = K.selfjoin_global_vectorized(index)
        uni = K.selfjoin_unicomp_vectorized(index)
        assert uni.stats.cells_checked < 0.75 * full.stats.cells_checked
        assert uni.stats.distance_calcs < 0.75 * full.stats.distance_calcs
        # Same results despite the reduced work.
        assert uni.result.same_pairs_as(full.result)

    def test_unicomp_reduction_grows_with_dimension(self, uniform_5d):
        index = GridIndex.build(uniform_5d, 1.2)
        full = K.selfjoin_global_vectorized(index)
        uni = K.selfjoin_unicomp_vectorized(index)
        ratio = uni.stats.distance_calcs / full.stats.distance_calcs
        assert 0.35 < ratio < 0.75

    def test_stats_result_pairs_match(self, uniform_2d, eps_2d):
        index = GridIndex.build(uniform_2d, eps_2d)
        out = K.selfjoin_unicomp_vectorized(index)
        assert out.stats.result_pairs == out.result.num_pairs


class TestSourceCellSubsets:
    def test_union_of_cell_batches_equals_full_result(self, uniform_2d, eps_2d):
        index = GridIndex.build(uniform_2d, eps_2d)
        full = K.selfjoin_global_vectorized(index)
        n = index.num_nonempty_cells
        thirds = np.array_split(np.arange(n), 3)
        parts = [K.selfjoin_global_vectorized(index, source_cells=part).result
                 for part in thirds]
        from repro.core.result import ResultSet
        merged = ResultSet.merge(parts)
        assert merged.same_pairs_as(full.result)

    def test_unicomp_cell_batches_union(self, uniform_3d, eps_3d):
        index = GridIndex.build(uniform_3d, eps_3d)
        full = K.selfjoin_unicomp_vectorized(index)
        n = index.num_nonempty_cells
        parts = [K.selfjoin_unicomp_vectorized(index, source_cells=part).result
                 for part in np.array_split(np.arange(n), 4)]
        from repro.core.result import ResultSet
        merged = ResultSet.merge(parts)
        assert merged.same_pairs_as(full.result)

    def test_empty_cell_subset(self, index_2d):
        out = K.selfjoin_global_vectorized(index_2d,
                                           source_cells=np.empty(0, dtype=np.int64))
        assert out.result.num_pairs == 0


class TestChunking:
    def test_small_chunk_limit_gives_same_result(self, uniform_2d, eps_2d):
        index = GridIndex.build(uniform_2d, eps_2d)
        big = K.selfjoin_unicomp_vectorized(index, max_candidate_pairs=10 ** 9)
        small = K.selfjoin_unicomp_vectorized(index, max_candidate_pairs=64)
        assert big.result.same_pairs_as(small.result)
        assert big.stats.distance_calcs == small.stats.distance_calcs

    def test_chunk_boundaries_cover_everything(self):
        counts = np.array([5, 10, 3, 50, 2, 2])
        bounds = K._chunk_boundaries(counts, max_candidate_pairs=12)
        assert bounds[0][0] == 0
        assert bounds[-1][1] == counts.shape[0]
        covered = []
        for lo, hi in bounds:
            covered.extend(range(lo, hi))
        assert covered == list(range(counts.shape[0]))

    def test_chunk_single_giant_pair(self):
        counts = np.array([1000])
        bounds = K._chunk_boundaries(counts, max_candidate_pairs=10)
        assert bounds == [(0, 1)]


class TestKernelStats:
    def test_merge_accumulates(self):
        a = K.KernelStats(cells_checked=2, nonempty_cells_visited=1,
                          distance_calcs=10, result_pairs=4)
        b = K.KernelStats(cells_checked=3, nonempty_cells_visited=2,
                          distance_calcs=5, result_pairs=1)
        a.merge(b)
        assert a.cells_checked == 5
        assert a.nonempty_cells_visited == 3
        assert a.distance_calcs == 15
        assert a.result_pairs == 5

    def test_registry_covers_all_kernel_variants(self):
        assert ("vectorized", True) in K.KERNELS
        assert ("vectorized", False) in K.KERNELS
        assert ("cellwise", True) in K.KERNELS
        assert ("cellwise", False) in K.KERNELS
        assert ("pointwise", False) in K.KERNELS


# --------------------------------------------------------------------------
# Id-space emission, kept as the oracle for the position-space hot path.
# --------------------------------------------------------------------------
def loop_chunk_boundaries(pair_counts, max_candidate_pairs):
    """The greedy chunking rule as a plain loop over the cell pairs."""
    boundaries = []
    lo = 0
    running = 0
    n = int(pair_counts.shape[0])
    for i in range(n):
        count = int(pair_counts[i])
        if running and running + count > max_candidate_pairs:
            boundaries.append((lo, i))
            lo = i
            running = 0
        running += count
    boundaries.append((lo, n))
    return boundaries


def id_space_expand(A, starts_s, sizes_s, starts_t, sizes_t):
    """Expand cell pairs into point-id pairs by flat-index division."""
    pair_counts = sizes_s * sizes_t
    total = int(pair_counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    pair_offsets = np.zeros(pair_counts.shape[0] + 1, dtype=np.int64)
    np.cumsum(pair_counts, out=pair_offsets[1:])
    pair_id = np.repeat(np.arange(pair_counts.shape[0], dtype=np.int64), pair_counts)
    local = np.arange(total, dtype=np.int64) - pair_offsets[pair_id]
    st_ = sizes_t[pair_id]
    i_local = local // st_
    j_local = local - i_local * st_
    return A[starts_s[pair_id] + i_local], A[starts_t[pair_id] + j_local]


def id_space_emit(index, src, tgt, eps, max_candidate_pairs, sink, mirror,
                  native_kernel=None):
    """Drop-in for ``_emit_pairs_chunked`` that gathers through ``A`` ids."""
    assert native_kernel is None
    eps2 = eps * eps
    points = index.points
    sizes_s = index.cell_counts[src].astype(np.int64)
    sizes_t = index.cell_counts[tgt].astype(np.int64)
    starts_s = index.cell_starts[src].astype(np.int64)
    starts_t = index.cell_starts[tgt].astype(np.int64)
    pair_counts = sizes_s * sizes_t
    n_dist = 0
    for lo, hi in loop_chunk_boundaries(pair_counts, max_candidate_pairs):
        q_idx, c_idx = id_space_expand(index.A, starts_s[lo:hi], sizes_s[lo:hi],
                                       starts_t[lo:hi], sizes_t[lo:hi])
        if q_idx.shape[0] == 0:
            continue
        diff = points[q_idx] - points[c_idx]
        dist2 = np.einsum("ij,ij->i", diff, diff)
        n_dist += int(dist2.shape[0])
        within = dist2 <= eps2
        sink.emit(q_idx[within], c_idx[within])
        if mirror:
            sink.emit(c_idx[within], q_idx[within])
    return n_dist


pair_count_lists = st.lists(
    st.one_of(st.integers(0, 40), st.integers(41, 500)), min_size=0, max_size=60)


class TestPositionSpaceEmission:
    @given(counts=pair_count_lists, bound=st.integers(1, 120))
    @settings(max_examples=300, deadline=None)
    def test_chunk_boundaries_match_greedy_loop(self, counts, bound):
        arr = np.asarray(counts, dtype=np.int64)
        assert K._chunk_boundaries(arr, bound) == loop_chunk_boundaries(arr, bound)

    @pytest.mark.parametrize("counts,bound", [
        ([3, 1, 4, 1, 5], 1),
        ([2, 3, 1000, 2, 2], 10),
        ([0, 0, 1000, 0, 4], 10),
        ([5, 5, 5], 10 ** 12),
        ([], 4),
    ])
    def test_chunk_boundaries_edge_cases(self, counts, bound):
        arr = np.asarray(counts, dtype=np.int64)
        assert K._chunk_boundaries(arr, bound) == loop_chunk_boundaries(arr, bound)

    @pytest.mark.parametrize("dims", [2, 3, 5])
    def test_position_expansion_matches_id_space(self, dims):
        rng = np.random.default_rng(dims)
        pts = rng.uniform(0.0, 6.0, size=(400, dims))
        index = GridIndex.build(pts, 1.0)
        resolver = NeighborResolver(index, index.cell_coords, index.B)
        for offset in all_neighbor_offsets(dims, include_home=True)[:9]:
            src, tgt, _ = resolver.resolve(offset)
            ranges = (index.cell_starts[src], index.cell_counts[src],
                      index.cell_starts[tgt], index.cell_counts[tgt])
            q_pos, c_pos = K._expand_cell_pair_positions(*ranges)
            q_ids, c_ids = id_space_expand(index.A, *ranges)
            assert np.array_equal(index.A[q_pos], q_ids)
            assert np.array_equal(index.A[c_pos], c_ids)

    def test_b_ordered_points_cached_and_outside_footprint(self, index_2d):
        footprint = index_2d.memory_footprint()
        pts_b = index_2d.b_ordered_points
        assert np.array_equal(pts_b, index_2d.points[index_2d.A])
        assert index_2d.b_ordered_points is pts_b
        assert index_2d.memory_footprint() == footprint

    @pytest.mark.parametrize("dims", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("unicomp", [False, True])
    def test_emission_order_and_stats_unchanged(self, dims, unicomp, monkeypatch):
        rng = np.random.default_rng(100 + dims)
        pts = rng.uniform(0.0, 5.0, size=(500, dims))
        eps = 0.45 * dims ** 0.5
        kernel = K.selfjoin_unicomp_vectorized if unicomp \
            else K.selfjoin_global_vectorized
        index = GridIndex.build(pts, eps)
        # A small chunk bound makes every offset span several chunks.
        new = kernel(index, max_candidate_pairs=997)
        monkeypatch.setattr(K, "_emit_pairs_chunked", id_space_emit)
        old = kernel(GridIndex.build(pts, eps), max_candidate_pairs=997)
        assert np.array_equal(new.result.keys, old.result.keys)
        assert np.array_equal(new.result.values, old.result.values)
        for counter in ("distance_calcs", "cells_checked", "result_pairs"):
            assert getattr(new.stats, counter) == getattr(old.stats, counter)
        assert new.stats.result_pairs > pts.shape[0]

    @pytest.mark.parametrize("unicomp", [False, True])
    def test_pairs_at_exactly_eps_are_kept(self, unicomp, monkeypatch):
        # Integer lattice with ε = 1: every axis neighbour sits exactly on ε.
        grid = np.stack(np.meshgrid(np.arange(12.0), np.arange(9.0)), axis=-1)
        pts = grid.reshape(-1, 2)
        kernel = K.selfjoin_unicomp_vectorized if unicomp \
            else K.selfjoin_global_vectorized
        new = kernel(GridIndex.build(pts, 1.0), max_candidate_pairs=50)
        monkeypatch.setattr(K, "_emit_pairs_chunked", id_space_emit)
        old = kernel(GridIndex.build(pts, 1.0), max_candidate_pairs=50)
        assert np.array_equal(new.result.keys, old.result.keys)
        assert np.array_equal(new.result.values, old.result.values)
        # Self-pairs plus the 2 * (11 * 9 + 12 * 8) directed axis pairs.
        assert new.result.num_pairs == pts.shape[0] + 2 * (11 * 9 + 12 * 8)
