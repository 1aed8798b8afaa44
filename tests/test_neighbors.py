"""Unit tests for adjacent-cell enumeration and mask filtering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import neighbors as nb
from repro.core.gridindex import GridIndex
from repro.core.unicomp import unicomp_offset_mask


class TestAdjacentRanges:
    def test_interior_cell(self):
        ranges = nb.adjacent_ranges(np.array([3, 4]), np.array([10, 10]))
        assert ranges.tolist() == [[2, 4], [3, 5]]

    def test_clipped_at_lower_boundary(self):
        ranges = nb.adjacent_ranges(np.array([0, 0]), np.array([10, 10]))
        assert ranges.tolist() == [[0, 1], [0, 1]]

    def test_clipped_at_upper_boundary(self):
        ranges = nb.adjacent_ranges(np.array([9, 5]), np.array([10, 6]))
        assert ranges.tolist() == [[8, 9], [4, 5]]

    def test_single_cell_dimension(self):
        ranges = nb.adjacent_ranges(np.array([0]), np.array([1]))
        assert ranges.tolist() == [[0, 0]]


class TestMaskFilter:
    def test_filter_removes_empty_columns(self):
        ranges = np.array([[1, 3], [3, 5]])
        masks = [np.array([1, 2, 5]), np.array([3, 4, 5])]
        filtered = nb.mask_filter_ranges(ranges, masks)
        assert filtered[0].tolist() == [1, 2]
        assert filtered[1].tolist() == [3, 4, 5]

    def test_filter_can_be_empty(self):
        ranges = np.array([[4, 6]])
        masks = [np.array([0, 1, 9])]
        filtered = nb.mask_filter_ranges(ranges, masks)
        assert filtered[0].size == 0

    def test_filter_inclusive_bounds(self):
        ranges = np.array([[2, 4]])
        masks = [np.array([2, 4])]
        filtered = nb.mask_filter_ranges(ranges, masks)
        assert filtered[0].tolist() == [2, 4]


class TestEnumerateCandidates:
    def test_cartesian_product(self):
        filtered = [np.array([1, 2]), np.array([5])]
        cells = list(nb.enumerate_candidate_cells(filtered))
        assert [c.tolist() for c in cells] == [[1, 5], [2, 5]]

    def test_empty_dimension_yields_nothing(self):
        filtered = [np.array([1, 2]), np.array([], dtype=np.int64)]
        assert list(nb.enumerate_candidate_cells(filtered)) == []

    def test_three_dimensional_count(self):
        filtered = [np.array([0, 1]), np.array([3, 4, 5]), np.array([7])]
        assert len(list(nb.enumerate_candidate_cells(filtered))) == 6


class TestOffsets:
    @pytest.mark.parametrize("n_dims", [1, 2, 3, 4])
    def test_offset_count(self, n_dims):
        offsets = nb.all_neighbor_offsets(n_dims)
        assert offsets.shape == (3 ** n_dims, n_dims)

    def test_offsets_exclude_home(self):
        offsets = nb.all_neighbor_offsets(3, include_home=False)
        assert offsets.shape[0] == 3 ** 3 - 1
        assert not np.any(np.all(offsets == 0, axis=1))

    def test_offsets_unique(self):
        offsets = nb.all_neighbor_offsets(3)
        assert np.unique(offsets, axis=0).shape[0] == offsets.shape[0]

    def test_offsets_values_in_range(self):
        offsets = nb.all_neighbor_offsets(4)
        assert offsets.min() == -1 and offsets.max() == 1

    @pytest.mark.parametrize("n_dims", [1, 2, 3, 4, 5, 6])
    @pytest.mark.parametrize("include_home", [True, False])
    def test_memoised_offsets_match_meshgrid(self, n_dims, include_home):
        axes = [np.array([-1, 0, 1], dtype=np.int64)] * n_dims
        grids = np.meshgrid(*axes, indexing="ij")
        expected = np.stack([g.ravel() for g in grids], axis=1)
        if not include_home:
            expected = expected[np.any(expected != 0, axis=1)]
        offsets = nb.all_neighbor_offsets(n_dims, include_home=include_home)
        assert offsets.dtype == np.int64
        assert np.array_equal(offsets, expected)

    def test_memoised_offsets_are_shared_and_read_only(self):
        offsets = nb.all_neighbor_offsets(3)
        assert nb.all_neighbor_offsets(3) is offsets
        assert nb.all_neighbor_offsets(np.int64(3), include_home=True) \
            is offsets
        assert nb.all_neighbor_offsets(3, include_home=False) is \
            nb.all_neighbor_offsets(3, include_home=False)
        assert not offsets.flags.writeable
        assert not nb.all_neighbor_offsets(3, include_home=False) \
            .flags.writeable
        with pytest.raises(ValueError):
            offsets[0, 0] = 5


class TestNeighborCellsForOffset:
    def test_zero_offset_maps_each_cell_to_itself(self, index_2d):
        src, tgt = nb.neighbor_cells_for_offset(index_2d, np.zeros(2, dtype=np.int64))
        assert np.array_equal(src, tgt)
        assert src.shape[0] == index_2d.num_nonempty_cells

    def test_offset_pairs_are_truly_adjacent(self, index_2d):
        offset = np.array([1, 0], dtype=np.int64)
        src, tgt = nb.neighbor_cells_for_offset(index_2d, offset)
        assert np.array_equal(index_2d.cell_coords[src] + offset,
                              index_2d.cell_coords[tgt])

    def test_candidate_cells_of_point_contains_home(self, index_2d):
        for pid in (0, 5, 100):
            cells = nb.candidate_cells_of_point(index_2d, pid)
            home = index_2d.lookup_cell(int(index_2d.point_cell_ids[pid]))
            assert home in cells

    def test_candidate_cells_are_nonempty_and_adjacent(self, index_3d):
        pid = 3
        coords = index_3d.cell_of_point(pid)
        for h in nb.candidate_cells_of_point(index_3d, pid):
            diff = np.abs(index_3d.cell_coords[h] - coords)
            assert diff.max() <= 1
            assert index_3d.cell_counts[h] >= 1


# --------------------------------------------------------------------------
# table-driven resolver vs the per-dimension binary-search resolver
# --------------------------------------------------------------------------
def searchsorted_resolve(index, coords, offset):
    """Oracle: the mask filter as one ``searchsorted`` of ``M_j`` per dimension.

    The resolver the vectorized kernels used before the occupancy bitmaps,
    generalized from source cells to arbitrary source coordinates.  Returns
    ``(rows, tgt, checked)`` with ``rows`` indexing ``coords``.
    """
    neighbor = coords + np.asarray(offset, dtype=np.int64)[None, :]
    inside = np.all((neighbor >= 0) & (neighbor < index.num_cells[None, :]), axis=1)
    for j, mask in enumerate(index.masks):
        if not inside.any():
            break
        pos = np.searchsorted(mask, neighbor[:, j])
        pos = np.minimum(pos, mask.shape[0] - 1)
        inside &= mask[pos] == neighbor[:, j]
    candidates = np.flatnonzero(inside)
    checked = int(candidates.shape[0])
    if checked == 0:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0)
    linear = index.coords_to_linear(neighbor[candidates])
    tgt = index.lookup_cells(linear)
    found = tgt >= 0
    return candidates[found].astype(np.int64), tgt[found].astype(np.int64), checked


def oracle_offset(index, coords, offset, unicomp):
    """The oracle for one offset, with UNICOMP selecting the sources first."""
    if unicomp and np.any(offset != 0):
        selected = np.flatnonzero(unicomp_offset_mask(coords, offset))
    else:
        selected = np.arange(coords.shape[0])
    rows, tgt, checked = searchsorted_resolve(index, coords[selected], offset)
    return selected[rows], tgt, checked


def assert_matches_oracle(index, coords, unicomp=False, linear=None):
    resolver = nb.NeighborResolver(index, coords, linear, unicomp=unicomp)
    offsets = nb.all_neighbor_offsets(index.num_dims, include_home=True)
    expected = []
    for offset in offsets:
        rows, tgt, checked = resolver.resolve(offset)
        want = oracle_offset(index, coords, offset, unicomp)
        assert np.array_equal(rows, want[0]), offset
        assert np.array_equal(tgt, want[1]), offset
        assert checked == want[2], offset
        assert rows.dtype == tgt.dtype == np.int64
        expected.append(want)
    # A block of offsets resolves to the per-offset results, offset-major.
    for lo, hi in ((0, offsets.shape[0]), (1, min(5, offsets.shape[0]))):
        rows, tgt, checked = resolver.resolve(offsets[lo:hi])
        assert np.array_equal(rows, np.concatenate([e[0] for e in expected[lo:hi]]))
        assert np.array_equal(tgt, np.concatenate([e[1] for e in expected[lo:hi]]))
        assert checked == sum(e[2] for e in expected[lo:hi])


def _points(kind, dims, n=1500, seed=0):
    rng = np.random.default_rng(seed + dims)
    if kind == "uniform":
        return rng.uniform(0.0, 5.0, size=(n, dims)), 0.5
    if kind == "exponential":
        return rng.exponential(2.0, size=(n, dims)), 0.4
    # Clusters on a sparse lattice: empty coordinate slabs between them
    # leave gaps in every mask.
    centers = rng.choice([0.0, 3.0, 8.0, 9.0], size=(6, dims))
    pts = centers[rng.integers(0, 6, n)] + rng.normal(0.0, 0.15, (n, dims))
    return pts, 0.5


class TestNeighborResolver:
    @pytest.mark.parametrize("dims", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("kind", ["uniform", "exponential", "clustered"])
    @pytest.mark.parametrize("unicomp", [False, True])
    def test_matches_oracle_on_cell_subsets(self, dims, kind, unicomp):
        pts, eps = _points(kind, dims)
        index = GridIndex.build(pts, eps)
        m = index.num_nonempty_cells
        rng = np.random.default_rng(dims)
        subsets = [np.arange(m), np.arange(m // 4, 3 * m // 4),
                   rng.permutation(m)[: max(1, m // 3)]]
        for cells in subsets:
            assert_matches_oracle(index, index.cell_coords[cells], unicomp,
                                  linear=index.B[cells])

    def test_clustered_masks_have_gaps(self):
        pts, eps = _points("clustered", 3)
        index = GridIndex.build(pts, eps)
        assert all(mask.shape[0] < n for mask, n in zip(index.masks, index.num_cells))

    @pytest.mark.parametrize("unicomp", [False, True])
    def test_dimension_one_cell_wide(self, unicomp):
        # A constant coordinate occupies one cell of its dimension; both
        # shifted neighbours there are empty.
        rng = np.random.default_rng(7)
        pts = rng.uniform(0.0, 4.0, size=(800, 3))
        pts[:, 1] = 0.25
        index = GridIndex.build(pts, 0.5)
        assert index.masks[1].shape[0] == 1
        assert_matches_oracle(index, index.cell_coords, unicomp)

    @pytest.mark.parametrize("dims", [2, 4])
    def test_source_coordinates_outside_the_grid(self, dims):
        pts, eps = _points("clustered", dims)
        index = GridIndex.build(pts, eps)
        rng = np.random.default_rng(11)
        near = index.cell_coords[rng.integers(0, index.num_nonempty_cells, 200)]
        near = near + rng.integers(-3, 4, size=near.shape)
        far = np.stack([np.full(dims, -100), index.num_cells + 50,
                        np.full(dims, -1), index.num_cells])
        assert_matches_oracle(index, np.concatenate([near, far]))

    def test_no_sources(self, index_2d):
        resolver = nb.NeighborResolver(index_2d, np.empty((0, 2), dtype=np.int64))
        rows, tgt, checked = resolver.resolve(nb.all_neighbor_offsets(2))
        assert rows.shape == tgt.shape == (0,) and checked == 0

    def test_bitmaps_mirror_masks_cached_and_outside_footprint(self, index_3d):
        footprint = index_3d.memory_footprint()
        bitmaps = index_3d.occupancy_bitmaps
        for bitmap, mask, n in zip(bitmaps, index_3d.masks, index_3d.num_cells):
            assert bitmap.shape == (n + 2,)
            assert not bitmap[0] and not bitmap[-1]
            assert np.array_equal(np.flatnonzero(bitmap) - 1, mask)
        assert index_3d.occupancy_bitmaps is bitmaps
        assert index_3d.memory_footprint() == footprint
