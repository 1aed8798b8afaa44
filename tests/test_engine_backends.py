"""Backend-parity property tests for the unified query engine.

Every registered execution backend — including the index-free brute-force
reference — must produce *identical* CSR neighbor tables (same offsets
array, same neighbor array) for the same query, across dimensionalities
2–6, with and without UNICOMP, and with and without batching.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.baselines.bruteforce import bruteforce_join, bruteforce_selfjoin
from repro.core import linearize as lin
from repro.core import nativekernels as nk
from repro.core.gridindex import GridIndex, _run_length_encode
from repro.core.kernels import DEFAULT_MAX_CANDIDATE_PAIRS, KernelStats
from repro.core.neighbors import all_neighbor_offsets
from repro.core.result import NeighborTable, PairFragments
from repro.data.synthetic import exponential_dataset, uniform_dataset
from repro.engine import (Query, QueryPlanner, available_backends, execute,
                          run_query)
from repro.engine import backends
from repro.utils.cancellation import (CancellationToken, OperationCancelled,
                                      cancel_scope)

ALL_DIMS = [2, 3, 4, 5, 6]

#: Dataset size per dimensionality (smaller in high dimensions, where the
#: 3^n candidate-cell walks of the reference backends dominate runtime).
POINTS_BY_DIM = {2: 140, 3: 120, 4: 90, 5: 70, 6: 50}
EPS_BY_DIM = {2: 0.9, 3: 1.0, 4: 1.2, 5: 1.4, 6: 1.6}


def _selfjoin_table(points, eps, backend, unicomp, batching=False) -> NeighborTable:
    planner = QueryPlanner(backend=backend, batching=batching, min_batches=4)
    query = Query.self_join(points, eps, unicomp=unicomp, batching=batching)
    return execute(planner.plan(query)).neighbor_table


def _reference_selfjoin_table(points, eps) -> NeighborTable:
    return bruteforce_selfjoin(points, eps).result.to_neighbor_table()


class TestSelfJoinParity:
    @pytest.mark.parametrize("dims", ALL_DIMS)
    @pytest.mark.parametrize("unicomp", [False, True])
    def test_all_backends_match_bruteforce(self, dims, unicomp):
        points = uniform_dataset(POINTS_BY_DIM[dims], dims, seed=40 + dims,
                                 low=0.0, high=4.0)
        eps = EPS_BY_DIM[dims]
        reference = _reference_selfjoin_table(points, eps)
        assert reference.num_pairs > points.shape[0]  # non-trivial workload
        for backend in available_backends():
            if backend == "pointwise" and unicomp:
                continue  # no UNICOMP variant (rejected at planning time)
            table = _selfjoin_table(points, eps, backend, unicomp)
            assert table.same_contents_as(reference), (backend, dims, unicomp)

    @pytest.mark.parametrize("dims", ALL_DIMS)
    @pytest.mark.parametrize("backend", ["vectorized", "cellwise"])
    @pytest.mark.parametrize("unicomp", [False, True])
    def test_batched_equals_unbatched(self, dims, backend, unicomp):
        points = uniform_dataset(POINTS_BY_DIM[dims], dims, seed=60 + dims,
                                 low=0.0, high=4.0)
        eps = EPS_BY_DIM[dims]
        unbatched = _selfjoin_table(points, eps, backend, unicomp, batching=False)
        batched = _selfjoin_table(points, eps, backend, unicomp, batching=True)
        assert batched.same_contents_as(unbatched), (backend, dims, unicomp)

    def test_pointwise_unicomp_rejected(self):
        points = uniform_dataset(50, 2, seed=1)
        with pytest.raises(ValueError):
            run_query(Query.self_join(points, 0.5, unicomp=True),
                      backend="pointwise")


class TestBipartiteParity:
    @pytest.mark.parametrize("dims", ALL_DIMS)
    def test_all_backends_match_bruteforce(self, dims):
        left = uniform_dataset(POINTS_BY_DIM[dims] // 2, dims, seed=80 + dims,
                               low=0.0, high=4.0)
        right = uniform_dataset(POINTS_BY_DIM[dims], dims, seed=90 + dims,
                                low=0.0, high=4.0)
        eps = EPS_BY_DIM[dims]
        reference = bruteforce_join(left, right, eps).result.to_neighbor_table()
        assert reference.num_pairs > 0
        for backend in available_backends():
            table = run_query(Query.bipartite_join(left, right, eps),
                              backend=backend).neighbor_table
            assert table.same_contents_as(reference), (backend, dims)

    def test_swapped_index_side_matches(self):
        # Left larger than right: the planner indexes the left side and
        # mirrors the pairs back; the result must be unchanged.
        left = uniform_dataset(220, 2, seed=7, low=0.0, high=5.0)
        right = uniform_dataset(80, 2, seed=8, low=0.0, high=5.0)
        reference = bruteforce_join(left, right, 0.8).result.to_neighbor_table()
        table = run_query(Query.bipartite_join(left, right, 0.8)).neighbor_table
        assert table.same_contents_as(reference)

    def test_probe_batching_matches_unbatched(self):
        left = uniform_dataset(150, 3, seed=9, low=0.0, high=5.0)
        right = uniform_dataset(120, 3, seed=10, low=0.0, high=5.0)
        batched = run_query(Query.bipartite_join(left, right, 0.9, batching=True))
        unbatched = run_query(Query.bipartite_join(left, right, 0.9, batching=False))
        assert batched.batch_report is not None
        assert len(batched.batch_report.batch_pairs) >= 3
        assert batched.neighbor_table.same_contents_as(unbatched.neighbor_table)


class TestRangeAndKNNKinds:
    def test_range_query_kind_matches_bipartite(self):
        data = uniform_dataset(160, 2, seed=11, low=0.0, high=6.0)
        queries = uniform_dataset(40, 2, seed=12, low=0.0, high=6.0)
        range_table = run_query(Query.range_query(data, queries, 0.9)).neighbor_table
        join_table = run_query(Query.bipartite_join(queries, data, 0.9)).neighbor_table
        assert range_table.same_contents_as(join_table)

    @pytest.mark.parametrize("backend", ["vectorized", "cellwise", "bruteforce"])
    def test_knn_candidates_contain_true_neighbors(self, backend):
        from scipy.spatial import cKDTree

        points = uniform_dataset(250, 2, seed=13, low=0.0, high=8.0)
        k = 5
        table = run_query(Query.knn_candidates(points, k),
                          backend=backend).neighbor_table
        counts = table.counts()
        assert np.all(counts >= k)
        _, true_nn = cKDTree(points).query(points, k=k + 1)
        for qi in range(points.shape[0]):
            row = set(table.neighbors_of(qi).tolist())
            assert qi not in row  # include_self defaults to False
            assert set(true_nn[qi, 1:].tolist()) <= row


# --------------------------------------------------------------------------
# fused position-space probe vs the per-offset id-space probe it replaced
# --------------------------------------------------------------------------
def per_offset_probe(queries, index, eps, sink, rows, max_candidate_pairs,
                     native_kernel=None):
    """Oracle: the per-offset, id-space vectorized probe (previous version).

    One mask filter and one cell lookup per offset, then a greedy chunk
    loop over the (query group, index cell) pairs expanding candidates in
    id space with ``//``.
    """
    stats = KernelStats()
    rows = np.arange(queries.shape[0], dtype=np.int64) if rows is None \
        else np.asarray(rows, dtype=np.int64)
    if rows.shape[0] == 0:
        return stats
    probe_pts = queries[rows]
    eps2 = eps * eps
    coords = lin.compute_cell_coords(probe_pts, index.gmin, index.eps,
                                     index.num_cells)
    cell_ids = lin.linearize(coords, index.strides)
    order = np.argsort(cell_ids, kind="stable")
    unique_ids, starts, counts = _run_length_encode(cell_ids[order])
    group_coords = lin.delinearize(unique_ids, index.num_cells)
    before = sink.num_pairs
    for offset in all_neighbor_offsets(index.num_dims, include_home=True):
        neighbor = group_coords + offset[None, :]
        inside = np.all((neighbor >= 0) & (neighbor < index.num_cells[None, :]),
                        axis=1)
        for j, mask in enumerate(index.masks):
            if not inside.any():
                break
            pos = np.searchsorted(mask, neighbor[:, j])
            pos = np.minimum(pos, mask.shape[0] - 1)
            inside &= mask[pos] == neighbor[:, j]
        candidates = np.flatnonzero(inside)
        stats.cells_checked += int(candidates.shape[0])
        if candidates.shape[0] == 0:
            continue
        target = index.lookup_cells(
            lin.linearize(neighbor[candidates], index.strides))
        found = target >= 0
        src_groups = candidates[found]
        tgt_cells = target[found]
        stats.nonempty_cells_visited += int(src_groups.shape[0])
        if src_groups.shape[0] == 0:
            continue
        sizes_s = counts[src_groups].astype(np.int64)
        sizes_t = index.cell_counts[tgt_cells].astype(np.int64)
        starts_s = starts[src_groups].astype(np.int64)
        starts_t = index.cell_starts[tgt_cells].astype(np.int64)
        pair_counts = sizes_s * sizes_t
        lo, n_pairs = 0, pair_counts.shape[0]
        while lo < n_pairs:
            hi, running = lo, 0
            while hi < n_pairs and (running == 0 or running + pair_counts[hi]
                                    <= max_candidate_pairs):
                running += int(pair_counts[hi])
                hi += 1
            chunk = slice(lo, hi)
            chunk_counts = pair_counts[chunk]
            chunk_total = int(chunk_counts.sum())
            if native_kernel is not None:
                keys = np.empty(chunk_total, dtype=np.int64)
                values = np.empty(chunk_total, dtype=np.int64)
                n = native_kernel(probe_pts, index.points, order, index.A,
                                  starts_s[chunk], sizes_s[chunk],
                                  starts_t[chunk], sizes_t[chunk],
                                  eps2, keys, values, False)
                stats.distance_calcs += chunk_total
                sink.emit(rows[keys[:n]], values[:n].copy())
            else:
                pair_offsets = np.zeros(chunk_counts.shape[0] + 1, dtype=np.int64)
                np.cumsum(chunk_counts, out=pair_offsets[1:])
                pair_id = np.repeat(np.arange(chunk_counts.shape[0]), chunk_counts)
                local = np.arange(chunk_total) - pair_offsets[pair_id]
                st = sizes_t[chunk][pair_id]
                i_local = local // st
                j_local = local - i_local * st
                q_idx = order[starts_s[chunk][pair_id] + i_local]
                c_idx = index.A[starts_t[chunk][pair_id] + j_local]
                diff = probe_pts[q_idx] - index.points[c_idx]
                dist2 = np.einsum("ij,ij->i", diff, diff)
                stats.distance_calcs += int(dist2.shape[0])
                within = dist2 <= eps2
                sink.emit(rows[q_idx[within]], c_idx[within])
            lo = hi
    stats.result_pairs = sink.num_pairs - before
    return stats


PROBE_COUNTERS = ("cells_checked", "nonempty_cells_visited", "distance_calcs",
                  "result_pairs")


def _assert_probe_matches_oracle(queries, index, eps, rows, max_candidate_pairs,
                                 native_kernel=None):
    """Run both probes; the unsorted emission and all counters must match."""
    ref_sink = PairFragments(queries.shape[0])
    ref = per_offset_probe(queries, index, eps, ref_sink, rows,
                           max_candidate_pairs, native_kernel)
    sink = PairFragments(queries.shape[0])
    got = backends._vectorized_probe(queries, index, eps, sink, rows,
                                     max_candidate_pairs, native_kernel)
    ref_keys, ref_values = ref_sink.concatenated()
    keys, values = sink.concatenated()
    np.testing.assert_array_equal(keys, ref_keys)
    np.testing.assert_array_equal(values, ref_values)
    for name in PROBE_COUNTERS:
        assert getattr(got, name) == getattr(ref, name), name
    return got, keys


def _probe_case(dims, dist):
    """An index and a query set (partly outside the index) per data regime."""
    if dist == "uniform":
        data = uniform_dataset(POINTS_BY_DIM[dims] * 2, dims, seed=120 + dims,
                               low=0.0, high=4.0)
        queries = uniform_dataset(POINTS_BY_DIM[dims], dims, seed=130 + dims,
                                  low=-0.5, high=4.5)
        eps = EPS_BY_DIM[dims]
    else:
        data = exponential_dataset(POINTS_BY_DIM[dims] * 2, dims, scale=1.0,
                                   seed=140 + dims)
        queries = exponential_dataset(POINTS_BY_DIM[dims], dims, scale=1.2,
                                      seed=150 + dims)
        eps = EPS_BY_DIM[dims] / 2
    return data, queries, eps


class TestFusedProbe:
    @pytest.mark.parametrize("block_rows", [None, 1, 10**6])
    @pytest.mark.parametrize("max_candidate_pairs",
                             [1, 997, DEFAULT_MAX_CANDIDATE_PAIRS])
    @pytest.mark.parametrize("subset", [False, True])
    @pytest.mark.parametrize("dist", ["uniform", "exponential"])
    @pytest.mark.parametrize("dims", ALL_DIMS)
    def test_matches_per_offset_probe(self, monkeypatch, dims, dist, subset,
                                      max_candidate_pairs, block_rows):
        if block_rows is not None:
            monkeypatch.setattr(backends, "_PROBE_BLOCK_ROWS", block_rows)
        data, queries, eps = _probe_case(dims, dist)
        index = GridIndex.build(data, eps)
        rows = None
        if subset:
            # An unsorted subset of the query rows.
            rows = np.random.default_rng(dims).permutation(
                queries.shape[0])[: queries.shape[0] * 2 // 3]
        stats, _ = _assert_probe_matches_oracle(queries, index, eps, rows,
                                                max_candidate_pairs)
        assert stats.result_pairs > 0

    @pytest.mark.parametrize("choice", ["dense", "sparse"])
    @pytest.mark.parametrize("dims", [2, 4])
    def test_native_branch_matches_per_offset_probe(self, dims, choice):
        # The kernel bodies run uncompiled here, so the per-chunk native
        # call and its row mapping are checked on every host.
        impl = {"dense": nk._pairs_dense_impl, "sparse": nk._pairs_sparse_impl}
        data, queries, eps = _probe_case(dims, "uniform")
        index = GridIndex.build(data, eps)
        rows = np.arange(queries.shape[0])[::-2]
        for max_candidate_pairs in (997, DEFAULT_MAX_CANDIDATE_PAIRS):
            _assert_probe_matches_oracle(queries, index, eps, rows,
                                         max_candidate_pairs, impl[choice])

    @pytest.mark.skipif(nk.numba_availability() is not None,
                        reason="numba not installed")
    @pytest.mark.parametrize("choice", ["dense", "sparse"])
    @pytest.mark.parametrize("dims", ALL_DIMS)
    def test_compiled_branch_matches_per_offset_probe(self, dims, choice):
        native = nk.native_pair_kernels()[choice]
        data, queries, eps = _probe_case(dims, "exponential")
        index = GridIndex.build(data, eps)
        _assert_probe_matches_oracle(queries, index, eps, None, 997, native)

    def test_queries_outside_index_extent(self):
        data = uniform_dataset(200, 3, seed=5, low=0.0, high=4.0)
        index = GridIndex.build(data, 0.8)
        far = uniform_dataset(30, 3, seed=6, low=50.0, high=60.0)
        edge = uniform_dataset(30, 3, seed=7, low=-1.0, high=0.5)
        queries = np.concatenate([far, edge])
        stats, keys = _assert_probe_matches_oracle(queries, index, 0.8, None,
                                                   DEFAULT_MAX_CANDIDATE_PAIRS)
        assert stats.result_pairs > 0
        assert keys.min() >= far.shape[0]  # nothing near the far block

    def test_empty_rows_emit_nothing(self):
        data = uniform_dataset(100, 2, seed=3)
        index = GridIndex.build(data, 0.5)
        sink = PairFragments(data.shape[0])
        stats = backends._vectorized_probe(data, index, 0.5, sink,
                                           np.empty(0, dtype=np.int64),
                                           DEFAULT_MAX_CANDIDATE_PAIRS)
        assert sink.num_pairs == 0
        for name in PROBE_COUNTERS:
            assert getattr(stats, name) == 0

    @pytest.mark.parametrize("dims", [2, 3])
    def test_lattice_pairs_exactly_at_eps(self, dims):
        # Integer lattice with eps = 1: every axis neighbour sits exactly at
        # eps and must be kept (``<=``), diagonals are out.
        axes = [np.arange(5, dtype=np.float64)] * dims
        lattice = np.stack(np.meshgrid(*axes, indexing="ij"),
                           axis=-1).reshape(-1, dims)
        index = GridIndex.build(lattice, 1.0)
        stats, _ = _assert_probe_matches_oracle(lattice, index, 1.0, None, 997)
        per_axis_edges = 4 * 5 ** (dims - 1)
        assert stats.result_pairs == lattice.shape[0] + 2 * dims * per_axis_edges

    def test_cancelled_token_stops_before_emitting(self):
        data = uniform_dataset(300, 3, seed=2)
        index = GridIndex.build(data, 0.6)
        token = CancellationToken()
        token.cancel()
        sink = PairFragments(data.shape[0])
        with cancel_scope(token), pytest.raises(OperationCancelled):
            backends._vectorized_probe(data, index, 0.6, sink, None,
                                       DEFAULT_MAX_CANDIDATE_PAIRS)
        assert sink.num_pairs == 0
