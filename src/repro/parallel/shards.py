"""Shard planning: contiguous, cost-balanced partitions of the grid.

A *shard* is a contiguous ``B``-order slice of the grid's non-empty cells.
Because the non-empty cells partition the dataset's origin points — and the
UNICOMP rule assigns every unordered adjacent-cell pair to exactly one
evaluating cell — any partition of the cells yields shards whose self-join
results are disjoint: merging their :class:`~repro.core.result.PairFragments`
needs no deduplication.  The :class:`ShardPlanner` chooses the slice
boundaries on *sampled per-cell cost estimates*
(:func:`repro.core.batching.estimate_cell_costs`, the same sampling idea the
device-model :class:`~repro.core.batching.BatchPlanner` uses for its result
buffer) rather than even cell counts, so a shard over a dense region stays
comparable in work to one over sparse space.

The plan is consumed serially by
:class:`repro.parallel.sharded.ShardedBackend` and concurrently by
:class:`repro.parallel.mp.MultiprocessBackend` and
:class:`repro.distributed.backend.DistributedBackend`.  The worker side of
both concurrent backends is one :class:`ResidentDataset`: the dataset held
once per worker, a per-ε index cache, and the per-shard bodies.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Iterable, List, Optional

import numpy as np

from repro.core.batching import estimate_cell_costs, split_by_cost
from repro.core.gridindex import GridIndex, SubsetIndex
from repro.core.kernels import DEFAULT_MAX_CANDIDATE_PAIRS
from repro.core.result import PairFragments
from repro.engine.backends import get_backend

#: Environment override for the default worker/shard count.
WORKERS_ENV_VAR = "REPRO_PARALLEL_WORKERS"


def default_worker_count() -> int:
    """Worker count to use when none is requested.

    ``REPRO_PARALLEL_WORKERS`` wins when set (CI pins it to make parallel
    runs reproducible); otherwise the host's CPU count.
    """
    override = os.environ.get(WORKERS_ENV_VAR)
    if override:
        return max(1, int(override))
    return max(1, os.cpu_count() or 1)


@dataclass
class ShardPlan:
    """A partition of (a subset of) the non-empty cells into shards.

    Attributes
    ----------
    shards:
        One int64 array of cell indices (into ``B``) per shard; contiguous,
        non-empty slices of the planned cell subset (a dominant cell is
        isolated into its own shard).  Only the degenerate plan over an
        empty cell subset holds a single empty shard.
    estimated_costs:
        Estimated work per shard, aligned with ``shards``.
    cell_costs:
        Per-cell cost estimates, one array per shard aligned with its cell
        array.  The adaptive scheduler uses these to place the cost-weighted
        ``B``-order boundary when it splits an in-flight shard
        (:meth:`repro.parallel.scheduler.ShardTask.split`).
    """

    shards: List[np.ndarray]
    estimated_costs: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=np.float64))
    cell_costs: List[np.ndarray] = field(default_factory=list)

    @property
    def n_shards(self) -> int:
        """Number of planned shards (including empty ones)."""
        return len(self.shards)

    def total_cells(self) -> int:
        """Total number of cells across shards."""
        return int(sum(s.shape[0] for s in self.shards))

    def cells(self) -> np.ndarray:
        """All planned cells in shard order (the partitioned domain)."""
        if not self.shards:
            return np.empty(0, dtype=np.int64)
        return np.concatenate(self.shards)


class ShardPlanner:
    """Plans cost-balanced shard decompositions of grid self-joins.

    Parameters
    ----------
    n_shards:
        Number of shards to produce (clamped to the cell count); defaults to
        :func:`default_worker_count`.
    sample_fraction, max_sample_cells, seed:
        Forwarded to :func:`repro.core.batching.estimate_cell_costs`.
    """

    def __init__(self, n_shards: Optional[int] = None,
                 sample_fraction: float = 0.05, max_sample_cells: int = 512,
                 seed: int = 0) -> None:
        if n_shards is not None and n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        self.n_shards = int(n_shards) if n_shards is not None else None
        self.sample_fraction = float(sample_fraction)
        self.max_sample_cells = int(max_sample_cells)
        self.seed = int(seed)

    def plan(self, index: GridIndex,
             cells: Optional[np.ndarray] = None) -> ShardPlan:
        """Partition ``cells`` (all non-empty cells when ``None``) into shards.

        The given cell order is preserved, so a contiguous ``B``-order input
        (the whole grid, or one device-model batch) yields contiguous
        ``B``-order shards.
        """
        if cells is None:
            cells = np.arange(index.num_nonempty_cells, dtype=np.int64)
        else:
            cells = np.asarray(cells, dtype=np.int64)
        n_shards = self.n_shards or default_worker_count()
        if cells.shape[0] == 0:
            return ShardPlan(shards=[np.empty(0, dtype=np.int64)],
                             estimated_costs=np.zeros(1, dtype=np.float64),
                             cell_costs=[np.empty(0, dtype=np.float64)])
        costs = estimate_cell_costs(index, sample_fraction=self.sample_fraction,
                                    max_sample_cells=self.max_sample_cells,
                                    seed=self.seed)[cells]
        slices = split_by_cost(costs, n_shards)
        return ShardPlan(
            shards=[cells[s] for s in slices],
            estimated_costs=np.array([float(costs[s].sum()) for s in slices]),
            cell_costs=[costs[s].astype(np.float64) for s in slices])


def merge_fragments(num_rows: int,
                    parts: Iterable[PairFragments]) -> PairFragments:
    """Merge per-shard sinks into one master sink (no dedup, no sort).

    Shards partition the origin cells, so their fragments are disjoint by
    construction; the merge is a pure fragment-list concatenation.  Empty
    sinks are absorbed without effect.  All sinks must cover the same row
    space (``num_rows``) or :class:`ValueError` is raised.
    """
    master = PairFragments(num_rows)
    for part in parts:
        master.extend(part)
    return master


def probe_store_shard(source, lo: int, hi: int, eps: float, backend,
                      max_candidate_pairs: int = DEFAULT_MAX_CANDIDATE_PAIRS):
    """Join the points of directory range ``[lo, hi)`` of a store, out of core.

    The per-shard body of a streamed self-join, shared by
    :meth:`repro.parallel.sharded.ShardedBackend.run_selfjoin_streamed` and
    :meth:`ResidentDataset.stream`: reads the owned cell range plus its
    ε-halo (a few contiguous reads), builds a shard-local
    :class:`~repro.core.gridindex.SubsetIndex` and probes the owned points
    against it with ``backend``.  Returns ``(keys, values, stats)`` with
    both pair sides in global (original) point ids.
    """
    owned_pts, owned_ids = source.read_cell_range(lo, hi)
    halo_pts, halo_ids = source.read_cell_positions(
        source.halo_positions(lo, hi, source.halo_radius(eps)))
    if halo_pts.shape[0]:
        local_pts = np.concatenate([owned_pts, halo_pts])
        local_ids = np.concatenate([owned_ids, halo_ids])
    else:
        local_pts, local_ids = owned_pts, owned_ids
    sub = SubsetIndex.build(local_pts, local_ids, eps)
    local_sink = PairFragments(owned_pts.shape[0])
    stats = backend.run_probe(owned_pts, sub.index, eps, local_sink,
                              max_candidate_pairs=max_candidate_pairs)
    keys, values = local_sink.concatenated()
    # Owned points occupy local rows [0, n_owned), so their global ids come
    # straight off the slice's id map.
    return owned_ids[keys], sub.to_global(values), stats


class ResidentDataset:
    """One dataset resident in a worker, and the shard work run against it.

    The worker half of the concurrent backends: a ``multiprocess`` pool
    worker holds one (built by the pool initializer from a store path, a
    shared-memory view or pickled points), a ``distributed`` TCP worker one
    per attached dataset name.  Every shard method returns
    ``(keys, values, stats)`` with the pair ids already in original dataset
    ids.

    A store-backed dataset (:meth:`from_store`) holds the *stored* (B-order)
    rows and the store's ``ids`` directory.  The grid — and so the shard
    cell numbering — equals the parent's original-order index (same point
    set, same ε); emitted stored-row positions are translated back through
    ``ids`` before returning, so results match the in-memory path exactly.

    Indexes are built lazily per ε and kept in an LRU of
    :attr:`index_cache_size` entries (the kNN radius-doubling loop asks for
    one index per doubled ε).  The cache is locked: a TCP worker runs shards
    on several compute threads, and each ε is built once.
    """

    #: LRU bound on the per-ε index cache.
    index_cache_size = 8

    def __init__(self, points: np.ndarray, inner: str, *,
                 ids: Optional[np.ndarray] = None, store=None) -> None:
        self.points = points
        self.inner = inner
        self.ids = np.asarray(ids) if ids is not None else None
        self.store = store
        self._indexes: "OrderedDict[float, GridIndex]" = OrderedDict()
        self._lock = threading.Lock()

    @classmethod
    def from_store(cls, store, inner: str) -> "ResidentDataset":
        """Map an on-disk store: its stored rows, ids directory and file."""
        return cls(store.stored_points(), inner, ids=store.stored_ids(),
                   store=store)

    def index_for(self, index_eps: float) -> GridIndex:
        """The index at ``index_eps``, built once and LRU-cached."""
        key = float(index_eps)
        with self._lock:
            index = self._indexes.get(key)
            if index is None:
                index = GridIndex.build(self.points, key)
                self._indexes[key] = index
                while len(self._indexes) > self.index_cache_size:
                    self._indexes.popitem(last=False)
            else:
                self._indexes.move_to_end(key)
        return index

    def selfjoin(self, index_eps: float, cells: np.ndarray, eps: float,
                 unicomp: bool = False,
                 max_candidate_pairs: int = DEFAULT_MAX_CANDIDATE_PAIRS):
        """Self-join one cell shard of the index at ``index_eps``."""
        index = self.index_for(index_eps)
        sink = PairFragments(index.num_points)
        stats = get_backend(self.inner).run_selfjoin(
            index, eps, cells, sink, unicomp=unicomp,
            max_candidate_pairs=max_candidate_pairs)
        keys, values = sink.concatenated()
        if self.ids is not None:
            keys, values = self.ids[keys], self.ids[values]
        return keys, values, stats

    def probe(self, index_eps: float, eps: float,
              queries: Optional[np.ndarray] = None,
              rows: Optional[np.ndarray] = None,
              max_candidate_pairs: int = DEFAULT_MAX_CANDIDATE_PAIRS):
        """Probe query ``rows`` against the index at ``index_eps``.

        ``queries=None`` probes the resident points themselves, so a
        session probing its own dataset ships only row ids; the keys are
        then dataset ids.  Otherwise the keys are rows of ``queries`` (a
        caller shipping a slice re-bases them onto its global rows).
        """
        index = self.index_for(index_eps)
        own = queries is None
        if own:
            queries = self.points
        sink = PairFragments(queries.shape[0])
        stats = get_backend(self.inner).run_probe(
            queries, index, eps, sink, rows=rows,
            max_candidate_pairs=max_candidate_pairs)
        keys, values = sink.concatenated()
        if self.ids is not None:
            values = self.ids[values]
            if own:
                keys = self.ids[keys]
        return keys, values, stats

    def stream(self, lo: int, hi: int, eps: float,
               max_candidate_pairs: int = DEFAULT_MAX_CANDIDATE_PAIRS):
        """Disk-streamed self-join of directory range ``[lo, hi)``.

        Runs :func:`probe_store_shard` against this worker's own mapping of
        the store; the pairs come back in global ids.
        """
        if self.store is None:
            raise ValueError("a streamed shard needs a store-backed dataset")
        return probe_store_shard(self.store, lo, hi, eps,
                                 get_backend(self.inner), max_candidate_pairs)
