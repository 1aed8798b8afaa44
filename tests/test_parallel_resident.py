"""The worker-side shard executor shared by pool and TCP workers.

:class:`repro.parallel.shards.ResidentDataset` is the one definition of the
per-ε worker index cache, the store-id translation and the self-join /
probe shard bodies.  These tests drive it in-process:

* the arrays and store transports give identical global-id pairs;
* probing the resident points (``queries=None``) equals the same probe with
  the points passed explicitly;
* the per-ε index cache is an LRU of 8, and is safe to share between
  compute threads (one build per ε, no error at the bound);
* a one-shot ``multiprocess`` call runs on an ephemeral pool and releases
  it, with its shared memory, before returning.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.gridindex import GridIndex
from repro.data.store import SpatialStore
from repro.data.synthetic import uniform_dataset
from repro.engine import Query, get_backend, run_query
from repro.parallel import shards
from repro.parallel.shards import ResidentDataset

EPS = 0.7


def _pair_set(keys, values):
    return sorted(zip(keys.tolist(), values.tolist()))


@pytest.fixture
def points():
    return uniform_dataset(600, 3, seed=5, low=0.0, high=5.0)


@pytest.fixture
def resident_pair(points, tmp_path):
    SpatialStore.write(points, tmp_path / "store")
    return (ResidentDataset(points, "vectorized"),
            ResidentDataset.from_store(SpatialStore.open(tmp_path / "store"),
                                       "vectorized"))


class TestTransports:
    @pytest.mark.parametrize("unicomp", [False, True])
    def test_selfjoin_identical_global_pairs(self, resident_pair, points,
                                             unicomp):
        arrays, store = resident_pair
        n_cells = GridIndex.build(points, EPS).num_nonempty_cells
        cells = np.arange(n_cells, dtype=np.int64)
        got_a = arrays.selfjoin(EPS, cells, EPS, unicomp)
        got_s = store.selfjoin(EPS, cells, EPS, unicomp)
        assert got_a[0].shape[0] > points.shape[0]  # more than self-pairs
        assert _pair_set(*got_a[:2]) == _pair_set(*got_s[:2])
        assert got_a[2].distance_calcs == got_s[2].distance_calcs
        # A shard's pairs are a subset of the whole join's, still in ids.
        half = store.selfjoin(EPS, cells[: n_cells // 2], EPS, unicomp)
        assert set(_pair_set(*half[:2])) <= set(_pair_set(*got_a[:2]))

    def test_probe_identical_global_pairs(self, resident_pair):
        arrays, store = resident_pair
        queries = uniform_dataset(80, 3, seed=6, low=0.0, high=5.0)
        got_a = arrays.probe(EPS, EPS, queries)
        got_s = store.probe(EPS, EPS, queries)
        assert got_a[0].shape[0] > 0
        assert _pair_set(*got_a[:2]) == _pair_set(*got_s[:2])

    def test_stream_needs_a_store(self, resident_pair, points):
        arrays, store = resident_pair
        with pytest.raises(ValueError, match="store"):
            arrays.stream(0, 1, EPS)
        keys, values, _ = store.stream(0, store.store.cell_counts.shape[0],
                                       EPS)
        n_cells = GridIndex.build(points, EPS).num_nonempty_cells
        whole = arrays.selfjoin(EPS, np.arange(n_cells), EPS)
        assert _pair_set(keys, values) == _pair_set(*whole[:2])


class TestOwnPointsProbe:
    def test_queries_none_equals_explicit_queries(self, resident_pair,
                                                  points):
        arrays, _ = resident_pair
        rows = np.arange(10, 400, 3, dtype=np.int64)
        own = arrays.probe(EPS, EPS, None, rows)
        explicit = arrays.probe(EPS, EPS, points, rows)
        assert own[0].shape[0] > 0
        assert np.array_equal(own[0], explicit[0])
        assert np.array_equal(own[1], explicit[1])
        assert own[2].distance_calcs == explicit[2].distance_calcs

    def test_store_own_probe_translates_both_sides(self, resident_pair,
                                                   points):
        arrays, store = resident_pair
        own = store.probe(EPS, EPS)
        explicit = arrays.probe(EPS, EPS, points)
        assert _pair_set(*own[:2]) == _pair_set(*explicit[:2])


class TestIndexCache:
    def _counting_build(self, monkeypatch, delay=0.0):
        builds = {}
        lock = threading.Lock()
        real_build = GridIndex.build

        def build(pts, eps):
            with lock:
                builds[eps] = builds.get(eps, 0) + 1
            if delay:
                time.sleep(delay)
            return real_build(pts, eps)

        monkeypatch.setattr(shards.GridIndex, "build", staticmethod(build))
        return builds

    def test_lru_evicts_at_eight(self, points, monkeypatch):
        builds = self._counting_build(monkeypatch)
        data = ResidentDataset(points, "vectorized")
        assert ResidentDataset.index_cache_size == 8
        eps_values = [0.5 + 0.1 * i for i in range(9)]
        for eps in eps_values[:8]:
            data.index_for(eps)
        first = data.index_for(eps_values[0])  # refresh: now most recent
        data.index_for(eps_values[8])           # evicts eps_values[1]
        assert len(data._indexes) == 8
        assert data.index_for(eps_values[0]) is first
        assert builds[eps_values[1]] == 1
        data.index_for(eps_values[1])
        assert builds[eps_values[1]] == 2
        assert all(builds[e] == 1 for e in eps_values if e != eps_values[1])

    def test_threads_build_each_eps_once(self, points, monkeypatch):
        builds = self._counting_build(monkeypatch, delay=0.02)
        data = ResidentDataset(points, "vectorized")
        eps_values = [0.5 + 0.1 * i for i in range(8)]  # exactly the bound
        errors = []
        start = threading.Barrier(6)

        def run(seed):
            order = np.random.default_rng(seed).permutation(len(eps_values))
            try:
                start.wait()
                for i in order:
                    index = data.index_for(eps_values[i])
                    assert index.eps == pytest.approx(eps_values[i])
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(s,)) for s in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert errors == []
        assert builds == {e: 1 for e in eps_values}

    def test_threads_at_the_lru_bound_raise_nothing(self, points,
                                                    monkeypatch):
        self._counting_build(monkeypatch)
        small = points[:60]
        data = ResidentDataset(small, "vectorized")
        eps_values = [0.5 + 0.05 * i for i in range(12)]  # > the bound
        errors = []

        def run(seed):
            rng = np.random.default_rng(seed)
            try:
                for i in rng.integers(0, len(eps_values), size=300):
                    data.index_for(eps_values[int(i)])
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert errors == []
        assert len(data._indexes) <= ResidentDataset.index_cache_size


class TestOneShotMultiprocess:
    def test_one_shot_call_releases_its_ephemeral_pool(self):
        # The registry caches one ``multiprocess(2)`` instance for the whole
        # test session, and other tests may leave pools parked on it: the
        # counters are compared as deltas over this one call.
        points = uniform_dataset(400, 2, seed=8, low=0.0, high=10.0)
        backend = get_backend("multiprocess(2)")
        fields = ("pools_created", "pools_shut_down", "shm_segments_created",
                  "shm_segments_released")
        before = {f: getattr(backend.stats, f) for f in fields}
        pools = (dict(backend._active), list(backend._idle))
        got = run_query(Query.self_join(points, 0.8),
                        backend="multiprocess(2)")
        ref = run_query(Query.self_join(points, 0.8))
        assert got.neighbor_table.same_contents_as(ref.neighbor_table)
        delta = {f: getattr(backend.stats, f) - before[f] for f in fields}
        assert delta == dict.fromkeys(fields, 1)
        assert (dict(backend._active), list(backend._idle)) == pools
