"""Multiprocess execution: the shard decomposition on a process pool.

:class:`MultiprocessBackend` executes the same cost-balanced shard
decomposition as :class:`repro.parallel.sharded.ShardedBackend`, but runs
the shards on a ``multiprocessing`` pool.  Each worker holds the dataset
once as a :class:`~repro.parallel.shards.ResidentDataset` and rebuilds the
:class:`~repro.core.gridindex.GridIndex` locally per ε — index construction
is a sort plus a run-length encoding, orders of magnitude cheaper than the
join — which guarantees bit-identical ``B`` ordering without pickling the
index arrays.  Workers return their shard's pair fragments as two plain
int64 arrays (cheap to pickle); the parent emits them into the caller's
sink, so the merge path is identical to the serial sharded backend's.

Scheduling is **pull-based** (see :mod:`repro.parallel.scheduler`): the
planner oversplits into ``OVERSPLIT_FACTOR`` (~4×) shards per worker,
dispatch goes largest-cost-first through ``imap_unordered(chunksize=1)``,
and each pool worker fetches its next shard the moment it finishes one — a
slow worker simply pulls fewer shards while fast peers absorb its share.
Completions arrive in any order; the parent buffers them and emits strictly
in shard-key (B) order, so results stay bit-identical to the serial sharded
run regardless of which worker ran what.  The observed schedule (per-worker
throughput, steals beyond fair share, achieved-vs-predicted cost ratio) is
reported in ``KernelStats.schedule_counts`` and ``backend.last_schedule``.

Every call runs on a **session pool** (the engine lifecycle of
:class:`repro.engine.session.EngineSession`): :meth:`attach` creates a
*persistent pool keyed by dataset identity* plus a
``multiprocessing.shared_memory`` segment holding the points array; every
worker maps the segment read-only (O(1) worker memory in dataset size,
``track=False`` on Python ≥ 3.13, a resource-tracker unregister workaround
below that, and a guarded fallback to pickled pool-initializer arguments
where shared memory is unusable).  Subsequent queries of the session —
including kNN radius-doubling rounds at new ε, which workers index-cache
locally — dispatch onto the warm pool with **no pool creation and no
dataset re-shipping**.  :meth:`detach` parks the pool on an LRU idle list
(``max_idle`` deep) so a follow-up session over the same dataset revives
it; evicted or shut-down pools release their shared memory, and an
``atexit`` hook tears down whatever is still alive at interpreter exit.  A
one-shot call outside a session gets an ephemeral pool of the same kind,
shut down when the call returns.

When the session's dataset is an **on-disk source** (a
:class:`~repro.data.store.SpatialStore`), no shared-memory copy is created
at all: each worker memory-maps the store's B-ordered ``points.npy``
directly (page cache shared between workers for free) and indexes the
stored row order, translating emitted ids back to original dataset ids
through the store's ``ids`` directory — so results are identical to the
in-memory path while the only per-worker dataset cost is the O(n) index
arrays, never a second copy of the points.

Registered as ``multiprocess``; parameterized lookups configure it:
``multiprocess(4)`` uses four workers, ``multiprocess(2, cellwise)`` runs
the cellwise reference kernels in two workers.

NumPy-heavy shards release the GIL anyway, but process isolation also
side-steps the allocator contention a thread pool would hit, and matches
the paper's framing of fully independent batches.
"""

from __future__ import annotations

import contextlib
import hashlib
import multiprocessing
import os
import signal
import sys
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.batching import estimate_probe_row_costs, split_by_cost
from repro.core.kernels import DEFAULT_MAX_CANDIDATE_PAIRS, KernelStats
from repro.core.nativekernels import parse_kernel_spec
from repro.engine.backends import (
    ExecutionBackend,
    compose_kernel_spec,
    get_backend,
    register_backend,
    _probe_rows,
)
from repro.parallel.scheduler import (
    OVERSPLIT_FACTOR,
    dispatch_order,
    pool_schedule_report,
    tasks_from_arrays,
)
from repro.parallel.shards import (
    ResidentDataset,
    ShardPlanner,
    default_worker_count,
)

try:
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover - platforms without shm support
    _shm = None

#: ``SharedMemory`` grew ``track=`` in Python 3.13; below that, attaching a
#: segment registers it with the resource tracker, which would warn at exit
#: and unlink a segment the parent still owns (see :func:`_attach_shared_view`).
_SHM_HAS_TRACK = sys.version_info >= (3, 13)

# Per-worker state installed by the pool initializer: the resident dataset
# and, on the shared-memory transport, the segment backing its points.
# Plain module globals — each worker process has its own copy.
_RESIDENT: dict = {}


def _restore_default_sigterm() -> None:
    """Let ``Pool.terminate()``'s SIGTERM end a worker the default way.

    A forked worker inherits any Python-level SIGTERM handler of its parent.
    Such a handler runs only between bytecodes, so a worker that takes the
    signal while blocked on the pool's task-queue lock can stay alive, and
    ``terminate()`` then waits for it forever.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)


# --------------------------------------------------------------------------
# pool worker side
# --------------------------------------------------------------------------
def _attach_shared_view(name: str, shape: Tuple[int, ...],
                        dtype: str) -> Tuple[object, np.ndarray]:
    """Map the dataset segment into this worker without tracker noise.

    Returns ``(shm, view)``; the caller must keep ``shm`` referenced for as
    long as the view is used.
    """
    if _SHM_HAS_TRACK:
        shm = _shm.SharedMemory(name=name, track=False)
    else:
        # Pre-3.13 the attach path registers the segment with the (shared)
        # resource tracker too; an unregister-after-attach would race with
        # the parent's create-side registration (one tracker cache entry per
        # name), so suppress the child-side registration instead — the
        # parent's registration remains the single cleanup net.
        from multiprocessing import resource_tracker

        original_register = resource_tracker.register

        def _no_shm_register(name_, rtype):  # pragma: no cover - 3.13+ skips
            if rtype != "shared_memory":
                original_register(name_, rtype)

        resource_tracker.register = _no_shm_register
        try:
            shm = _shm.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register
    view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
    # Every worker maps the same segment: a stray in-place write anywhere
    # would silently corrupt the dataset under all of them (and under the
    # park-time content digest).  Make that an immediate ValueError instead.
    view.flags.writeable = False
    return shm, view


def _init_session_worker(shm_name: Optional[str], shape, dtype,
                         pickled_points: Optional[np.ndarray],
                         inner: str, store_path: Optional[str] = None) -> None:
    """Pool initializer: map (or receive) the dataset once.

    Three dataset transports, in order of preference: an on-disk store
    (``store_path`` — the worker memory-maps the B-ordered file and keeps
    the original-id directory for result translation), a shared-memory
    segment (``shm_name``), or the pickled-initargs fallback.
    """
    _restore_default_sigterm()
    if store_path is not None:
        from repro.data.store import SpatialStore

        dataset = ResidentDataset.from_store(SpatialStore.open(store_path),
                                             inner)
    elif shm_name is not None:
        shm, points = _attach_shared_view(shm_name, shape, dtype)
        _RESIDENT["shm"] = shm  # keep the mapping alive
        dataset = ResidentDataset(points, inner)
    else:
        dataset = ResidentDataset(pickled_points, inner)
    _RESIDENT["dataset"] = dataset


def _run_task(task):
    """Pool task: run one shard method of the worker's resident dataset.

    ``task`` is ``(shard_key, method, args)``.  Returns ``(shard_key, keys,
    values, stats, pid, duration)``: the key orders the parent's
    deterministic B-order merge (tasks complete in *pull* order, not plan
    order), and the pid/duration pair feeds
    :func:`repro.parallel.scheduler.pool_schedule_report`.
    """
    key, method, args = task
    started = time.perf_counter()
    keys, values, stats = getattr(_RESIDENT["dataset"], method)(*args)
    return key, keys, values, stats, os.getpid(), \
        time.perf_counter() - started


# --------------------------------------------------------------------------
# parent-side pool state
# --------------------------------------------------------------------------
def _full_digest(points: np.ndarray) -> str:
    """Full-content hash guarding idle-pool revival against mutation.

    Computed when a pool is *parked* and re-checked when it would be
    *revived* — the only moments a stale worker-side snapshot could slip
    in — so the O(n) hashing cost is paid per park/revive, never per query.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.ascontiguousarray(points).data)
    return digest.hexdigest()


@dataclass
class _SessionPool:
    """One persistent pool plus the dataset resources it holds."""

    key: Optional[tuple]   # None: an ephemeral one-shot pool
    pool: multiprocessing.pool.Pool
    n_workers: int
    worker_pids: Tuple[int, ...]
    #: The parent-side dataset while the pool is attached; released
    #: (``None``) while parked idle so the pool does not pin the caller's
    #: array — revival re-binds it from the attaching session, guarded by
    #: ``content_digest``.
    points: Optional[np.ndarray]
    shm: Optional[object] = None  # parent-side SharedMemory (None: pickled)
    #: Path of the on-disk store the workers mapped (None: shm/pickle
    #: transport).  Store-backed pools index stored row order in the
    #: workers, so probes always ship probe slices (see ``run_probe``).
    store_path: Optional[str] = None
    attached: Set[int] = field(default_factory=set)  # session tokens
    #: Full-content hash of ``points`` taken when the pool was parked idle.
    content_digest: Optional[str] = None
    #: The pool was revived from the idle list at least once — a previous
    #: warm-keeping owner parked it, so even a ``keep_warm=False`` session
    #: must re-park it on detach rather than destroy it.
    revived: bool = False
    #: Some attached session asked for warm-pool reuse; parking on the last
    #: detach honors *any* attacher's preference, not just the last one's.
    keep_warm_requested: bool = False


@dataclass
class MultiprocessStats:
    """Lifecycle counters of one :class:`MultiprocessBackend` instance.

    Exposed so tests can assert the acceptance properties directly: a warm
    session query performs **no pool creation** (``pools_created`` stays
    flat) and **no dataset re-shipping** (``datasets_shipped`` stays flat —
    on the shared-memory path it never rises above zero, because the points
    enter a segment once at attach and are mapped, not pickled).
    """

    pools_created: int = 0
    pools_revived: int = 0
    pools_shut_down: int = 0
    #: Times the full dataset entered pool-initializer args (pickled under
    #: ``spawn``, copied-on-write under ``fork``): the fallback where shared
    #: memory is unusable.  Zero on the zero-copy path.
    datasets_shipped: int = 0
    #: Times a pool's workers memory-mapped an on-disk store instead of
    #: receiving a shared-memory (or pickled) copy of the points.
    datasets_mapped: int = 0
    shm_segments_created: int = 0
    shm_segments_released: int = 0
    tasks_dispatched: int = 0
    #: Shards absorbed by a worker beyond its fair share of the pull queue
    #: (see :func:`repro.parallel.scheduler.pool_schedule_report`) — the
    #: pool-mode measure of work stolen from slower workers.
    shards_stolen: int = 0


def _shutdown_state(state: _SessionPool) -> bool:
    """Terminate one pool and release its shared memory (idempotent).

    Module-level so the backend's ``weakref.finalize`` safety net can run
    it without holding (or needing) the backend itself.  Returns whether a
    shared-memory segment was actually unlinked.
    """
    try:
        state.pool.terminate()
        state.pool.join()
    except Exception:  # pragma: no cover - interpreter teardown races
        pass
    released = False
    if state.shm is not None:
        try:
            state.shm.close()
            state.shm.unlink()
            released = True
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass
        state.shm = None
    return released


def _shutdown_states(active: Dict[tuple, _SessionPool],
                     idle: "OrderedDict[tuple, _SessionPool]") -> None:
    """Finalizer: tear down whatever pools a backend still owns.

    Runs when the backend is garbage-collected *or* at interpreter exit
    (``weakref.finalize`` covers both), so neither a dropped throwaway
    backend nor a process-long one can orphan worker processes or
    dataset-sized shared-memory segments — and the finalizer holds only the
    state containers, never the backend, so pool-less backends stay
    collectable.
    """
    for state in list(active.values()) + list(idle.values()):
        _shutdown_state(state)
    active.clear()
    idle.clear()


@register_backend
class MultiprocessBackend(ExecutionBackend):
    """Cost-balanced shards executed on a ``multiprocessing`` pool.

    Parameters
    ----------
    n_workers:
        Pool size (``REPRO_PARALLEL_WORKERS`` / CPU count when omitted).
    inner:
        Backend executed per shard inside the workers.
    n_shards:
        Shard count (``n_workers * scheduler.OVERSPLIT_FACTOR`` when
        omitted — the pull queue's rebalancing slack).
    max_idle:
        How many detached session pools to keep warm for revival (LRU);
        ``0`` shuts a pool down on the last detach.
    seed:
        RNG seed for the sampled cost estimates behind the shard and
        probe-row decompositions, so plans are reproducible from one knob:
        ``MultiprocessBackend(seed=11)``, or in a registry spec —
        ``multiprocess(4, seed=11)`` (positionally every earlier argument
        must be spelled out: ``multiprocess(4, vectorized, 16, 2, 11)``).
    kernel:
        Kernel-tier spec threaded into the inner backend (see
        :mod:`repro.core.nativekernels`): ``multiprocess(4, kernel=numba)``
        forces the numba tier inside every worker; the default ``auto``
        lets each shard pick its tier and dense/sparse kernel adaptively.
    """

    name = "multiprocess"
    supports_cell_subset = True
    owns_decomposition = True

    def __init__(self, n_workers: Optional[int] = None,
                 inner: str = "vectorized",
                 n_shards: Optional[int] = None,
                 max_idle: int = 2,
                 seed: int = 0,
                 kernel: str = "auto") -> None:
        if n_workers is not None and int(n_workers) < 1:
            raise ValueError("n_workers must be >= 1")
        if int(max_idle) < 0:
            raise ValueError("max_idle must be >= 0")
        self.n_workers = int(n_workers) if n_workers is not None else None
        self.kernel_spec = str(kernel)
        parse_kernel_spec(self.kernel_spec)  # fail fast on typos
        # The composed spec is a plain string, so it ships to pool workers
        # through the initializer args unchanged.
        self.inner_name = compose_kernel_spec(str(inner), self.kernel_spec)
        self.n_shards = int(n_shards) if n_shards is not None else None
        self.max_idle = int(max_idle)
        self.seed = int(seed)
        self.stats = MultiprocessStats()
        #: :class:`~repro.parallel.scheduler.ScheduleReport` of the most
        #: recent operator call (None before any dispatch).
        self.last_schedule = None
        self._active: Dict[tuple, _SessionPool] = {}
        self._idle: "OrderedDict[tuple, _SessionPool]" = OrderedDict()
        self._finalizer = weakref.finalize(self, _shutdown_states,
                                           self._active, self._idle)

    @property
    def inner(self) -> ExecutionBackend:
        """The backend executed per shard (inside the workers)."""
        return get_backend(self.inner_name)

    @property
    def supports_unicomp(self) -> bool:  # type: ignore[override]
        return self.inner.supports_unicomp

    def kernel_tier(self) -> str:
        """The inner backend's resolved kernel tier (what workers run)."""
        return self.inner.kernel_tier()

    # -------------------------------------------------------------- plumbing
    def _resolved_workers(self) -> int:
        return self.n_workers or default_worker_count()

    def _resolved_shards(self, n_workers: int) -> int:
        return self.n_shards or n_workers * OVERSPLIT_FACTOR

    # ------------------------------------------------------ session lifecycle
    @staticmethod
    def _pool_key(session) -> tuple:
        # The DatasetIdentity couples the array's object id with a sampled
        # content fingerprint, guarding idle-pool revival against id reuse
        # after the original array is freed.
        return (session.identity,)

    def attach(self, session) -> None:
        """Create (or revive) the persistent pool for the session's dataset."""
        key = self._pool_key(session)
        state = self._active.get(key)
        if state is None:
            state = self._idle.pop(key, None)
            if state is not None:
                # A store-backed pool needs no digest check: its pool key
                # already embeds the store's path-derived id and sampled
                # file fingerprint (the guard DatasetIdentity gives
                # arrays), and the workers read the file itself — there is
                # no parent-side array snapshot to go stale.
                if state.store_path is None \
                        and _full_digest(session.points) != state.content_digest:
                    # The array was mutated in place between sessions: the
                    # workers' shared-memory snapshot (and their cached
                    # indexes) are stale — joining them against freshly
                    # planned shards would be silently wrong.
                    self._shutdown_pool(state)
                    state = None
                else:
                    state.revived = True
                    # Re-pin for the active span.  For an on-disk source
                    # this materializes the parent-side array — which any
                    # query on this backend needs anyway (the parent plans
                    # against a global index), and which is how dispatched
                    # work is matched back to this pool.
                    state.points = session.points
                    self.stats.pools_revived += 1
                    self._active[key] = state
        if state is None:
            state = self._create_session_pool(
                key, session.points,
                store_path=session.source.storage_descriptor())
            self._active[key] = state
        state.attached.add(session.token)
        if getattr(session, "keep_warm", True):
            state.keep_warm_requested = True

    def detach(self, session) -> None:
        """Park the session's pool on the idle list (or shut it down).

        A pool is parked when *any* of its attachers asked for warm reuse,
        or when it was revived from the idle list (an earlier warm-keeping
        owner parked it); a pool used only by opted-out ephemeral sessions
        (``keep_warm=False`` — the one-shot wrappers) is released
        immediately.  Parking drops the parent-side dataset reference: the
        park-time content digest is what guards revival, so the caller's
        array is free to be collected.
        """
        key = self._pool_key(session)
        state = self._active.get(key)
        if state is None:
            return
        state.attached.discard(session.token)
        if state.attached:
            return
        del self._active[key]
        if self.max_idle > 0 and (state.keep_warm_requested or state.revived):
            # Store-backed pools skip the O(n) park digest — revival is
            # guarded by the store fingerprint inside the pool key instead.
            state.content_digest = _full_digest(state.points) \
                if state.store_path is None else None
            state.points = None  # do not pin the dataset while idle
            self._idle[key] = state
            while len(self._idle) > self.max_idle:
                _, evicted = self._idle.popitem(last=False)
                self._shutdown_pool(evicted)
        else:
            self._shutdown_pool(state)

    def shutdown(self) -> None:
        """Terminate every pool (active and idle) and release their memory."""
        for state in list(self._active.values()):
            self._shutdown_pool(state)
        self._active.clear()
        for state in list(self._idle.values()):
            self._shutdown_pool(state)
        self._idle.clear()

    def worker_pids(self, session) -> Tuple[int, ...]:
        """PIDs of the persistent pool serving ``session`` (``()`` if none)."""
        state = self._active.get(self._pool_key(session))
        return state.worker_pids if state is not None else ()

    def has_idle_pool_for(self, session) -> bool:
        """Whether a detached pool for the session's dataset is kept warm."""
        return self._pool_key(session) in self._idle

    def _create_session_pool(self, key: Optional[tuple], points: np.ndarray,
                             store_path: Optional[str] = None,
                             n_workers: Optional[int] = None) -> _SessionPool:
        n_workers = n_workers or self._resolved_workers()
        shm = None
        if store_path is not None:
            # On-disk source: workers map the store file themselves — no
            # shared-memory copy, no pickled dataset, page cache shared.
            initargs = (None, None, None, None, self.inner_name, store_path)
            self.stats.datasets_mapped += 1
        else:
            if _shm is not None and points.nbytes > 0:
                try:
                    shm = _shm.SharedMemory(create=True, size=points.nbytes)
                except OSError:  # pragma: no cover - no /dev/shm etc.
                    pass
            if shm is not None:
                np.ndarray(points.shape, dtype=points.dtype,
                           buffer=shm.buf)[:] = points
                self.stats.shm_segments_created += 1
                initargs = (shm.name, points.shape, str(points.dtype), None,
                            self.inner_name)
            else:
                # Guarded fallback: ship the points in the initializer args
                # (still once per worker, not per query).
                initargs = (None, None, None, points, self.inner_name)
                self.stats.datasets_shipped += 1
        try:
            pool = multiprocessing.Pool(processes=n_workers,
                                        initializer=_init_session_worker,
                                        initargs=initargs)
        except Exception:
            # Pool creation failed (fork pressure, process limits): the
            # dataset segment must not outlive this attempt.
            if shm is not None:
                shm.close()
                shm.unlink()
                self.stats.shm_segments_released += 1
            raise
        self.stats.pools_created += 1
        # Worker PIDs are recorded for pool-identity assertions in tests;
        # Pool keeps its Process handles in the private ``_pool`` list (no
        # public accessor exists).
        pids = tuple(proc.pid for proc in pool._pool)
        return _SessionPool(key=key, pool=pool, n_workers=n_workers,
                            worker_pids=pids, points=points, shm=shm,
                            store_path=store_path)

    def _shutdown_pool(self, state: _SessionPool) -> None:
        if _shutdown_state(state):
            self.stats.shm_segments_released += 1
        self.stats.pools_shut_down += 1

    def _session_pool_for(self, points: np.ndarray) -> Optional[_SessionPool]:
        """The attached pool whose dataset *is* ``points`` (identity match)."""
        for state in self._active.values():
            if state.points is points:
                return state
        return None

    @contextlib.contextmanager
    def _pool_for(self, points: np.ndarray, n_tasks: int):
        """The session pool for ``points``, else an ephemeral one.

        A one-shot call outside a session runs on a pool of the session
        kind, created for this call (no more workers than tasks) and shut
        down when it returns; use a session to amortize pool start-up.
        """
        state = self._session_pool_for(points)
        if state is not None:
            yield state
            return
        state = self._create_session_pool(
            None, points, n_workers=min(self._resolved_workers(), n_tasks))
        try:
            yield state
        finally:
            self._shutdown_pool(state)

    def _drain_pool(self, state: _SessionPool, tasks, build, sink,
                    rebase: bool = False) -> KernelStats:
        """Pull-dispatch ``tasks`` onto the pool; merge in shard-key order.

        The pool's internal task queue is the pull mechanism: with
        ``chunksize=1`` and ``imap_unordered`` each worker fetches its next
        shard the moment it finishes one, so a slow worker simply pulls
        fewer shards while fast peers absorb the rest.  Dispatch order is
        **largest cost first** (the tail of the join is then made of small
        shards); completions arrive in any order and are buffered until
        emitted strictly in shard-key (B) order, so the merged pair stream
        is bit-identical to the serial sharded run.

        ``build(task)`` gives the ``(method, args)`` of the task's
        :class:`~repro.parallel.shards.ResidentDataset` call.  ``rebase``
        maps a probe task's slice-local result rows onto its global rows
        (``task.cells``).
        """
        stats = KernelStats()
        self.stats.tasks_dispatched += len(tasks)
        executions: List[Tuple[Tuple[int, ...], str, float]] = []
        results: Dict[Tuple[int, ...], tuple] = {}
        for key, keys, values, shard_stats, pid, duration in \
                state.pool.imap_unordered(
                    _run_task, [(task.key,) + build(task)
                                for task in dispatch_order(tasks)],
                    chunksize=1):
            results[key] = (keys, values, shard_stats)
            executions.append((key, f"pid-{pid}", float(duration)))
        for task in tasks:
            keys, values, shard_stats = results[task.key]
            if rebase:
                keys = task.cells[keys]
            sink.emit(keys, values)
            stats.merge(shard_stats)
        report = pool_schedule_report(
            tasks, sorted(executions), state.n_workers,
            achieved_cost=float(stats.distance_calcs))
        stats.schedule_counts = report.counts()
        self.stats.shards_stolen += report.steals
        self.last_schedule = report
        return stats

    # ------------------------------------------------------------- operators
    def run_selfjoin(self, index, eps, cells, sink, *, unicomp=False,
                     max_candidate_pairs=DEFAULT_MAX_CANDIDATE_PAIRS,
                     device=None, threads_per_block=256) -> KernelStats:
        plan = ShardPlanner(
            n_shards=self._resolved_shards(self._resolved_workers()),
            seed=self.seed).plan(index, cells)
        tasks = tasks_from_arrays(plan.shards, plan.cell_costs)
        if not tasks:
            return KernelStats()
        args = (float(eps), bool(unicomp), int(max_candidate_pairs))
        with self._pool_for(index.points, len(tasks)) as state:
            return self._drain_pool(
                state, tasks,
                lambda t: ("selfjoin", (float(index.eps), t.cells) + args),
                sink)

    def run_probe(self, queries, index, eps, sink, *, rows=None,
                  max_candidate_pairs=DEFAULT_MAX_CANDIDATE_PAIRS) -> KernelStats:
        rows = _probe_rows(queries, rows)
        if rows.shape[0] == 0:
            return KernelStats()
        row_costs = estimate_probe_row_costs(queries[rows], index,
                                             seed=self.seed)
        groups = split_by_cost(
            row_costs, self._resolved_shards(self._resolved_workers()))
        tasks = tasks_from_arrays([rows[g] for g in groups],
                                  [row_costs[g] for g in groups],
                                  kind="probe")
        head = (float(index.eps), float(eps))
        mcp = int(max_candidate_pairs)
        with self._pool_for(index.points, len(tasks)) as state:
            if queries is index.points and state.store_path is None:
                # The dataset probing itself (self-kNN, range-over-self)
                # resolves to the workers' resident points: nothing but
                # the row ids travels.
                return self._drain_pool(
                    state, tasks,
                    lambda t: ("probe", head + (None, t.cells, mcp)), sink)
            # External query set — and *any* probe on a store-backed pool,
            # whose workers hold the dataset in stored (B) order and so
            # cannot resolve original-order row ids: ship each task only
            # its own row-group slice (each query row pickled once per
            # query, not once per task); workers emit slice-local keys that
            # are re-based onto the global rows here.
            queries_arr = np.asarray(queries, dtype=np.float64)
            return self._drain_pool(
                state, tasks,
                lambda t: ("probe", head + (queries_arr[t.cells], None, mcp)),
                sink, rebase=True)
