"""The four workloads of the paper-scale self-join benchmark.

Every workload generates its inputs from the run's seed, then sets its
program state up ``SETUP_REPS`` times and measures for a third of the run
after each set-up (a traced run sets up once).  Every operation goes
through the correctness gate.

``uniform2d-oneshot``
    200k uniform 2-D points, ε for 16 mean neighbours.  One-shot
    ``run_query`` on ``vectorized`` plus ``.neighbor_table``: index build,
    batch planning, kernel, merge and CSR finalize on every query, with no
    parallel, distributed or service code.  The paper's dense
    low-dimensional case; CSR finalize dominates.
``expo4d-mp2``
    200k exponential 4-D points (scale 10), ε = 1.32 (about 16 mean
    neighbours), warm ``EngineSession`` on ``multiprocess(2)``.  Skewed
    density gives uneven shard costs, so stealing does real work; the 3^4
    adjacent-cell search makes the kernel dominant and the index is cached.
``store3d-dist2``
    200k uniform 3-D points written once to a ``SpatialStore``; session
    self-joins through ``distributed`` with two ``LocalWorkerPool`` workers
    that memory-map the store.  The only workload whose pair arrays cross a
    socket.
``service-mix``
    A ``repro-serve`` subprocess serving 200k uniform 3-D points.  An
    open-loop generator (at most ``nproc`` connections) sends 90%
    single-point range queries and 10% kNN (k=8) at a fixed nominal rate,
    then at a rate above capacity.  Exercises the probe kernels, kNN radius
    doubling and per-tick fusion instead of the self-join kernels.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from contextlib import ExitStack, nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path
from statistics import median
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.gridindex import GridIndex
from repro.core.result import NeighborTable
from repro.data.store import SpatialStore
from repro.data.synthetic import (
    eps_for_average_neighbors,
    exponential_dataset,
    uniform_dataset,
)
from repro.distributed import DistributedBackend, LocalWorkerPool
from repro.engine import EngineSession, Query, QueryPlanner, execute, run_query
from repro.parallel.mp import MultiprocessBackend
from repro.service import ServiceClient, ServiceError

from e2ebench.gate import Gate
from e2ebench.tracing import Tracer

N_POINTS = 200_000
TARGET_NEIGHBOURS = 16
#: ε giving about 16 mean neighbours on 200k exponential(scale 10) 4-D points.
EXPO_EPS = 1.32
#: Set-up/measure blocks per untraced run; ``setup_s`` is the median set-up.
SETUP_REPS = 3
#: Fewest measured operations per run, however short ``--seconds`` is.
MIN_OPS = 3
KNN_K = 8
KNN_SHARE = 0.1
#: Nominal offered rate, under a quarter of what two connections sustain on
#: 2 CPUs (a closed loop reaches about 180 req/s), so queueing adds little.
NOMINAL_QPS = 40.0
#: Offered rate well above capacity, for the saturation throughput.
OVERLOAD_QPS = 1000.0
#: A nominal phase whose generator sent its p99 request this late (after the
#: request was due and its connection was free) is flagged as behind.
GEN_LATE_LIMIT_MS = 5.0
SERVER_BANNER_TIMEOUT = 60.0


@dataclass
class Run:
    """Settings, state and measurements of one run of one workload."""

    seed: int
    seconds: float
    trace: bool
    workdir: Path
    size: int = N_POINTS
    tracer: Optional[Tracer] = None
    gate: Optional[Gate] = None
    #: ``(own, largest child)`` peak RSS once the measured state is torn down.
    peak_rss_mb: Optional[tuple] = None
    attempted: int = 0
    errors: List[str] = field(default_factory=list)
    info: Dict[str, object] = field(default_factory=dict)
    #: The ``end_to_end`` (untraced) or ``per_layer`` (traced) metrics.
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Per-kind end-to-end metrics (``join_s``, ``svc_p99_ms``, ...), printed
    #: and written to the results file: ``name -> (value, unit, note)``.
    report: Dict[str, tuple] = field(default_factory=dict)
    #: Per-operation records and counter deltas for the results file.
    detail: Dict[str, object] = field(default_factory=dict)
    children: ExitStack = field(default_factory=ExitStack)

    def __post_init__(self) -> None:
        if self.trace:
            self.tracer = Tracer()

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    @property
    def failed(self) -> int:
        return len(self.errors) + (len(self.gate.failures) if self.gate else 0)


def nproc() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def peak_rss_mb() -> tuple:
    """Peak RSS of this process and of its largest reaped child, in MB."""
    # ru_maxrss is in KiB on Linux.
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)


def _med(values) -> float:
    values = list(values)
    return float(median(values)) if values else 0.0


# --------------------------------------------------------------------------
# self-join workloads
# --------------------------------------------------------------------------
@dataclass
class JoinWorkload:
    dims: int
    make_points: Callable[[int, int, int], np.ndarray]
    eps: Optional[float]
    #: Opens the program state; returns the session (``None``: one-shot).
    open: Callable[[Run, np.ndarray, float, ExitStack], Optional[EngineSession]]

    def inputs(self, size: int, seed: int):
        points = self.make_points(size, self.dims, seed)
        eps = self.eps if self.eps is not None \
            else eps_for_average_neighbors(TARGET_NEIGHBOURS, size, self.dims)
        return points, eps


def _open_oneshot(run, points, eps, stack):
    return None


def _open_multiprocess(run, points, eps, stack):
    # A fresh backend instance per set-up, so every set-up spawns its pool
    # (a registry-cached instance would revive the previous idle pool).
    backend = MultiprocessBackend(2)
    stack.callback(backend.shutdown)
    session = EngineSession(points, backend=backend)
    stack.callback(session.close)
    with run.span("session.open"):
        session.open()
    with run.span("gridindex.build"):
        session.index_for(eps)
    return session


def _open_distributed(run, points, eps, stack):
    root = Path(tempfile.mkdtemp(dir=run.workdir))
    stack.callback(shutil.rmtree, root, True)
    with run.span("store.write"):
        store = SpatialStore.write(points, root / "store")
    with run.span("dist.spawn"):
        pool = LocalWorkerPool(2, store_root=str(root))
    stack.callback(pool.shutdown)
    backend = DistributedBackend(*[f"{h}:{p}" for h, p in pool.addresses()])
    stack.callback(backend.shutdown)
    session = EngineSession(store, backend=backend)
    stack.callback(session.close)
    with run.span("session.open"):
        session.open()
    return session


def _uniform(n, dims, seed):
    return uniform_dataset(n, dims, seed=seed)


def _exponential(n, dims, seed):
    return exponential_dataset(n, dims, scale=10.0, seed=seed)


def _untraced_join(session, points, eps):
    if session is None:
        result = run_query(Query.self_join(points, eps), backend="vectorized")
    else:
        result = session.self_join(eps)
    return result, result.neighbor_table


def _traced_join(tracer, session, points, eps):
    """One join with a span around each layer call, in pipeline order."""
    with tracer.span("join"):
        if session is None:
            with tracer.span("gridindex.build"):
                index = GridIndex.build(points, eps)
            with tracer.span("planner.plan"):
                plan = QueryPlanner(backend="vectorized").plan(
                    Query.self_join(points, eps), index=index)
        else:
            indexed = session.source if session.streams_self_joins \
                else session.points
            with tracer.span("planner.plan"):
                plan = session.planner.plan(Query.self_join(indexed, eps),
                                            session=session)
        with tracer.span("executor.execute"):
            result = execute(plan)
        with tracer.span("executor.pairs"):
            keys, values = result.pairs()
        with tracer.span("result.csr"):
            table = NeighborTable.from_pairs(keys, values, plan.num_rows)
    return result, table


def _counters(session) -> Dict[str, float]:
    """Numeric fields of the session's and its backend's stats objects."""
    if session is None:
        return {}
    out = {f"session.{k}": v for k, v in asdict(session.stats).items()}
    backend = session.backend
    stats = getattr(backend, "stats", None)
    if stats is not None:
        out.update({f"{backend.name}.{k}": v for k, v in asdict(stats).items()
                    if isinstance(v, (int, float))})
    return out


def _join_op(run, session, points, eps, label, traced) -> dict:
    run.attempted += 1
    t0 = time.perf_counter()
    if traced:
        result, table = _traced_join(run.tracer, session, points, eps)
    else:
        result, table = _untraced_join(session, points, eps)
    elapsed = time.perf_counter() - t0
    run.gate.check_join(table, label)
    keys, values = result.pairs()
    plan = result.plan
    return {"s": elapsed, "traced": traced,
            "csr_pairs": table.num_pairs,
            "result_pairs": result.stats.result_pairs,
            "distance_calcs": result.stats.distance_calcs,
            "schedule": dict(result.stats.schedule_counts),
            "batches": len(plan.batch_plan.cell_batches)
            if plan.batch_plan is not None else 0,
            "cells": plan.index.num_nonempty_cells
            if plan.index is not None else 0,
            "pair_itemsize": keys.itemsize + values.itemsize}


def _set_up_join(run, workload, points, eps, rep):
    """One set-up: open the program state, then run the first (cold) join."""
    stack = run.children.enter_context(ExitStack())
    with run.span("setup"):
        t0 = time.perf_counter()
        session = workload.open(run, points, eps, stack)
        cold = _join_op(run, session, points, eps, f"setup {rep}",
                        traced=run.trace)
        elapsed = time.perf_counter() - t0
    return stack, session, cold, elapsed


def _blocks(run: Run) -> int:
    return 1 if run.trace else SETUP_REPS


def _run_blocks(run: Run, set_up, measure) -> List[float]:
    """Set up ``_blocks(run)`` times, each followed by its share of the run.

    Every set-up is measured, so the figures pool several program
    instances (pools, workers, servers) instead of resting on one.  The
    peak RSS is read once the first block is torn down, so memory that
    later set-ups leave behind in this process does not count.
    ``set_up(rep)`` returns ``(stack, state, seconds)``; ``measure(state,
    seconds)`` measures for about ``seconds``.  Returns the set-up times.
    """
    setups: List[float] = []
    blocks = _blocks(run)
    for rep in range(blocks):
        stack, state, elapsed = set_up(rep)
        setups.append(elapsed)
        measure(state, run.seconds / blocks)
        stack.close()
        if rep == 0:
            run.peak_rss_mb = peak_rss_mb()
    return setups


def _measure_joins(run, session, points, eps, seconds) -> List[dict]:
    ops: List[dict] = []
    min_ops = -(-MIN_OPS // _blocks(run))
    deadline = time.perf_counter() + seconds
    last_round = 0.0
    # Stop before a round that would overrun the deadline, so a run lasts
    # about --seconds however long one join takes.
    while len(ops) < min_ops or time.perf_counter() + last_round <= deadline:
        round_start = time.perf_counter()
        # The traced run alternates untraced and traced joins (swapping
        # which goes first) so the tracing overhead is a paired difference.
        first_traced = len(ops) % 4 == 0
        for traced in ((first_traced, not first_traced) if run.trace
                       else (False,)):
            ops.append(_join_op(run, session, points, eps,
                                f"join {run.attempted}", traced))
        last_round = time.perf_counter() - round_start
    return ops


def run_join(run: Run, workload: JoinWorkload) -> None:
    points, eps = workload.inputs(run.size, run.seed)
    run.info.update(n=int(points.shape[0]), dims=workload.dims, eps=eps)
    run.gate = Gate(points, eps, run.seed)

    colds: List[dict] = []
    ops: List[dict] = []
    delta: Dict[str, float] = {}

    def set_up(rep):
        stack, session, cold, elapsed = _set_up_join(run, workload, points,
                                                     eps, rep)
        colds.append(cold)
        return stack, session, elapsed

    def measure(session, seconds):
        before = _counters(session)
        ops.extend(_measure_joins(run, session, points, eps, seconds))
        for key, value in _counters(session).items():
            delta[key] = delta.get(key, 0) + value - before.get(key, 0)

    setups = _run_blocks(run, set_up, measure)
    cold = colds[0]
    run.detail.update(setup_s=setups, cold=cold, ops=ops, counters=delta)

    pairs = run.gate.pair_count or 0
    times = [op["s"] for op in ops if not op["traced"]]
    if not run.trace:
        pairs_per_s = pairs * len(times) / sum(times)
        run.metrics.update(op_p50_ms=_med(times) * 1e3,
                           pairs_per_s=pairs_per_s, setup_s=_med(setups))
        run.report.update(
            join_s=(_med(times), "s", f"median of {len(times)} joins"),
            pairs_per_s=(pairs_per_s, "pairs/s",
                         f"{pairs} pairs x {len(times)} joins / summed join_s"),
            setup_s=(_med(setups), "s", f"median of {len(setups)} set-ups"))
        return
    run.metrics.update(_join_layer_metrics(run, ops, delta, cold))


def _join_layer_metrics(run, ops, delta, cold) -> Dict[str, float]:
    tracer = run.tracer
    distributed = any(key.startswith("distributed.") for key in delta)
    traced = [op["s"] for op in ops if op["traced"]]
    untraced = [op["s"] for op in ops if not op["traced"]]

    def warm(name):
        return _med(tracer.durations(name, root="join"))

    def sched(key):
        return sum(op["schedule"].get(key, 0) for op in ops)

    metrics = {
        "gridindex.build_s": _med(tracer.durations("gridindex.build")),
        "gridindex.cells": cold["cells"],
        "planner.plan_s": warm("planner.plan"),
        "planner.batches": cold["batches"],
        "executor.execute_s": warm("executor.execute"),
        "executor.pairs_s": warm("executor.pairs"),
        "result.csr_s": warm("result.csr"),
        "result.pair_bytes": _med(op["csr_pairs"] * op["pair_itemsize"]
                                  for op in ops),
        "kernels.distance_calcs": _med(op["distance_calcs"] for op in ops),
        "kernels.useful_ratio": _med(op["csr_pairs"] / op["distance_calcs"]
                                     for op in ops),
        "kernels.pair_count_excess": sum(op["result_pairs"] - op["csr_pairs"]
                                         for op in ops),
        "session.open_s": _med(tracer.durations("session.open")),
        "session.index_hits": delta.get("session.index_hits", 0),
        "sched.steals": sched("steals"),
        "sched.resplits": sched("resplits"),
        "sched.rebalances": sched("rebalances"),
        "sched.hedges": sched("hedges"),
        "sched.cost_ratio_pct": _med(op["schedule"].get("cost_ratio_pct", 0)
                                     for op in ops),
        "sched.wasted_pairs": delta.get("distributed.hedge_wasted_pairs", 0)
        + delta.get("distributed.resplit_wasted_pairs", 0),
        "mp.pools_created": delta.get("multiprocess.pools_created", 0),
        "mp.datasets_shipped": delta.get("multiprocess.datasets_shipped", 0),
        "trace.uncovered_s": _med(tracer.uncovered({"join"})),
        "trace.overhead_s": _med(traced) - _med(untraced),
    }
    if distributed:
        metrics.update({
            "dist.attach_s": metrics["session.open_s"],
            "dist.shards_dispatched":
                delta.get("distributed.shards_dispatched", 0),
            "dist.redispatched": delta.get("distributed.shards_redispatched", 0),
            "dist.worker_failures": delta.get("distributed.worker_failures", 0),
            "dist.wire_bytes": _med(op["result_pairs"] * op["pair_itemsize"]
                                    for op in ops),
            "store.write_s": _med(tracer.durations("store.write")),
        })
    return metrics


# --------------------------------------------------------------------------
# service workload
# --------------------------------------------------------------------------
def _stop_server(proc: subprocess.Popen, address: Optional[tuple]) -> None:
    if address is not None and proc.poll() is None:
        try:
            with ServiceClient(*address, timeout=5.0) as client:
                client.shutdown_server()
        except (OSError, ServiceError):
            pass
        try:
            proc.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            pass
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def _spawn_server(stack: ExitStack) -> tuple:
    """Start ``repro-serve`` on an ephemeral port; return its address.

    ``-u`` is required: the server prints its listening banner without
    flushing, so through a pipe the banner stays in the server's buffer and
    a parent waiting for it hangs.
    """
    proc = subprocess.Popen(
        [sys.executable, "-u", "-m", "repro.service", "--host", "127.0.0.1",
         "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    address: List[tuple] = []
    stack.callback(lambda: _stop_server(proc, address[0] if address else None))
    lines: List[str] = []
    reader = threading.Thread(target=lambda: lines.append(proc.stdout.readline()),
                              daemon=True)
    reader.start()
    reader.join(SERVER_BANNER_TIMEOUT)
    line = lines[0] if lines else ""
    if "listening on" not in line:
        raise RuntimeError(f"repro-serve did not start: banner was {line!r}")
    host, _, port = line.split()[-1].rpartition(":")
    address.append((host, int(port)))
    return address[0]


def _open_loop(clients, points_q, is_knn, eps, rate, duration,
               tracer=None, stop_sending=False) -> List[dict]:
    """Send request ``i`` at ``t0 + i / rate`` round-robin over the clients.

    Each client is one blocking connection, so a request whose connection
    is still busy goes out late; its latency is timed from its due time.
    ``lateness`` is how late the generator itself sent a request after it
    was both due and its connection free.  With ``stop_sending`` no
    request is sent after ``duration`` (the overload phase).
    """
    total = points_q.shape[0]
    records: List[Optional[dict]] = [None] * total
    failures: List[BaseException] = []
    stop = threading.Event()  # set when the caller stops waiting (Ctrl-C)
    t0 = time.perf_counter() + 0.05
    end = t0 + duration

    def worker(j: int) -> None:
        client = clients[j]
        free_at = t0
        try:
            for i in range(j, total, len(clients)):
                due = t0 + i / rate
                now = time.perf_counter()
                if stop.is_set() or (stop_sending and max(now, due) >= end):
                    return
                if now < due and stop.wait(due - now):
                    return
                send = time.perf_counter()
                response, error = None, None
                try:
                    if is_knn[i]:
                        response = client.knn("bench", points_q[i:i + 1], KNN_K)
                    else:
                        response = client.range_query("bench",
                                                      points_q[i:i + 1], eps)
                except (OSError, ServiceError) as exc:
                    error = f"{type(exc).__name__}: {exc}"
                done = time.perf_counter()
                if tracer is not None:
                    tracer.record("svc.knn" if is_knn[i] else "svc.range",
                                  send, done)
                records[i] = {"i": i, "knn": bool(is_knn[i]), "due": due,
                              "send": send, "done": done,
                              "lateness": send - max(due, free_at),
                              "response": response, "error": error}
                free_at = done
        except BaseException as exc:  # re-raised by the caller
            failures.append(exc)

    threads = [threading.Thread(target=worker, args=(j,))
               for j in range(len(clients))]
    for thread in threads:
        thread.start()
    try:
        for thread in threads:
            thread.join()
    finally:
        stop.set()
    if failures:
        raise failures[0]
    return [r for r in records if r is not None]


def _phase_plan(rng, rate, duration):
    total = max(1, int(rate * duration))
    return (rng.uniform(0.0, 100.0, size=(total, 3)),
            rng.random(total) < KNN_SHARE)


def _check_responses(run, records, points_q, eps) -> None:
    scanned = set(run.gate.sample(len(records)).tolist())
    for n, rec in enumerate(records):
        run.attempted += 1
        label = f"request {rec['i']} ({'knn' if rec['knn'] else 'range'})"
        if rec["error"] is not None:
            run.errors.append(f"{label}: {rec['error']}")
            continue
        q = points_q[rec["i"]]
        if rec["knn"]:
            indices, distances = rec["response"]
            run.gate.check_knn(q, KNN_K, indices, distances, label,
                               scan=n in scanned)
        else:
            run.gate.check_range(q, rec["response"], label, scan=n in scanned)


def _result_size(rec) -> int:
    if rec["knn"]:
        return int(np.asarray(rec["response"][0]).size)
    return rec["response"].num_pairs


def run_service(run: Run) -> None:
    points = uniform_dataset(run.size, 3, seed=run.seed)
    eps = eps_for_average_neighbors(TARGET_NEIGHBOURS, run.size, 3)
    run.info.update(n=run.size, dims=3, eps=eps, knn_k=KNN_K,
                    nominal_qps=NOMINAL_QPS, overload_qps=OVERLOAD_QPS)
    run.gate = Gate(points, eps, run.seed)

    n_conn = min(2, nproc())
    rng = np.random.default_rng([run.seed, 1])
    phases: Dict[str, List[dict]] = {name: [] for name in (
        ("untraced", "traced") if run.trace else ("nominal", "overload"))}
    overload_s: List[float] = []
    stats: List[dict] = []  # stats endpoint before and after (traced run)

    def set_up(rep):
        stack = run.children.enter_context(ExitStack())
        with run.span("setup"):
            t0 = time.perf_counter()
            with run.span("svc.spawn"):
                address = _spawn_server(stack)
            with run.span("svc.register"):
                admin = stack.enter_context(ServiceClient(*address))
                admin.register("bench", points)
            with run.span("svc.first_query"):
                run.attempted += 1
                first = admin.range_query("bench", points[:1], eps)
            elapsed = time.perf_counter() - t0
        run.gate.check_range(points[0], first, f"setup {rep}", scan=True)
        clients = [stack.enter_context(ServiceClient(*address))
                   for _ in range(n_conn)]
        return stack, (admin, clients), elapsed

    def phase(name, clients, rate, seconds, **kwargs):
        q, knn = _phase_plan(rng, rate, seconds)
        records = _open_loop(clients, q, knn, eps, rate, seconds, **kwargs)
        _check_responses(run, records, q, eps)
        phases[name].extend(records)
        return records

    def measure(state, seconds):
        admin, clients = state
        if run.trace:
            stats.append(admin.stats())
            phase("untraced", clients, NOMINAL_QPS, seconds / 2)
            phase("traced", clients, NOMINAL_QPS, seconds / 2,
                  tracer=run.tracer)
            stats.append(admin.stats())
            return
        phase("nominal", clients, NOMINAL_QPS, seconds * 2 / 3)
        records = phase("overload", clients, OVERLOAD_QPS, seconds / 3,
                        stop_sending=True)
        overload_s.append(max(r["done"] for r in records)
                          - min(r["due"] for r in records))

    setups = _run_blocks(run, set_up, measure)

    def ok(records):
        return [r for r in records if r["error"] is None]

    def latencies_ms(records):
        return [(r["done"] - r["due"]) * 1e3 for r in ok(records)]

    nominal = phases["traced" if run.trace else "nominal"]
    late_p99 = float(np.percentile([r["lateness"] * 1e3 for r in nominal], 99))
    lat = latencies_ms(nominal)
    p99 = float(np.percentile(lat, 99)) if lat else 0.0
    run.detail.update(setup_s=setups, connections=n_conn,
                      generator_late_p99_ms=late_p99,
                      generator_behind=late_p99 > GEN_LATE_LIMIT_MS,
                      phases={name: len(recs) for name, recs in phases.items()})
    if not run.trace:
        overload = ok(phases["overload"])
        elapsed = sum(overload_s)
        sat_qps = len(overload) / elapsed
        pairs_per_s = sum(_result_size(r) for r in overload) / elapsed
        run.metrics.update(op_p50_ms=_med(lat), pairs_per_s=pairs_per_s,
                           setup_s=_med(setups))
        run.report.update(
            svc_p50_ms=(_med(lat), "ms",
                        f"{len(lat)} requests at {NOMINAL_QPS:g} req/s"),
            svc_p99_ms=(p99, "ms", f"{len(lat)} requests at "
                        f"{NOMINAL_QPS:g} req/s"),
            svc_sat_qps=(sat_qps, "1/s", f"{len(overload)} completions, "
                         f"{OVERLOAD_QPS:g} req/s offered"),
            pairs_per_s=(pairs_per_s, "pairs/s", "neighbour ids returned per "
                         "second at saturation"),
            setup_s=(_med(setups), "s", f"median of {len(setups)} set-ups"))
        return

    before, after = stats
    svc_b, svc_a = before["service"], after["service"]
    point = svc_a["point_queries"] - svc_b["point_queries"]

    def hits(stats):
        return sum(d["index_hits"] for d in stats["datasets"])

    def span_ms(kind):
        return _med((r["done"] - r["send"]) * 1e3 for r in ok(nominal)
                    if r["knn"] == kind)

    run.metrics.update({
        "session.index_hits": hits(after) - hits(before),
        "svc.range_ms": span_ms(False),
        "svc.knn_ms": span_ms(True),
        "svc.p99_ms": p99,
        "svc.fusion_ratio": (svc_a["fused_queries"] - svc_b["fused_queries"])
        / point if point else 0.0,
        "svc.max_fused_in_tick": svc_a["max_fused_in_tick"],
        "svc.rejected": svc_a["rejected"] - svc_b["rejected"],
        "svc.timeouts": svc_a["timeouts"] - svc_b["timeouts"],
        "svc.gen_late_ms": late_p99,
        "trace.uncovered_s": _med(run.tracer.uncovered({"svc.range",
                                                        "svc.knn"})),
        "trace.overhead_s": (_med(lat) - _med(latencies_ms(phases["untraced"])))
        / 1e3,
    })


WORKLOADS = {
    "uniform2d-oneshot": lambda run: run_join(
        run, JoinWorkload(2, _uniform, None, _open_oneshot)),
    "expo4d-mp2": lambda run: run_join(
        run, JoinWorkload(4, _exponential, EXPO_EPS, _open_multiprocess)),
    "store3d-dist2": lambda run: run_join(
        run, JoinWorkload(3, _uniform, None, _open_distributed)),
    "service-mix": run_service,
}
