"""Unit tests for ``repro.parallel.scheduler`` — the work-stealing layer.

The scheduler is a pure state machine: every test here drives it with a
fake clock and synthetic dispatch/complete/fail events, no processes or
sockets.  The integration half (the distributed backend's event loop, the
multiprocessing pool) is covered by ``test_distributed*.py`` and
``test_parallel_backends.py``; what this file pins down is the *decision
logic* — waterfall order, split boundaries, family coverage, the hedge
accounting fix, and the deterministic merge.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.kernels import KernelStats
from repro.core.result import PairFragments
from repro.parallel.scheduler import (
    OVERSPLIT_FACTOR,
    Completion,
    OrderedShardMerger,
    ScheduleExhausted,
    ShardTask,
    WorkStealingScheduler,
    dispatch_order,
    pool_schedule_report,
    tasks_from_arrays,
)


def _task(i, cost, n_items=4, kind="selfjoin"):
    cells = np.arange(i * 100, i * 100 + n_items)
    item_costs = np.full(n_items, cost / n_items, dtype=np.float64)
    return ShardTask(key=(i,), cost=float(cost), kind=kind, cells=cells,
                     item_costs=item_costs)


class TestShardTask:
    def test_split_is_contiguous_at_cost_weighted_midpoint(self):
        cells = np.array([10, 11, 12, 13])
        costs = np.array([8.0, 1.0, 1.0, 1.0])
        task = ShardTask(key=(3,), cost=11.0, cells=cells, item_costs=costs)
        a, b = task.split()
        # Half the cumulative cost (5.5) is inside cell 0, so the boundary
        # lands right after it (clamped to leave both halves non-empty).
        assert a.key == (3, 0) and b.key == (3, 1)
        assert list(a.cells) == [10]
        assert list(b.cells) == [11, 12, 13]
        assert a.cost == pytest.approx(8.0)
        assert b.cost == pytest.approx(3.0)
        assert a.root == b.root == 3
        assert a.depth == b.depth == 1

    def test_split_without_costs_halves_items(self):
        task = ShardTask(key=(0,), cost=4.0, cells=np.arange(6))
        a, b = task.split()
        assert list(a.cells) == [0, 1, 2]
        assert list(b.cells) == [3, 4, 5]
        # Cost falls back to the item-proportional share.
        assert a.cost == pytest.approx(2.0)

    def test_span_split_keeps_directory_range_contiguous(self):
        task = ShardTask(key=(1,), cost=10.0, kind="stream", span=(20, 28),
                         item_costs=np.ones(8))
        a, b = task.split()
        assert a.span == (20, 24) and b.span == (24, 28)
        assert a.n_items == b.n_items == 4

    def test_single_item_is_not_splittable(self):
        task = ShardTask(key=(0,), cost=1.0, cells=np.array([5]))
        assert not task.splittable()
        with pytest.raises(ValueError):
            task.split()

    def test_tasks_from_arrays_skips_empty_groups(self):
        groups = [np.array([0, 1]), np.array([], dtype=np.int64),
                  np.array([2])]
        costs = [np.array([1.0, 2.0]), np.empty(0), np.array([4.0])]
        tasks = tasks_from_arrays(groups, costs)
        assert [t.key for t in tasks] == [(0,), (2,)]
        assert tasks[0].cost == pytest.approx(3.0)

    def test_dispatch_order_largest_first_ties_on_key(self):
        tasks = [_task(0, 5.0), _task(1, 9.0), _task(2, 5.0)]
        assert [t.key for t in dispatch_order(tasks)] == [(1,), (0,), (2,)]


class TestWaterfall:
    """next_task: own queue → steal → resplit → hedge, in that order."""

    def test_own_queue_served_largest_first(self):
        sched = WorkStealingScheduler([_task(0, 1.0), _task(1, 9.0)], ["w0"])
        t = sched.next_task("w0", now=0.0)
        assert t.key == (1,)
        assert sched.next_task("w0", now=0.0).key == (0,)

    def test_initial_assignment_matches_static_plan(self):
        # Contiguous cost-balanced partition: first worker gets the heavy
        # prefix, second the remainder — same contract as split_by_cost.
        tasks = [_task(i, c) for i, c in enumerate([5.0, 5.0, 1.0, 1.0])]
        sched = WorkStealingScheduler(tasks, ["w0", "w1"])
        assert sched.queued_count("w0") + sched.queued_count("w1") == 4
        w0_keys = {sched.next_task("w0", 0.0).key
                   for _ in range(sched.queued_count("w0") + 1)}
        assert w0_keys == {(0,), (1,)} or w0_keys == {(0,)}

    def test_idle_worker_steals_from_backlogged_victim(self):
        tasks = [_task(i, c) for i, c in enumerate([9.0, 3.0, 3.0])]
        sched = WorkStealingScheduler(tasks, ["w0", "w1"])
        # w0 holds (0,) [cost 9]; w1 holds (1,),(2,).  Drain w1, then it
        # must steal w0's queued shard... but w0's queue only has (0,) if
        # it hasn't pulled yet.
        assert sched.next_task("w1", 0.0).key == (1,)
        assert sched.next_task("w1", 0.0).key == (2,)
        stolen = sched.next_task("w1", 0.0)
        assert stolen is not None and stolen.key == (0,)
        assert sched.report.steals == 1

    def test_resplit_when_all_queues_dry(self):
        tasks = [_task(0, 9.0, n_items=6), _task(1, 1.0, n_items=1)]
        sched = WorkStealingScheduler(tasks, ["w0", "w1"])
        big = sched.next_task("w0", 0.0)
        assert big.key == (0,)
        sched.next_task("w1", 0.0)          # w1 takes (1,)
        sched.on_complete("w1", (1,), 0.5, pairs=3)
        half = sched.next_task("w1", 1.0)   # nothing queued → resplit (0,)
        assert half.key == (0, 0)
        assert sched.report.resplits == 1
        assert sched.report.hedges == 0
        # The second half sits on w1's queue for the next pull.
        nxt = sched.next_task("w1", 1.0)
        assert nxt.key == (0, 1)

    def test_hedge_is_last_resort_for_unsplittable_work(self):
        tasks = [_task(0, 9.0, n_items=1)]       # cannot be split
        sched = WorkStealingScheduler(tasks, ["w0", "w1"], hedge_after=0.25)
        sched.next_task("w0", 0.0)
        sched.on_start("w0", (0,), 0.0)
        # Too early: no hedge yet.
        assert sched.next_task("w1", 0.1) is None
        hedge = sched.next_task("w1", 0.5)
        assert hedge is not None and hedge.key == (0,)
        assert sched.report.hedges == 1

    def test_hedge_disabled_with_zero_hedge_after(self):
        sched = WorkStealingScheduler([_task(0, 9.0, n_items=1)],
                                      ["w0", "w1"], hedge_after=0.0)
        sched.next_task("w0", 0.0)
        assert sched.next_task("w1", 99.0) is None

    def test_no_second_copy_of_same_key_on_one_worker(self):
        sched = WorkStealingScheduler([_task(0, 9.0, n_items=1)],
                                      ["w0", "w1"], hedge_after=0.1)
        sched.next_task("w0", 0.0)
        assert sched.next_task("w0", 5.0) is None   # own copy: no self-hedge
        assert sched.next_task("w1", 5.0).key == (0,)
        assert sched.next_task("w1", 9.0) is None   # two copies active now

    def test_static_mode_never_steals_or_resplits(self):
        tasks = [_task(0, 9.0, n_items=6), _task(1, 1.0)]
        sched = WorkStealingScheduler(tasks, ["w0", "w1"], mode="static",
                                      hedge_after=0.25)
        sched.next_task("w0", 0.0)
        sched.next_task("w1", 0.0)
        sched.on_complete("w1", (1,), 0.1, pairs=1)
        # w1 idle, w0 busy on a splittable shard: static may only hedge.
        assert sched.next_task("w1", 0.2) is None
        hedge = sched.next_task("w1", 0.5)
        assert hedge is not None and hedge.key == (0,)
        assert sched.report.steals == 0
        assert sched.report.resplits == 0
        assert sched.report.hedges == 1


class TestFamilyCoverage:
    def test_original_beats_halves(self):
        sched = WorkStealingScheduler([_task(0, 8.0, n_items=4)],
                                      ["w0", "w1"])
        sched.next_task("w0", 0.0)
        half0 = sched.next_task("w1", 1.0)      # resplit
        assert half0.key == (0, 0)
        done = sched.on_complete("w0", (0,), 2.0, pairs=10)
        assert done.accepted
        assert done.newly_covered == (0, [(0,)])
        assert sched.finished()
        # The half finishing later is resplit waste, not hedge waste.
        late = sched.on_complete("w1", (0, 0), 3.0, pairs=4)
        assert not late.accepted
        assert sched.report.resplit_wasted_shards == 1
        assert sched.report.resplit_wasted_pairs == 4
        assert sched.report.hedge_wasted_shards == 0

    def test_both_halves_beat_original(self):
        sched = WorkStealingScheduler([_task(0, 8.0, n_items=4)],
                                      ["w0", "w1"])
        sched.next_task("w0", 0.0)
        sched.next_task("w1", 1.0)              # (0, 0) via resplit
        second = sched.next_task("w1", 1.0)     # (0, 1) from own queue
        assert second.key == (0, 1)
        a = sched.on_complete("w1", (0, 0), 2.0, pairs=3)
        assert a.accepted and a.newly_covered is None
        b = sched.on_complete("w1", (0, 1), 2.5, pairs=4)
        assert b.accepted
        assert b.newly_covered == (0, [(0, 0), (0, 1)])
        # The original straggler loses the race: resplit waste.
        lost = sched.on_complete("w0", (0,), 9.0, pairs=7)
        assert not lost.accepted
        assert sched.report.resplit_wasted_shards == 1
        assert sched.report.resplit_wasted_pairs == 7

    def test_one_resplit_per_family(self):
        sched = WorkStealingScheduler([_task(0, 8.0, n_items=8)],
                                      ["w0", "w1", "w2"], hedge_after=0.0)
        sched.next_task("w0", 0.0)
        assert sched.next_task("w1", 1.0).key == (0, 0)
        # w2 takes the queued half; no second split of the same family.
        assert sched.next_task("w2", 1.0).key == (0, 1)
        assert sched.next_task("w2", 2.0) is None
        assert sched.report.resplits == 1


class TestExactCounters:
    """Kernel counters come only from each family's winning covering set."""

    def _stats(self, calcs, pairs):
        return KernelStats(distance_calcs=calcs, result_pairs=pairs,
                           cells_checked=calcs, nonempty_cells_visited=pairs)

    def test_accepted_half_that_loses_its_family_is_not_counted(self):
        sched = WorkStealingScheduler([_task(0, 8.0, n_items=4)],
                                      ["w0", "w1"])
        sink = PairFragments(20)
        merger = OrderedShardMerger(sink, sched.roots)
        sched.next_task("w0", 0.0)                    # original (0,)
        assert sched.next_task("w1", 1.0).key == (0, 0)   # resplit half
        # The half finishes first and is accepted: its family is still open.
        half = sched.on_complete("w1", (0, 0), 2.0, pairs=2)
        assert half.accepted and half.newly_covered is None
        merger.stash((0, 0), [(np.array([0, 1]), np.array([1, 0]))],
                     stats=self._stats(9, 2))
        assert sched.next_task("w1", 2.0).key == (0, 1)
        # Then the original covers the family on its own: the half loses.
        orig = sched.on_complete("w0", (0,), 3.0, pairs=5)
        assert orig.newly_covered == (0, [(0,)])
        merger.stash((0,), [(np.arange(5), np.arange(5)[::-1])],
                     stats=self._stats(20, 5))
        merger.complete(*orig.newly_covered)
        assert merger.pending() == 0
        assert sink.num_pairs == 5
        assert merger.stats.distance_calcs == 20
        assert merger.stats.result_pairs == 5 == sink.num_pairs
        assert merger.stats.cells_checked == 20
        assert merger.stats.nonempty_cells_visited == 5
        # The losing half's work shows up as resplit waste instead.
        assert sched.report.resplit_wasted_shards == 1
        assert sched.report.resplit_wasted_pairs == 2
        late = sched.on_complete("w1", (0, 1), 4.0, pairs=3)
        assert not late.accepted
        assert sched.report.resplit_wasted_shards == 2
        assert sched.report.resplit_wasted_pairs == 5

    def test_winning_halves_are_both_counted(self):
        sched = WorkStealingScheduler([_task(0, 8.0, n_items=4)],
                                      ["w0", "w1"])
        merger = OrderedShardMerger(PairFragments(20), sched.roots)
        sched.next_task("w0", 0.0)
        sched.next_task("w1", 1.0)
        sched.next_task("w1", 1.0)
        for key, t, calcs in (((0, 1), 2.0, 4), ((0, 0), 2.5, 6)):
            done = sched.on_complete("w1", key, t, pairs=1)
            merger.stash(key, [(np.array([calcs]), np.array([calcs]))],
                         stats=self._stats(calcs, 1))
            if done.newly_covered is not None:
                merger.complete(*done.newly_covered)
        assert merger.stats.distance_calcs == 10
        assert merger.stats.result_pairs == 2
        assert sched.report.resplit_wasted_shards == 0


class TestHedgeAccountingFix:
    def test_cancelled_hedge_then_original_completion_is_not_waste(self):
        # Regression for the pre-scheduler dispatcher: shard completed by
        # the original worker after its hedge was cancelled must not count
        # toward hedge_waste, and the cancelled copy must not be requeued.
        sched = WorkStealingScheduler([_task(0, 9.0, n_items=1)],
                                      ["w0", "w1"], hedge_after=0.1)
        sched.next_task("w0", 0.0)
        sched.next_task("w1", 0.5)              # hedge dispatched
        done = sched.on_complete("w0", (0,), 1.0, pairs=10)
        assert done.accepted and sched.finished()
        # The hedge copy is cancelled *after* the original completed.
        sched.on_failure("w1", (0,), 1.1, reason="cancelled")
        assert sched.report.hedge_wasted_shards == 0
        assert sched.report.hedge_wasted_pairs == 0
        assert sched.report.duplicates_dropped == 1
        assert sched.report.redispatches == 0
        assert sched.queued_count("w0") == 0
        assert sched.queued_count("w1") == 0

    def test_executed_hedge_duplicate_is_counted_once(self):
        sched = WorkStealingScheduler([_task(0, 9.0, n_items=1)],
                                      ["w0", "w1"], hedge_after=0.1)
        sched.next_task("w0", 0.0)
        sched.next_task("w1", 0.5)
        sched.on_complete("w0", (0,), 1.0, pairs=10)
        # The hedge actually ran to completion: that IS wasted compute.
        lost = sched.on_complete("w1", (0,), 1.2, pairs=10)
        assert not lost.accepted
        assert sched.report.hedge_wasted_shards == 1
        assert sched.report.hedge_wasted_pairs == 10

    def test_skipped_stale_copy_is_dropped_not_wasted(self):
        sched = WorkStealingScheduler([_task(0, 9.0, n_items=1)],
                                      ["w0", "w1"], hedge_after=0.1)
        sched.next_task("w0", 0.0)
        sched.next_task("w1", 0.5)
        sched.on_complete("w0", (0,), 1.0, pairs=10)
        sched.on_skipped("w1", (0,))
        assert sched.report.duplicates_dropped == 1
        assert sched.report.hedge_wasted_shards == 0


class TestFailuresAndDeath:
    def test_failed_lone_copy_is_redispatched(self):
        sched = WorkStealingScheduler([_task(0, 5.0)], ["w0", "w1"])
        sched.next_task("w0", 0.0)
        sched.on_failure("w0", (0,), 1.0, reason="timeout")
        assert sched.report.redispatches == 1
        # Requeued onto the least-loaded alive worker; either may pull it.
        pulled = sched.next_task("w1", 1.5) or sched.next_task("w0", 1.5)
        assert pulled.key == (0,)

    def test_failure_with_surviving_copy_does_not_requeue(self):
        sched = WorkStealingScheduler([_task(0, 5.0, n_items=1)],
                                      ["w0", "w1"], hedge_after=0.1)
        sched.next_task("w0", 0.0)
        sched.next_task("w1", 0.5)              # hedge: two active copies
        sched.on_failure("w1", (0,), 0.6, reason="cancelled")
        assert sched.report.redispatches == 0
        assert sched.queued_count("w0") == 0
        assert sched.queued_count("w1") == 0
        # The surviving original still completes the join.
        assert sched.on_complete("w0", (0,), 1.0, pairs=2).accepted

    def test_exhausted_attempts_raise(self):
        sched = WorkStealingScheduler([_task(0, 5.0)], ["w0"],
                                      max_attempts=2)
        sched.next_task("w0", 0.0)
        sched.on_failure("w0", (0,), 1.0)
        sched.next_task("w0", 1.0)
        with pytest.raises(ScheduleExhausted):
            sched.on_failure("w0", (0,), 2.0)

    def test_dead_worker_requeues_queued_and_outstanding(self):
        tasks = [_task(i, c) for i, c in enumerate([5.0, 4.0, 3.0, 2.0])]
        sched = WorkStealingScheduler(tasks, ["w0", "w1"])
        first = sched.next_task("w0", 0.0)
        sched.on_worker_dead("w0", 1.0)
        assert "w0" not in sched.alive_workers()
        assert sched.next_task("w0", 1.0) is None
        # Everything w0 held (in-flight + queued) drains through w1.
        seen = set()
        for _ in range(8):
            t = sched.next_task("w1", 2.0)
            if t is None:
                break
            seen.add(t.key)
            sched.on_complete("w1", t.key, 2.5, pairs=1)
        assert first.key in seen
        assert seen == {(0,), (1,), (2,), (3,)}
        assert sched.finished()
        assert sched.report.redispatches >= 1

    def test_all_workers_dead_raises(self):
        sched = WorkStealingScheduler([_task(0, 5.0)], ["w0"])
        sched.next_task("w0", 0.0)
        with pytest.raises(ScheduleExhausted):
            sched.on_worker_dead("w0", 1.0)


class TestRebalance:
    def test_queued_shard_moves_off_slow_worker(self):
        tasks = [_task(i, 4.0) for i in range(6)]
        sched = WorkStealingScheduler(tasks, ["slow", "fast"],
                                      rebalance_ratio=2.0)
        # Observed throughput: slow at 1 unit/s, fast at 100 units/s.
        t = sched.next_task("slow", 0.0)
        sched.on_complete("slow", t.key, 4.0, pairs=1)     # rate 1.0
        t = sched.next_task("fast", 0.0)
        sched.on_complete("fast", t.key, 0.04, pairs=1)    # rate 100.0
        before_slow = sched.queued_count("slow")
        assert sched.maybe_rebalance(5.0)
        assert sched.report.rebalances == 1
        assert sched.queued_count("slow") == before_slow - 1

    def test_static_mode_never_rebalances(self):
        tasks = [_task(i, 4.0) for i in range(6)]
        sched = WorkStealingScheduler(tasks, ["w0", "w1"], mode="static")
        t = sched.next_task("w0", 0.0)
        sched.on_complete("w0", t.key, 40.0, pairs=1)
        assert not sched.maybe_rebalance(50.0)
        assert sched.report.rebalances == 0

    def test_no_rebalance_when_rates_are_similar(self):
        tasks = [_task(i, 4.0) for i in range(4)]
        sched = WorkStealingScheduler(tasks, ["w0", "w1"])
        for name in ("w0", "w1"):
            t = sched.next_task(name, 0.0)
            sched.on_complete(name, t.key, 1.0, pairs=1)
        assert not sched.maybe_rebalance(2.0)


class TestReporting:
    def test_ewma_and_cost_ratio_in_final_report(self):
        sched = WorkStealingScheduler([_task(0, 10.0), _task(1, 10.0)],
                                      ["w0"], ewma_alpha=0.5)
        t = sched.next_task("w0", 0.0)
        sched.on_start("w0", t.key, 0.0)
        sched.on_complete("w0", t.key, 1.0, pairs=5)       # 10 units/s
        t = sched.next_task("w0", 1.0)
        sched.on_start("w0", t.key, 1.0)
        sched.on_complete("w0", t.key, 1.5, pairs=5)       # 20 units/s
        report = sched.finalize_report(achieved_cost=25.0)
        assert report.worker_throughput["w0"] == pytest.approx(15.0)
        assert report.predicted_cost == pytest.approx(20.0)
        assert report.cost_ratio == pytest.approx(1.25)
        assert report.counts()["cost_ratio_pct"] == 125
        assert report.worker_shards == {"w0": 2}
        snap = report.snapshot()
        assert snap["mode"] == "adaptive" and snap["n_workers"] == 1

    def test_pool_report_infers_steals_beyond_fair_share(self):
        tasks = [_task(i, 2.0) for i in range(8)]
        # Worker a executed 6 of 8 shards; fair share at 2 workers is 4.
        execs = [((i,), "a" if i < 6 else "b", 0.1) for i in range(8)]
        report = pool_schedule_report(tasks, execs, n_workers=2,
                                      achieved_cost=16.0)
        assert report.steals == 2
        assert report.worker_shards == {"a": 6, "b": 2}
        assert report.worker_throughput["a"] == pytest.approx(12.0 / 0.6)
        assert report.counts()["cost_ratio_pct"] == 100

    def test_oversplit_factor_is_the_planning_contract(self):
        # The knob the backends size their plans with; pinned so a silent
        # change shows up here and in the ISSUE's scheduling docs.
        assert OVERSPLIT_FACTOR == 4


class TestOrderedShardMerger:
    def _sink(self, n):
        return PairFragments(n)

    def test_out_of_order_completions_emit_in_root_order(self):
        sink = self._sink(10)
        merger = OrderedShardMerger(sink, roots=[0, 1, 2])
        chunk = lambda lo: [(np.array([lo]), np.array([lo + 1]))]
        merger.stash((2,), chunk(4))
        merger.complete(2, [(2,)])
        assert merger.pending() == 3        # root 0 still open: nothing out
        merger.stash((0,), chunk(0))
        merger.complete(0, [(0,)])
        assert merger.pending() == 2        # 0 flushed; 2 buffered behind 1
        merger.stash((1,), chunk(2))
        merger.complete(1, [(1,)])
        assert merger.pending() == 0
        keys, values = sink.concatenated()
        assert list(keys) == [0, 2, 4]
        assert list(values) == [1, 3, 5]

    def test_split_family_emits_halves_where_parent_would(self):
        sink_split = self._sink(10)
        merger = OrderedShardMerger(sink_split, roots=[0, 1])
        merger.stash((0, 1), [(np.array([2, 3]), np.array([12, 13]))])
        merger.stash((0, 0), [(np.array([0, 1]), np.array([10, 11]))])
        merger.complete(0, [(0, 0), (0, 1)])
        merger.stash((1,), [(np.array([4]), np.array([14]))])
        merger.complete(1, [(1,)])
        keys, values = sink_split.concatenated()
        # Identical stream to the unsplit run: halves in order, then root 1.
        assert list(keys) == [0, 1, 2, 3, 4]
        assert list(values) == [10, 11, 12, 13, 14]

    def test_key_map_rebases_probe_rows_at_emit_time(self):
        sink = self._sink(100)
        merger = OrderedShardMerger(sink, roots=[0])
        key_map = np.array([40, 40, 41])     # slice-local row → global row
        merger.stash((0,), [(np.array([0, 2]), np.array([7, 8]))],
                     key_map=key_map)
        merger.complete(0, [(0,)])
        keys, values = sink.concatenated()
        assert list(keys) == [40, 41]
        assert list(values) == [7, 8]
