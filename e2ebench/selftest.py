"""Seconds-long self-test of the benchmark harness.

Run from the repository root::

    python3 e2ebench/selftest.py

It runs every workload on a few thousand points for a fraction of a
second, untraced and traced, and checks that the reported metric names are
exactly those of ``BENCHMARK.json``, that every operation passed the gate
and that the traced spans nest.  It then checks that the gate rejects a
corrupted self-join table and wrong range and kNN responses, that the
tracer rejects a span outside its parent, that the command's last output
line is the result object, that no process the command started outlives it,
and that the command fails without the program sources.  Exits non-zero on
the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from e2ebench import run as bench  # noqa: E402

SMALL = 3000


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_workloads(spec: dict) -> None:
    from e2ebench.tracing import Span, Tracer

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (False, True):
            doc = bench.run_one(workload, seed=3, seconds=0.3, trace=trace,
                                size=SMALL)
            label = f"{workload} trace={int(trace)}"
            check(doc["correct"] and doc["failed"] == 0,
                  f"{label}: {doc['failures']}")
            names = [m["name"] for m in
                     spec["per_layer" if trace else "end_to_end"]]
            check(list(doc["metrics"]) == names,
                  f"{label}: metrics {list(doc['metrics'])} != {names}")
            if not trace:
                check(all(m["value"] > 0 for m in doc["metrics"].values()),
                      f"{label}: an end-to-end metric is not positive")
                continue
            tracer = Tracer()
            tracer.spans = [Span(**s) for s in doc["spans"]]
            tracer.check_nesting()
            check(any(s.parent is not None for s in tracer.spans),
                  f"{label}: no nested spans")
            print(f"ok  {label}: {len(tracer.spans)} spans nest")
        print(f"ok  {workload}: metric names match, gate passed")


def check_gate() -> None:
    import numpy as np
    from repro.core.result import NeighborTable
    from repro.engine import Query, run_query
    from e2ebench.gate import Gate

    points = np.random.default_rng(0).uniform(0.0, 10.0, size=(200, 2))
    eps = 1.0
    table = run_query(Query.self_join(points, eps)).neighbor_table
    check(Gate(points, eps, 0).check_join(table, "exact"),
          "gate rejected a correct table")

    wrong = table.neighbors.copy()
    row = int(np.argmax(table.counts()))
    wrong[table.offsets[row]] = (wrong[table.offsets[row]] + 1) % 200
    corrupted = NeighborTable(table.offsets, wrong, table.num_points)
    check(not Gate(points, eps, 0).check_join(corrupted, "wrong id"),
          "gate accepted a table with a wrong neighbour id")

    offsets = table.offsets.copy()
    offsets[1], offsets[2] = offsets[2], offsets[1] - 1
    broken = NeighborTable(offsets, table.neighbors, table.num_points)
    check(not Gate(points, eps, 0).check_join(broken, "bad offsets"),
          "gate accepted non-monotone offsets")

    gate = Gate(points, eps, 0)
    gate.check_join(table, "first")
    offsets = table.offsets.copy()
    offsets[-1] -= 1  # the last row loses its last neighbour
    short = NeighborTable(offsets, table.neighbors[:-1], table.num_points)
    check(not gate.check_join(short, "count"),
          "gate accepted a join with a different pair count")

    q = points[7]
    exact = gate.neighbours(q)
    good = NeighborTable(np.array([0, exact.size]), exact, 1)
    check(gate.check_range(q, good, "range", scan=True),
          "gate rejected a correct range response")
    bad = NeighborTable(np.array([0, exact.size - 1]), exact[1:], 1)
    check(not gate.check_range(q, bad, "range", scan=True),
          "gate accepted a range response missing a neighbour")

    d = np.sqrt(((points - q) ** 2).sum(axis=1))
    order = np.argsort(d, kind="stable")[:4]
    check(gate.check_knn(q, 4, order, d[order], "knn", scan=True),
          "gate rejected a correct kNN response")
    skipped = np.argsort(d, kind="stable")[1:5]
    check(not gate.check_knn(q, 4, skipped, d[skipped], "knn", scan=True),
          "gate accepted a kNN response that skips the nearest point")
    wild = order.copy()
    wild[-1] = points.shape[0]
    check(not gate.check_knn(q, 4, wild, d[order], "knn", scan=True),
          "gate accepted a kNN neighbour id out of range")
    print("ok  gate rejects wrong tables and responses")


def check_tracer() -> None:
    from e2ebench.tracing import Tracer

    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    tracer.check_nesting()
    check(tracer.spans[1].parent == 0
          and tracer.spans[1].trace_id == tracer.spans[0].trace_id,
          "inner span not linked to its parent")
    check(abs(sum(tracer.self_times()) - tracer.spans[0].duration) < 1e-12,
          "self times do not add up to the root's duration")
    tracer.spans[1].end = tracer.spans[0].end + 1.0
    try:
        tracer.check_nesting()
    except ValueError:
        print("ok  tracer links, times and nests spans")
        return
    check(False, "a span ending after its parent passed the nesting check")


def session_members(sid: int) -> list:
    """PIDs of the processes in session ``sid`` (Linux ``/proc``)."""
    pids = []
    for entry in Path("/proc").iterdir():
        try:
            stat = (entry / "stat").read_text()
        except (OSError, ValueError):  # not a process, or it just ended
            continue
        # Fields after the parenthesised command: state, ppid, pgrp, session.
        if int(stat[stat.rfind(")") + 2:].split()[3]) == sid:
            pids.append(int(entry.name))
    return pids


def check_command(spec: dict) -> None:
    for workload in spec["workloads"]:
        cmd = [sys.executable, "e2ebench/run.py", "--workload",
               workload["name"], "--seed", "1", "--seconds", "0.2",
               "--trace", "0", "--points", str(SMALL)]
        # Its own session, so every process it starts can be found after.
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        stdout, _ = proc.communicate(timeout=180)
        last = json.loads(stdout.strip().splitlines()[-1])
        check(proc.returncode == 0 and sorted(last) == [
            "attempted", "correct", "failed", "metrics"],
            f"last line is not the result object: {stdout[-500:]}")
        if Path("/proc/self/stat").exists():
            left = session_members(proc.pid)
            check(not left, f"{workload['name']} left processes running "
                  f"after it exited: {left}")

    work = ROOT / "e2ebench" / ".work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "e2ebench", bare / "e2ebench",
                        ignore=shutil.ignore_patterns(".work", "results",
                                                      "__pycache__"))
        out = subprocess.run(cmd, cwd=bare, capture_output=True, text=True,
                             timeout=180)
        check(out.returncode != 0 and "correct" not in out.stdout,
              "the command did not fail without the program sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  command output contract; no process left; fails without "
          "sources")


def main() -> int:
    if not (bench.SRC / "repro").is_dir():
        raise SystemExit(f"selftest needs the program sources in {bench.SRC}")
    bench.use_source_tree()
    spec = json.loads(bench.SPEC.read_text())
    check_tracer()
    check_gate()
    check_workloads(spec)
    check_command(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
