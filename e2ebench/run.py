"""Paper-scale self-join benchmark.

Run from the repository root::

    python3 e2ebench/run.py --workload uniform2d-oneshot --seed 1 --seconds 12 --trace 0

``--workload`` names one workload of ``BENCHMARK.json``; without it every
workload runs, each in a fresh process.  The inputs are generated from
``--seed``; each workload sets up its program state, then measures for
``--seconds``.  Every operation passes a correctness gate (see
``e2ebench/gate.py``); a wrong answer makes the run fail with exit code 1.

With ``--trace 0`` the last line of standard output is a JSON object whose
``metrics`` are the ``end_to_end`` metrics of ``BENCHMARK.json``.  With
``--trace 1`` the benchmark calls each layer itself, records a span around
every call, and reports the ``per_layer`` metrics instead; a layer that the
workload does not exercise reports 0.  Each run also writes
``e2ebench/results/<workload>-seed<seed>-trace<0|1>.json`` with an
environment header, the per-kind metrics, counter deltas, per-operation
records and, when traced, every span.

The program is imported from ``src/`` of the checkout (the package is not
installed); child processes get the same path through ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
RESULTS = BENCH_DIR / "results"
MAIN_PID = os.getpid()


def use_source_tree() -> None:
    """Import the program from ``src/``; children inherit it via PYTHONPATH."""
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")


def _git_commit():
    if not (ROOT / ".git").exists():  # an exported tree has no commit
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker and wait until it has ended.

    The first shared-memory segment (the multiprocess backend makes one per
    pool) starts the tracker as a child process that would otherwise
    outlive this one; there is no public call to stop it.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def environment(seed: int, info: dict) -> dict:
    import numpy as np
    from repro.core.nativekernels import kernel_tier_availability
    from e2ebench.workloads import nproc

    numba = kernel_tier_availability()["numba"]
    return {"nproc": nproc(),
            "numba": "available" if numba is None else "absent",
            "numba_reason": numba,
            "python": platform.python_version(), "numpy": np.__version__,
            "git_commit": _git_commit(), "seed": seed, **info}


def run_one(workload: str, seed: int, seconds: float, trace: bool,
            size=None) -> dict:
    """Run one workload in this process; return the results document."""
    from e2ebench.workloads import N_POINTS, WORKLOADS, Run, peak_rss_mb

    spec = json.loads(SPEC.read_text())
    metric_specs = spec["per_layer" if trace else "end_to_end"]
    workdir = BENCH_DIR / ".work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(seed=seed, seconds=seconds, trace=trace, workdir=workdir,
              size=size or N_POINTS)
    crashed = False
    try:
        with run.children:  # tears every child process down, also on Ctrl-C
            WORKLOADS[workload](run)
    except Exception:  # the operation in progress counts as failed
        crashed = True
        run.errors.append(traceback.format_exc(limit=8))
    finally:
        stop_resource_tracker()
        shutil.rmtree(workdir, ignore_errors=True)

    own, child = run.peak_rss_mb or peak_rss_mb()
    peak = max(own, child)
    if not trace:
        run.metrics["peak_rss_mb"] = peak
    attempted = max(run.attempted, run.failed, 1)
    run.report["peak_rss_mb"] = (peak, "MB", f"larger of this process "
                                 f"({own:.1f}) and its largest child "
                                 f"({child:.1f})")
    run.report["error_rate"] = (run.failed / attempted, "ratio",
                                f"{run.failed} of {attempted} operations")

    names = [m["name"] for m in metric_specs]
    unknown = sorted(set(run.metrics) - set(names))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    missing = [n for n in names if n not in run.metrics]
    if missing and not trace and not crashed:
        raise KeyError(f"end-to-end metrics not measured: {missing}")
    metrics = {m["name"]: {"value": run.metrics.get(m["name"], 0),
                           "unit": m["unit"]} for m in metric_specs}
    doc = {"workload": workload,
           "environment": environment(seed, run.info),
           "correct": run.failed == 0 and not crashed,
           "attempted": attempted, "failed": run.failed,
           "metrics": metrics,
           "not_exercised": missing,
           "report": {k: {"value": v, "unit": u, "note": note}
                      for k, (v, u, note) in run.report.items()},
           "failures": run.errors + (run.gate.failures if run.gate else []),
           "detail": run.detail}
    if run.tracer is not None:
        doc["span_summary"] = run.tracer.summary()
        doc["spans"] = run.tracer.to_json()
    return doc


def _print_summary(doc: dict, trace: bool) -> None:
    env = doc["environment"]
    print(f"{doc['workload']}: n={env.get('n')} dims={env.get('dims')} "
          f"eps={env.get('eps')} seed={env['seed']} nproc={env['nproc']} "
          f"numba={env['numba']} commit={env['git_commit']}")
    for name, row in doc["report"].items():
        print(f"  {name:<14} {row['value']:>14.6g} {row['unit']:<8} "
              f"{row['note']}")
    if doc["detail"].get("generator_behind"):
        print("  WARNING: the load generator fell behind schedule "
              f"(p99 {doc['detail']['generator_late_p99_ms']:.2f} ms late)")
    for failure in doc["failures"]:
        print(f"  FAILED {failure.rstrip()}")
    if trace:
        print(f"  {'span':<20} {'count':>5} {'total s':>9} {'self s':>9} "
              f"{'median s':>9}")
        for name, row in doc["span_summary"].items():
            print(f"  {name:<20} {row['count']:>5} {row['total_s']:>9.4f} "
                  f"{row['self_s']:>9.4f} {row['median_s']:>9.4f}")
        for name, row in doc["metrics"].items():
            print(f"  {name:<26} {row['value']:>14.6g} {row['unit']}")


def _raise_interrupt(signum, frame):
    if os.getpid() != MAIN_PID:
        # A forked pool worker inherited this handler; let the signal end it
        # the default way, as the pool that terminates it expects.
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)
        return
    raise KeyboardInterrupt(f"signal {signum}")


def _run_all(args, names) -> int:
    """Every workload, each in a fresh process (its own peak RSS)."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.points:
            cmd += ["--points", str(args.points)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="", flush=True)
        lines = proc.stdout.strip().splitlines()
        try:
            last = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            last = {"correct": False, "attempted": 1, "failed": 1,
                    "metrics": {}}
        summary["correct"] &= bool(last["correct"]) and proc.returncode == 0
        summary["attempted"] += last["attempted"]
        summary["failed"] += last["failed"]
        summary["metrics"].update({f"{name}.{k}": v
                                   for k, v in last["metrics"].items()})
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--points", type=int, default=None,
                        help="dataset size (default 200000; the self-test "
                             "uses a small one)")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: the program sources are missing ({SRC / 'repro'} "
              "not found); run from a full checkout", file=sys.stderr)
        return 2
    use_source_tree()
    signal.signal(signal.SIGTERM, _raise_interrupt)
    names = [w["name"] for w in json.loads(SPEC.read_text())["workloads"]]
    if args.workload is None:
        return _run_all(args, names)
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")

    doc = run_one(args.workload, args.seed, args.seconds, bool(args.trace),
                  size=args.points)
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(doc, indent=1, default=str))
    _print_summary(doc, bool(args.trace))
    print(f"  results: {out.relative_to(ROOT)}")
    print(json.dumps({k: doc[k] for k in ("correct", "attempted", "failed",
                                          "metrics")}))
    return 0 if doc["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
