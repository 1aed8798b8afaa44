"""In-memory span recorder for the traced benchmark run.

Spans are recorded by the benchmark around its own calls into each layer's
public functions (the program itself is not instrumented).  Each span has a
name, start and end (``time.perf_counter`` seconds), the index of the span
that caused it, and a trace id shared by every span of one operation.  The
spans stay in memory until the run ends and are then written out with the
results file.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from statistics import median
from typing import Dict, Iterator, List, Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    trace_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; safe to use from several threads at once."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._trace_ids = itertools.count(1)

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Time the enclosed block as a child of the innermost open span.

        A span opened with no enclosing span starts a new trace.  Yields
        the span's trace id.
        """
        stack = self._stack()
        with self._lock:
            parent = stack[-1] if stack else None
            trace_id = self.spans[parent].trace_id if parent is not None \
                else next(self._trace_ids)
            index = len(self.spans)
            self.spans.append(Span(name, time.perf_counter(), float("nan"),
                                   parent, trace_id))
        stack.append(index)
        try:
            yield trace_id
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans[index].end = end

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished root span (one operation timed by the caller)."""
        with self._lock:
            self.spans.append(Span(name, start, end, None,
                                   next(self._trace_ids)))

    # ---------------------------------------------------------------- reports
    def children(self) -> Dict[int, List[int]]:
        kids: Dict[int, List[int]] = {}
        for i, span in enumerate(self.spans):
            if span.parent is not None:
                kids.setdefault(span.parent, []).append(i)
        return kids

    def self_times(self) -> List[float]:
        """Each span's duration minus the time its direct children cover.

        Children of one span run one after another here, so the time they
        cover is the sum of their durations.
        """
        kids = self.children()
        return [span.duration - sum(self.spans[c].duration
                                    for c in kids.get(i, ()))
                for i, span in enumerate(self.spans)]

    def root_of(self, index: int) -> Span:
        span = self.spans[index]
        while span.parent is not None:
            span = self.spans[span.parent]
        return span

    def durations(self, name: str, root: Optional[str] = None) -> List[float]:
        """Durations of the spans called ``name`` (only under ``root``)."""
        return [s.duration for i, s in enumerate(self.spans)
                if s.name == name
                and (root is None or self.root_of(i).name == root)]

    def summary(self) -> Dict[str, dict]:
        """Per span name: count, total and median duration, total self time."""
        selfs = self.self_times()
        out: Dict[str, dict] = {}
        for span, self_time in zip(self.spans, selfs):
            row = out.setdefault(span.name, {"count": 0, "total_s": 0.0,
                                             "self_s": 0.0, "_d": []})
            row["count"] += 1
            row["total_s"] += span.duration
            row["self_s"] += self_time
            row["_d"].append(span.duration)
        for row in out.values():
            row["median_s"] = median(row.pop("_d"))
        return out

    def uncovered(self, root_names) -> List[float]:
        """Per root span named in ``root_names``: time no child span covers."""
        selfs = self.self_times()
        return [selfs[i] for i, s in enumerate(self.spans)
                if s.name in root_names and s.parent is None]

    def check_nesting(self) -> None:
        """Raise ``ValueError`` unless every span lies inside its parent."""
        for i, span in enumerate(self.spans):
            if not span.end >= span.start:
                raise ValueError(f"span {i} ({span.name}) never closed")
            if span.parent is None:
                continue
            parent = self.spans[span.parent]
            if span.parent >= i or parent.trace_id != span.trace_id \
                    or span.start < parent.start or span.end > parent.end:
                raise ValueError(f"span {i} ({span.name}) is not nested in "
                                 f"its parent {span.parent} ({parent.name})")

    def to_json(self) -> List[dict]:
        return [asdict(s) for s in self.spans]
