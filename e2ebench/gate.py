"""Correctness gate applied to every operation the benchmark runs.

A self-join's CSR table must pass ``NeighborTable.validate()``, must hold
the same number of pairs as every other join of the run, and about 256
seeded sample rows must equal an exact scan computed here with the kernels'
own predicate (squared difference summed by ``einsum``, ``<= eps**2``).
Service responses are checked the same way.

A full scan of 256 rows against 200k points costs about a second per
operation, so the scan first narrows to the points whose first coordinate
lies within ``eps`` (plus a relative margin of 1e-9) of the query.  A point
outside that window has a rounded squared distance strictly above
``eps**2``, so the window loses no neighbour and the result is exact.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

SAMPLE_ROWS = 256
_MARGIN = 1e-9


class Gate:
    """Checks every operation of one run; collects the failures."""

    def __init__(self, points: np.ndarray, eps: float, seed: int) -> None:
        self.points = np.ascontiguousarray(points, dtype=np.float64)
        self.eps = float(eps)
        self.eps2 = self.eps * self.eps
        self._order = np.argsort(self.points[:, 0], kind="stable")
        self._x = self.points[self._order, 0]
        self._rng = np.random.default_rng([int(seed), 0x6A7E])
        self.pair_count: Optional[int] = None
        self.failures: List[str] = []

    # ------------------------------------------------------------ reference
    def _window(self, q: np.ndarray, radius: float) -> np.ndarray:
        reach = radius * (1.0 + _MARGIN)
        lo = np.searchsorted(self._x, q[0] - reach, side="left")
        hi = np.searchsorted(self._x, q[0] + reach, side="right")
        return self._order[lo:hi]

    def _dist2(self, q: np.ndarray, ids: np.ndarray) -> np.ndarray:
        diff = self.points[ids] - q
        return np.einsum("ij,ij->i", diff, diff)

    def neighbours(self, q: np.ndarray) -> np.ndarray:
        """Sorted ids of every point within ``eps`` of ``q``."""
        ids = self._window(q, self.eps)
        return np.sort(ids[self._dist2(q, ids) <= self.eps2])

    # --------------------------------------------------------------- checks
    def _fail(self, label: str, message: str) -> bool:
        self.failures.append(f"{label}: {message}")
        return False

    def check_join(self, table, label: str) -> bool:
        """Gate one self-join's CSR table; returns whether it passed."""
        n = self.points.shape[0]
        try:
            table.validate()
        except AssertionError as exc:
            return self._fail(label, f"validate() failed: {exc}")
        if table.num_points != n:
            return self._fail(label, f"{table.num_points} rows, expected {n}")
        if self.pair_count is None:
            self.pair_count = table.num_pairs
        elif table.num_pairs != self.pair_count:
            return self._fail(label, f"{table.num_pairs} pairs, earlier "
                                     f"joins of this run gave {self.pair_count}")
        rows = self._rng.choice(n, size=min(SAMPLE_ROWS, n), replace=False)
        for i in rows:
            expected = self.neighbours(self.points[i])
            if not np.array_equal(table.neighbors_of(int(i)), expected):
                return self._fail(label, f"row {int(i)} differs from the "
                                         "exact scan")
        return True

    def sample(self, count: int, size: int = SAMPLE_ROWS) -> np.ndarray:
        """Seeded choice of which of ``count`` service responses to scan."""
        return np.sort(self._rng.choice(count, size=min(size, count),
                                        replace=False))

    def check_range(self, q: np.ndarray, table, label: str,
                    scan: bool) -> bool:
        """Gate one single-point range response (scan: compare exactly).

        ``NeighborTable.validate()`` bounds neighbour ids by the row count,
        which holds only for self-joins; a range response has one row and
        ids into the dataset, so its CSR shape is checked here instead.
        """
        ids = table.neighbors
        if table.num_points != 1 or table.offsets.tolist() != [0, ids.shape[0]]:
            return self._fail(label, f"malformed CSR: offsets "
                                     f"{table.offsets.tolist()}")
        if ids.size and (ids.min() < 0 or ids.max() >= self.points.shape[0]):
            return self._fail(label, "neighbour id out of range")
        if scan and not np.array_equal(table.neighbors_of(0),
                                       self.neighbours(q)):
            return self._fail(label, "differs from the exact scan")
        return True

    def check_knn(self, q: np.ndarray, k: int, indices: np.ndarray,
                  distances: np.ndarray, label: str, scan: bool) -> bool:
        """Gate one single-point kNN response.

        Every point nearer than the returned k-th distance lies in the
        window of that radius, so the k smallest distances in the window
        are the true k nearest distances.
        """
        indices = np.asarray(indices).reshape(-1)
        distances = np.asarray(distances).reshape(-1)
        if indices.shape[0] != k or distances.shape[0] != k:
            return self._fail(label, f"{indices.shape[0]} neighbours, "
                                     f"expected {k}")
        if np.any(np.diff(distances) < 0):
            return self._fail(label, "distances are not ascending")
        if indices.min() < 0 or indices.max() >= self.points.shape[0]:
            return self._fail(label, "neighbour id out of range")
        if not scan:
            return True
        own = np.sqrt(self._dist2(q, indices.astype(np.int64)))
        ids = self._window(q, float(distances[-1]))
        best = np.sort(np.sqrt(self._dist2(q, ids)))[:k]
        if best.shape[0] != k \
                or not (np.allclose(own, distances, rtol=1e-9, atol=0.0)
                and np.allclose(best, distances, rtol=1e-9, atol=0.0)):
            return self._fail(label, "differs from the exact scan")
        return True
