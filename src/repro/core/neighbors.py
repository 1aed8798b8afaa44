"""Adjacent-cell enumeration and mask filtering (paper Section IV-D).

Given the cell of a query point, the search for points within ε is bounded to
the 3^n adjacent cells.  The kernels first compute the per-dimension adjacent
ranges ``O_j = [c_j - 1, c_j + 1]`` clipped to the grid, then intersect each
range with the per-dimension mask ``M_j`` of non-empty coordinates, and only
then enumerate the candidate cells and binary-search them in ``B``.

Two flavours are provided:

* scalar/per-cell helpers used by the readable "cellwise" kernel and the
  per-thread simulated kernel, and
* vectorized helpers used by the fast NumPy kernels: offset enumeration and
  :class:`NeighborResolver`, the one place where many cells are resolved to
  their neighbour cells in ``B`` (self-join kernels, probe, cost models).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import linearize as lin
from repro.core.gridindex import GridIndex


def adjacent_ranges(cell_coords: np.ndarray, num_cells: np.ndarray) -> np.ndarray:
    """Per-dimension adjacent ranges of a cell, clipped to the grid.

    Parameters
    ----------
    cell_coords:
        ``(n_dims,)`` integer coordinates of the query cell.
    num_cells:
        ``(n_dims,)`` cells per dimension.

    Returns
    -------
    numpy.ndarray
        ``(n_dims, 2)`` array of inclusive ``[lo, hi]`` ranges
        (Algorithm 1, line 6 / the black dashed box in Figure 2b).
    """
    cell_coords = np.asarray(cell_coords, dtype=np.int64)
    num_cells = np.asarray(num_cells, dtype=np.int64)
    lo = np.maximum(cell_coords - 1, 0)
    hi = np.minimum(cell_coords + 1, num_cells - 1)
    return np.stack([lo, hi], axis=1)


def mask_filter_ranges(ranges: np.ndarray, masks: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Intersect adjacent ranges with the per-dimension masks ``M_j``.

    Returns, for every dimension, the array of coordinates inside
    ``[lo_j, hi_j]`` that are non-empty in that dimension (Algorithm 1,
    line 7 / the orange box in Figure 2b).  An empty array in any dimension
    means no adjacent cell can contain points.
    """
    filtered: List[np.ndarray] = []
    for j, mask in enumerate(masks):
        lo, hi = int(ranges[j, 0]), int(ranges[j, 1])
        left = int(np.searchsorted(mask, lo, side="left"))
        right = int(np.searchsorted(mask, hi, side="right"))
        filtered.append(mask[left:right])
    return filtered


def enumerate_candidate_cells(filtered: Sequence[np.ndarray]) -> Iterator[np.ndarray]:
    """Iterate the cartesian product of the filtered per-dimension coordinates.

    Yields ``(n_dims,)`` coordinate arrays — the nested loops of Algorithm 1,
    lines 8–10 generalized to n dimensions.
    """
    for combo in product(*[mask.tolist() for mask in filtered]):
        yield np.asarray(combo, dtype=np.int64)


def candidate_cells_of_point(index: GridIndex, point_id: int) -> List[int]:
    """Non-empty adjacent cells (indices into ``B``) of a point's cell.

    Convenience wrapper combining range computation, mask filtering, candidate
    enumeration and the binary search in ``B``; primarily used by tests and by
    the readable reference kernels.
    """
    coords = index.cell_of_point(point_id)
    ranges = adjacent_ranges(coords, index.num_cells)
    filtered = mask_filter_ranges(ranges, index.masks)
    found: List[int] = []
    for cand in enumerate_candidate_cells(filtered):
        linear = int(index.coords_to_linear(cand))
        h = index.lookup_cell(linear)
        if h >= 0:
            found.append(h)
    return found


def all_neighbor_offsets(n_dims: int, include_home: bool = True) -> np.ndarray:
    """All offsets in ``{-1, 0, +1}^n`` as an ``(3^n, n)`` int64 array.

    The vectorized kernels iterate offsets (outer loop) and cells (inner,
    vectorized) instead of the per-point loops of Algorithm 1; the visited
    cell pairs are identical.

    Every kernel and probe call asks for these, so they are built once per
    ``(n_dims, include_home)`` and returned as a shared **read-only** array.

    Parameters
    ----------
    n_dims:
        Dimensionality of the grid.
    include_home:
        When ``False`` the all-zero offset is omitted.
    """
    return _neighbor_offsets(int(n_dims), bool(include_home))


@lru_cache(maxsize=None)
def _neighbor_offsets(n_dims: int, include_home: bool) -> np.ndarray:
    grids = np.meshgrid(*([np.array([-1, 0, 1], dtype=np.int64)] * n_dims), indexing="ij")
    offsets = np.stack([g.ravel() for g in grids], axis=1)
    if not include_home:
        keep = ~np.all(offsets == 0, axis=1)
        offsets = offsets[keep]
    offsets.flags.writeable = False
    return offsets


class NeighborResolver:
    """Table-driven neighbour-cell resolution for a fixed set of source cells.

    The vectorized form of Algorithm 1's bounded search: for every source
    cell and offset in ``{-1, 0, +1}^n`` it decides whether the neighbour
    cell passes the per-dimension masks ``M_j`` and, if so, binary-searches
    its linear id in ``B``.

    The mask filter is done by table look-ups.  On construction, each
    dimension ``j`` gets a ``(3, m)`` shift table over the ``m`` source
    cells, read off the index's padded occupancy bitmap: row ``s + 1`` says
    whether ``c_j + s`` is inside the grid and in ``M_j``.  An offset's
    filter is then the AND of one row per dimension.  With ``unicomp=True``
    the UNICOMP parity rule is one more precomputed row per dimension: the
    cell evaluates an offset iff its coordinate in the offset's highest
    non-zero dimension is odd (see :mod:`repro.core.unicomp`).  The
    neighbour's linear id is the source's plus ``offset · strides``, so no
    coordinates are re-linearized; one ``searchsorted`` into ``B`` remains.

    Parameters
    ----------
    index:
        The grid index whose ``B`` and masks are searched.
    coords:
        ``(m, n_dims)`` cell coordinates of the sources in ``index``'s grid.
        They need not be non-empty cells, nor inside the grid.
    linear:
        The sources' linear ids, when the caller already has them (``B``
        entries for non-empty cells); computed from ``coords`` otherwise.
    unicomp:
        Apply the UNICOMP selection rule to the non-home offsets.
    """

    def __init__(self, index: GridIndex, coords: np.ndarray,
                 linear: Optional[np.ndarray] = None, *,
                 unicomp: bool = False) -> None:
        coords = np.asarray(coords, dtype=np.int64)
        self.index = index
        self.num_sources = int(coords.shape[0])
        # Bitmap entry ``c + s + 1`` for ``s = -1, 0, +1``; coordinates far
        # outside the grid clip onto the padding, which reads false.
        pos = coords.T[:, None, :] + np.arange(3, dtype=np.int64)[None, :, None]
        np.minimum(pos, (index.num_cells + 1)[:, None, None], out=pos)
        np.maximum(pos, 0, out=pos)
        self._tables = [bitmap.take(rows)
                        for bitmap, rows in zip(index.occupancy_bitmaps, pos)]
        self._linear = lin.linearize(coords, index.strides) if linear is None \
            else np.asarray(linear, dtype=np.int64)
        self._parity: Optional[np.ndarray] = None
        if unicomp:
            # Row ``k`` selects for offsets whose highest non-zero dimension
            # is ``k``; the last row (all true) serves the home offset.
            parity = np.ones((index.num_dims + 1, self.num_sources), dtype=bool)
            parity[:-1] = (coords.T & 1).astype(bool)
            self._parity = parity

    def resolve(self, offsets: np.ndarray) -> Tuple[np.ndarray, np.ndarray, int]:
        """Resolve one offset, or a block of them stacked offset-major.

        Parameters
        ----------
        offsets:
            ``(n_dims,)`` offset or ``(k, n_dims)`` block of offsets.

        Returns
        -------
        (sources, targets, checked):
            ``sources`` indexes the constructor's ``coords`` and ``targets``
            indexes ``B``: source ``sources[i]`` has the non-empty neighbour
            cell ``targets[i]``.  Pairs are ordered offset-major, then by
            source.  ``checked`` counts the neighbours that passed the mask
            filter and were binary-searched in ``B`` (the quantity the masks
            are designed to reduce).
        """
        index = self.index
        offsets = np.asarray(offsets, dtype=np.int64).reshape(-1, index.num_dims)
        rows = offsets + 1
        ok = self._tables[0][rows[:, 0]]
        for j in range(1, index.num_dims):
            ok &= self._tables[j][rows[:, j]]
        if self._parity is not None:
            ok &= self._parity[_highest_nonzero_dims(offsets)]
        candidates = np.flatnonzero(ok)
        checked = int(candidates.shape[0])
        if checked == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), 0
        shift = offsets @ index.strides
        if offsets.shape[0] == 1:
            sources = candidates
            linear = self._linear.take(sources) + shift[0]
        else:
            block, sources = np.divmod(candidates, self.num_sources)
            linear = self._linear.take(sources) + shift.take(block)
        B = index.B
        pos = np.searchsorted(B, linear)
        found = B.take(np.minimum(pos, B.shape[0] - 1)) == linear
        return sources[found], pos[found], checked


def _highest_nonzero_dims(offsets: np.ndarray) -> np.ndarray:
    """Highest non-zero dimension of each offset row; ``n_dims`` for home."""
    n_dims = offsets.shape[1]
    nonzero = offsets != 0
    highest = n_dims - 1 - np.argmax(nonzero[:, ::-1], axis=1)
    return np.where(nonzero.any(axis=1), highest, n_dims)


def neighbor_cells_for_offset(index: GridIndex, offset: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For one offset, map every non-empty cell to its (possibly empty) neighbor.

    Parameters
    ----------
    index:
        A built :class:`~repro.core.gridindex.GridIndex`.
    offset:
        ``(n_dims,)`` offset in ``{-1, 0, 1}^n``.

    Returns
    -------
    (source, target):
        Two equal-length int64 arrays of indices into ``B``: ``source[k]`` is a
        non-empty cell whose neighbor at ``offset`` is the non-empty cell
        ``target[k]``.  Cells whose neighbor falls outside the grid or is
        empty are dropped.
    """
    src, tgt, _ = NeighborResolver(index, index.cell_coords, index.B).resolve(offset)
    return src, tgt
