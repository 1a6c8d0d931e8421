"""Vectorised skyline used at benchmark scale.

The algorithm is SFS (sort by the monotone coordinate sum, then one filtered
scan), with the scan organised in *chunks*: each chunk of candidates is
first filtered against the accepted-skyline window with a few
column-wise ``(chunk, window)`` comparisons, and only the survivors go
through the short serial pass that resolves intra-chunk dominance (each
survivor tested against the chunk's rows accepted before it).  This keeps
the Python interpreter out of the inner loop without changing the
algorithm's comparison semantics.

Correctness of chunking rests on the SFS invariant: under a monotone sort
key a candidate can only be dominated by objects *earlier* in the order,
and dominance is transitive, so being undominated by the accepted window
plus the accepted members of one's own chunk is equivalent to being
undominated outright.

On correlated inputs (tiny skylines) this runs in near-linear time; on
anti-correlated inputs (huge skylines) it degrades towards quadratic like
every window algorithm -- exactly the cost profile the discussion of the
paper's Figure 11(c) relies on.
"""

from __future__ import annotations

import numpy as np

from ..columnar.engine import resolve_engine
from ..core.dominance import COMPARISONS
from .base import subspace_columns
from .sfs import monotone_order

__all__ = ["skyline_numpy", "chunked_sorted_skyline"]

#: Candidates filtered per window pass; keeps the comparison blocks in cache.
_CHUNK = 512
#: Window rows compared per pass (bounds temporary memory).
_WINDOW_BLOCK = 4096


def chunked_sorted_skyline(ordered: np.ndarray, chunk: int = _CHUNK) -> list[int]:
    """Skyline positions of a matrix already sorted by a monotone key.

    Returns positions *into the sorted matrix*, in increasing order.

    The window filter builds its ``(chunk, window)`` no-worse and
    strictly-better masks one column at a time, so no reduction ever runs
    over the short length-``d`` axis.  The window is kept column-major for
    the same reason.
    """
    n, d = ordered.shape
    columns = np.ascontiguousarray(ordered.T)
    window = np.empty((d, n), dtype=ordered.dtype)
    size = 0
    accepted: list[int] = []
    for start in range(0, n, chunk):
        block = ordered[start : start + chunk]
        cols = columns[:, start : start + chunk]
        c = block.shape[0]
        alive = np.ones(c, dtype=bool)
        for ws in range(0, size, _WINDOW_BLOCK):
            we = min(ws + _WINDOW_BLOCK, size)
            COMPARISONS.add(c * (we - ws))
            le = np.ones((c, we - ws), dtype=bool)
            lt = np.zeros((c, we - ws), dtype=bool)
            for dim in range(d):
                w_col = window[dim, None, ws:we]
                b_col = cols[dim, :, None]
                le &= w_col <= b_col
                lt |= w_col < b_col
            le &= lt
            alive &= ~le.any(axis=1)
            if not alive.any():
                break
        # Each alive candidate is tested against the rows of its own chunk
        # accepted so far (kept contiguous in `kept`), nothing more.
        block_accepted: list[int] = []
        kept = np.empty_like(block)
        for i in np.flatnonzero(alive).tolist():
            candidate = block[i]
            if block_accepted:
                na = len(block_accepted)
                COMPARISONS.add(na)
                prior = kept[:na]
                no_worse = (prior <= candidate).all(axis=1)
                if no_worse.any() and (prior[no_worse] != candidate).any():
                    continue
            kept[len(block_accepted)] = candidate
            block_accepted.append(i)
            accepted.append(start + i)
        if block_accepted:
            added = len(block_accepted)
            window[:, size : size + added] = cols[:, block_accepted]
            size += added
    return accepted


def skyline_numpy(
    minimized: np.ndarray,
    subspace: int | None = None,
    engine: str | None = None,
) -> list[int]:
    """Compute the skyline with the chunk-vectorised SFS strategy.

    Under ``engine="columnar"`` (or the ambient engine; see
    docs/COLUMNAR.md) the skyline is instead computed with the packed
    uint64 dominance-bitset kernel
    :func:`~repro.columnar.kernels.skyline_bitset`, which replaces the
    per-candidate scan with ``n^2/64`` word operations.  The skyline of a
    dataset is unique, so the returned indices are bit-identical either
    way; only the :data:`COMPARISONS` accounting differs (the bitset
    kernel always performs all ``n^2`` logical pair tests, the SFS scan
    short-circuits).
    """
    proj = subspace_columns(minimized, subspace)
    if proj.shape[0] == 0:
        return []
    if resolve_engine(engine) == "columnar":
        from ..columnar.kernels import skyline_bitset

        return skyline_bitset(proj)
    order = monotone_order(proj)
    positions = chunked_sorted_skyline(proj[order])
    return sorted(int(order[p]) for p in positions)
