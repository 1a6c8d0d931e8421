"""Dominance and coincidence relations (Section 5.1 of the paper).

For seed objects :math:`o, o'` the paper defines (Definition 4):

* dominance matrix cell ``dom[o, o'] = {D : o.D < o'.D}``
* coincidence matrix cell ``co[o, o'] = {D : o.D = o'.D}``

and notes (Property 1) that the coincidence matrix is redundant:
``co[o, o'] = D - dom[o, o'] - dom[o', o]``.  We follow the paper and store
only dominance rows; coincidence cells are derived on demand.

Cells are dimension bitmasks (see :mod:`repro.core.bitset`).  Dominance
rows are computed with one vectorised numpy comparison per seed and cached,
which is what makes Stellar's "scan a row of the dominance matrix" step
cheap even with thousands of seeds.  Coincidence rows are not kept: value
coincidences are sparse wherever the skyline is large, so Stellar reads
each seed's *coincident neighbours* from per-column sorted runs instead
(:meth:`PairwiseMatrices.coincident_neighbours`), in time proportional to
the coincidences that exist rather than to ``k``.

Under ``engine="columnar"`` the row comparisons run over the dense-rank
int codes of :mod:`repro.columnar.encoding` instead of the float matrix;
the encoding preserves ``<`` and ``==`` per column exactly, so every mask
(and every comparison count) is bit-identical to the rows engine.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..columnar.encoding import encode_dataset
from ..columnar.engine import resolve_engine
from .bitset import full_mask
from .types import Dataset

__all__ = [
    "dominates",
    "strictly_less_mask",
    "equal_mask",
    "PairwiseMatrices",
    "ComparisonCounter",
    "COMPARISONS",
]


class ComparisonCounter:
    """Running count of pairwise dominance tests performed.

    Comparison counts are the hardware-independent cost metric of the
    skyline literature (every algorithm paper since BNL reports them), so
    the primitives in this module and the skyline implementations feed a
    single process-global instance, :data:`COMPARISONS`.  Vectorised code
    adds the number of *logical* object-pair tests per numpy broadcast, so
    counts are comparable across the pure-Python and vectorised paths.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def add(self, n: int = 1) -> None:
        """Record ``n`` pairwise tests."""
        self.value += n

    def reset(self) -> int:
        """Zero the counter; returns the value it had."""
        value = self.value
        self.value = 0
        return value


#: Process-global pairwise-test counter (see :class:`ComparisonCounter`).
COMPARISONS = ComparisonCounter()


def strictly_less_mask(
    minimized: np.ndarray, i: int, j: int, universe: int | None = None
) -> int:
    """Mask of dimensions where object ``i`` is strictly better than ``j``.

    This is the dominance-matrix cell ``dom[i, j]`` restricted to
    ``universe`` (defaults to the full space).
    """
    COMPARISONS.add(1)
    mask = _pack(minimized[i] < minimized[j])
    if universe is not None:
        mask &= universe
    return mask


def equal_mask(
    minimized: np.ndarray, i: int, j: int, universe: int | None = None
) -> int:
    """Mask of dimensions where objects ``i`` and ``j`` coincide (``co[i, j]``)."""
    COMPARISONS.add(1)
    mask = _pack(minimized[i] == minimized[j])
    if universe is not None:
        mask &= universe
    return mask


def dominates(minimized: np.ndarray, i: int, j: int, subspace: int) -> bool:
    """True when object ``i`` dominates object ``j`` in ``subspace``.

    ``i`` dominates ``j`` when ``i`` is no worse on every dimension of the
    subspace and strictly better on at least one (Section 2).
    """
    COMPARISONS.add(1)
    worse = _pack(minimized[i] > minimized[j]) & subspace
    if worse:
        return False
    better = _pack(minimized[i] < minimized[j]) & subspace
    return better != 0


def _pack(flags: np.ndarray) -> int:
    """Pack a boolean vector into a dimension bitmask (bit i = flags[i])."""
    mask = 0
    for d in np.flatnonzero(flags):
        mask |= 1 << int(d)
    return mask


class PairwiseMatrices:
    """Lazy dominance/coincidence matrices over a subset of objects.

    Parameters
    ----------
    dataset:
        The full dataset.
    indices:
        Global object indices the matrices range over (the seeds ``F(S)`` in
        Stellar).  Cells are addressed by *local* position within ``indices``.
    engine:
        ``"rows"`` (float submatrix, the reference) or ``"columnar"``
        (dense-rank int codes); ``None`` defers to the ambient engine /
        ``REPRO_ENGINE``.  Beyond 62 dimensions the columnar layout cannot
        pack masks into int64 words and the rows path is used regardless.

    The class vectorises one full matrix row per call: computing
    ``dom[i, *]`` is a single ``(k, d)`` numpy comparison packed into ``k``
    bitmask integers, cached afterwards.  Coincidence rows are derived on
    demand and never cached (``k`` of them would hold ``k^2`` words); each
    row's ``k`` logical tests are counted once, the first time the row is
    derived in either form, so :data:`COMPARISONS` totals do not depend on
    which form a caller reads.
    """

    def __init__(
        self,
        dataset: Dataset,
        indices: Sequence[int],
        engine: str | None = None,
    ):
        self.dataset = dataset
        self.indices: tuple[int, ...] = tuple(int(i) for i in indices)
        self.engine = resolve_engine(engine)
        if self.engine == "columnar" and dataset.n_dims <= 62:
            codes = encode_dataset(dataset).codes
            self._sub = codes[list(self.indices), :]
        else:
            self._sub = dataset.minimized[list(self.indices), :]
        self._n_dims = dataset.n_dims
        self._full = full_mask(self._n_dims)
        # Bit weights for packing comparison outcomes into masks.  Use
        # object dtype beyond 62 dimensions so Python big ints take over.
        if self._n_dims <= 62:
            self._pow2 = (1 << np.arange(self._n_dims, dtype=np.int64)).astype(
                np.int64
            )
        else:
            self._pow2 = np.array(
                [1 << d for d in range(self._n_dims)], dtype=object
            )
        self._dom_rows: dict[int, np.ndarray] = {}
        # Coincidence rows whose k tests are already counted.
        self._eq_counted = np.zeros(len(self.indices), dtype=bool)
        self._run_order, self._run_lo, self._run_hi = _equal_value_runs(self._sub)
        self._has_neighbours = ((self._run_hi - self._run_lo) > 1).any(axis=0)

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def full_space(self) -> int:
        """Mask of the full space the matrices range over."""
        return self._full

    @property
    def sub_matrix(self) -> np.ndarray:
        """Minimized rows of the covered objects, in ``indices`` order."""
        return self._sub

    @property
    def pack_weights(self) -> np.ndarray:
        """Per-dimension bit weights used to pack comparisons into masks."""
        return self._pow2

    def dom_row_array(self, i: int) -> np.ndarray:
        """Row ``dom[i, *]`` as a packed numpy vector (local index ``i``)."""
        row = self._dom_rows.get(i)
        if row is None:
            COMPARISONS.add(len(self.indices))
            cmp = (self._sub[i] < self._sub).astype(self._pow2.dtype)
            row = cmp @ self._pow2
            self._dom_rows[i] = row
        return row

    def eq_row_array(self, i: int) -> np.ndarray:
        """Row ``co[i, *]`` as a packed numpy vector (local index ``i``).

        Computed afresh on every call; nothing is cached.
        """
        self._count_eq_row(i)
        cmp = (self._sub[i] == self._sub).astype(self._pow2.dtype)
        return cmp @ self._pow2

    def coincident_neighbours(self, i: int) -> dict[int, int]:
        """The non-zero cells of row ``co[i, *]`` other than ``co[i, i]``.

        Maps each seed ``o != i`` that coincides with seed ``i`` on at least
        one dimension to ``co[i, o]``, as Python ints, in ascending ``o``
        order.  Read from per-column runs of equal values, so the cost is
        ``O(d)`` plus the number of coincidences, not ``O(k)``.
        """
        self._count_eq_row(i)
        if not self._has_neighbours[i]:
            return {}
        masks: dict[int, int] = {}
        lows = self._run_lo[:, i].tolist()
        highs = self._run_hi[:, i].tolist()
        for dim, (lo, hi) in enumerate(zip(lows, highs)):
            if hi - lo > 1:
                bit = 1 << dim
                for o in self._run_order[dim, lo:hi].tolist():
                    masks[o] = masks.get(o, 0) | bit
        del masks[i]
        return {o: masks[o] for o in sorted(masks)}

    def _count_eq_row(self, i: int) -> None:
        if not self._eq_counted[i]:
            self._eq_counted[i] = True
            COMPARISONS.add(len(self.indices))

    def dom_row(self, i: int) -> list[int]:
        """Row ``dom[i, *]`` of the dominance matrix, as Python ints."""
        return [int(x) for x in self.dom_row_array(i)]

    def eq_row(self, i: int) -> list[int]:
        """Row ``co[i, *]`` of the coincidence matrix, as Python ints."""
        return [int(x) for x in self.eq_row_array(i)]

    def dom(self, i: int, j: int) -> int:
        """Cell ``dom[i, j]``: dimensions where seed ``i`` beats seed ``j``."""
        return int(self.dom_row_array(i)[j])

    def co(self, i: int, j: int) -> int:
        """Cell ``co[i, j]``: dimensions where seeds ``i`` and ``j`` coincide.

        Derived from dominance rows when those are already cached
        (Property 1), otherwise computed directly.
        """
        if i in self._dom_rows and j in self._dom_rows:
            return self._full & ~self.dom(i, j) & ~self.dom(j, i)
        self._count_eq_row(i)
        cmp = (self._sub[i] == self._sub[j]).astype(self._pow2.dtype)
        return int(cmp @ self._pow2)

    def as_dense(self) -> tuple[list[list[int]], list[list[int]]]:
        """Materialise both matrices (tests and small examples only)."""
        k = len(self.indices)
        dom = [self.dom_row(i)[:] for i in range(k)]
        co = [[self.co(i, j) for j in range(k)] for i in range(k)]
        return dom, co


def _equal_value_runs(sub: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sort every column once and record each row's run of equal values.

    Returns ``(order, lo, hi)``: ``order[dim]`` lists the rows in ascending
    order of column ``dim``, and row ``i``'s equal-value run is
    ``order[dim, lo[dim, i]:hi[dim, i]]``.  Equal values are contiguous
    under any comparison sort, and ``!=`` between sorted neighbours finds
    run boundaries with the same semantics as ``==`` (``-0.0 == 0.0``).
    """
    k, d = sub.shape
    order = np.argsort(sub, axis=0, kind="stable").T.copy()
    lo = np.empty((d, k), dtype=np.int64)
    hi = np.empty((d, k), dtype=np.int64)
    for dim in range(d):
        ordered = sub[order[dim], dim]
        new_run = np.ones(k, dtype=bool)
        new_run[1:] = ordered[1:] != ordered[:-1]
        starts = np.flatnonzero(new_run)
        ends = np.append(starts[1:], k)
        run_of = np.cumsum(new_run) - 1
        lo[dim, order[dim]] = starts[run_of]
        hi[dim, order[dim]] = ends[run_of]
    return order, lo, hi
