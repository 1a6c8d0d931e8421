"""Coincidence-heavy data: Stellar's sparse kernels against dense references.

On a coarse value grid most pairs of objects coincide somewhere, which is
the worst case for the kernels that only visit coinciding pairs: the
per-root neighbour search of the c-group enumeration, the per-dimension
equal-value join of the Theorem 5 pass, and the column-wise window filter
of the chunked skyline.  Each is checked against the dense formulation it
replaces, and Stellar as a whole against the definitional oracle.  The
pinned comparison totals hold the hardware-independent cost measure fixed.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import naive_compressed_cube, skyey
from repro.core import extension
from repro.core.cgroups import enumerate_maximal_cgroups
from repro.core.dominance import COMPARISONS, PairwiseMatrices
from repro.core.extension import share_and_beat_masks
from repro.core.stellar import stellar
from repro.core.types import Dataset
from repro.core.validate import (
    common_coincidence_mask,
    decisive_subspaces_theorem4,
    is_maximal_cgroup,
    is_skyline_group,
    projection_key,
)
from repro.data.generators import make_dataset
from repro.skyline import compute_skyline, numpy_skyline
from repro.skyline.numpy_skyline import chunked_sorted_skyline
from repro.skyline.sfs import monotone_order, skyline_sfs

from .test_cgroups import brute_maximal_cgroups


@st.composite
def coarse_grids(draw, min_rows: int = 1, max_rows: int = 300) -> Dataset:
    """Values in {0..4}, 2-5 dimensions, with planted exact duplicates."""
    n_dims = draw(st.integers(min_value=2, max_value=5))
    n = draw(st.integers(min_value=min_rows, max_value=max_rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.integers(0, 5, size=(n, n_dims))
    copies = draw(st.integers(min_value=0, max_value=n // 4))
    values[rng.integers(0, n, size=copies)] = values[rng.integers(0, n, size=copies)]
    return Dataset(values=values.astype(float))


def _pow2(n_dims: int) -> np.ndarray:
    return (1 << np.arange(n_dims, dtype=np.int64)).astype(np.int64)


def dense_share_maps(reps, subspaces, ns_matrix, ns_ids, pow2):
    """Reference: the dense per-group rule of Theorem 5, one group at a time."""
    out = []
    for rep, subspace in zip(reps, subspaces):
        share, beat = share_and_beat_masks(ns_matrix, rep, int(subspace), pow2)
        hits = np.flatnonzero((share != 0) & (beat == 0))
        out.append({int(ns_ids[j]): int(share[j]) for j in hits})
    return out


def _as_items(share_maps):
    # Key order matters: it fixes the order of joiners and clauses downstream.
    return [list(m.items()) for m in share_maps]


def partition_maximal_cgroups(ds: Dataset) -> set[tuple[tuple[int, ...], int]]:
    """Definition 1, polynomial in the object count.

    A maximal c-group ``(G, B)`` is a whole class of equal projections on
    ``B`` whose members share no further dimension, so it suffices to
    partition the objects by their projection on every non-empty ``B``.
    """
    minimized = ds.minimized
    found = set()
    for subspace in range(1, 1 << ds.n_dims):
        classes: dict[tuple, list[int]] = {}
        for i in range(ds.n_objects):
            classes.setdefault(projection_key(minimized, i, subspace), []).append(i)
        for members in classes.values():
            if common_coincidence_mask(minimized, members) == subspace:
                found.add((tuple(members), subspace))
    return found


class TestShareJoin:
    @settings(max_examples=40, deadline=None)
    @given(coarse_grids())
    def test_seed_groups_match_dense_rule(self, ds: Dataset):
        result = stellar(ds)
        seed_set = set(result.seeds)
        nonseeds = [i for i in range(ds.n_objects) if i not in seed_set]
        minimized = ds.minimized
        reps = minimized[[sg.members[0] for sg in result.seed_groups], :]
        subspaces = np.array(
            [sg.subspace for sg in result.seed_groups], dtype=np.int64
        )
        args = (
            reps,
            subspaces,
            minimized[nonseeds, :],
            np.asarray(nonseeds, dtype=np.int64),
            _pow2(ds.n_dims),
        )
        got = extension._share_maps_block(*args)
        assert _as_items(got) == _as_items(dense_share_maps(*args))

    @settings(max_examples=40, deadline=None)
    @given(coarse_grids(), st.integers(0, 2**32 - 1), st.sampled_from([1, 200]))
    def test_arbitrary_groups_blocks_and_shards(self, ds, seed, block_bytes):
        """Any representatives and subspaces, a block budget down to one
        non-seed per block, and the non-seeds split into two shards."""
        rng = np.random.default_rng(seed)
        minimized = ds.minimized
        n, n_dims = minimized.shape
        n_groups = int(rng.integers(1, 40))
        reps = minimized[rng.integers(0, n, size=n_groups), :]
        subspaces = rng.integers(1, 1 << n_dims, size=n_groups).astype(np.int64)
        ids = np.sort(rng.choice(10 * n, size=n, replace=False)).astype(np.int64)
        pow2 = _pow2(n_dims)
        expected = _as_items(dense_share_maps(reps, subspaces, minimized, ids, pow2))
        with mock.patch.object(extension, "_JOIN_BLOCK_BYTES", block_bytes):
            got = extension._share_maps_block(reps, subspaces, minimized, ids, pow2)
            assert _as_items(got) == expected
            cut = int(rng.integers(0, n + 1))
            merged = extension._share_maps_block(
                reps, subspaces, minimized[:cut], ids[:cut], pow2
            )
            rest = extension._share_maps_block(
                reps, subspaces, minimized[cut:], ids[cut:], pow2
            )
        for mine, more in zip(merged, rest):
            mine.update(more)
        assert _as_items(merged) == expected


class TestCGroupSearch:
    @settings(max_examples=60, deadline=None)
    @given(coarse_grids(max_rows=9))
    def test_partition_reference_is_definition_1(self, ds: Dataset):
        assert partition_maximal_cgroups(ds) == brute_maximal_cgroups(ds)

    @settings(max_examples=25, deadline=None)
    @given(coarse_grids(min_rows=200))
    def test_matches_reference_with_200_plus_seeds(self, ds: Dataset):
        matrices = PairwiseMatrices(ds, list(range(ds.n_objects)))
        got = enumerate_maximal_cgroups(matrices)
        assert len(set(got)) == len(got)
        assert set(got) == partition_maximal_cgroups(ds)

    def test_clique_on_a_clipped_value(self):
        """Hundreds of seeds sharing one value on one dimension: each root
        prunes its non-canonical children before descending."""
        rng = np.random.default_rng(3)
        values = rng.integers(0, 1000, size=(400, 3)).astype(float)
        values[:300, 0] = 0.0
        ds = Dataset(values=values)
        matrices = PairwiseMatrices(ds, list(range(ds.n_objects)))
        got = enumerate_maximal_cgroups(matrices)
        assert len(set(got)) == len(got)
        assert set(got) == partition_maximal_cgroups(ds)


class TestStellarOnCoarseGrids:
    @settings(max_examples=20, deadline=None)
    @given(coarse_grids(max_rows=150))
    def test_equals_oracle_and_validators(self, ds: Dataset):
        groups = stellar(ds).groups
        canonical = [(g.key, g.decisive, g.projection) for g in groups]
        assert canonical == [
            (g.key, g.decisive, g.projection) for g in naive_compressed_cube(ds)
        ]
        for g in groups:
            members = sorted(g.members)
            assert is_maximal_cgroup(ds, members, g.subspace)
            assert is_skyline_group(ds, members, g.subspace)
            assert list(g.decisive) == decisive_subspaces_theorem4(
                ds, members, g.subspace
            )


class TestChunkedSkyline:
    @settings(max_examples=40, deadline=None)
    @given(coarse_grids(), st.sampled_from([1, 3, 512]))
    def test_equals_sfs_with_small_window_blocks(self, ds, chunk):
        """A window block of 2 rows makes every window span many blocks."""
        ordered = ds.minimized[monotone_order(ds.minimized)]
        expected = skyline_sfs(ordered)
        with mock.patch.object(numpy_skyline, "_WINDOW_BLOCK", 2):
            got = chunked_sorted_skyline(ordered, chunk=chunk)
        assert got == expected

    @pytest.mark.parametrize("chunk", [1, 3, 512])
    def test_window_larger_than_one_block(self, chunk):
        """An anti-diagonal is all skyline, so the window outgrows one block;
        a shifted copy of part of it is all dominated."""
        n = numpy_skyline._WINDOW_BLOCK + 500
        x = np.arange(n, dtype=float)
        front = np.column_stack([x, n - x, np.zeros(n)])
        behind = front[::10] + [0.5, 0.5, 1.0]
        values = np.vstack([front, behind])
        order = monotone_order(values)
        got = chunked_sorted_skyline(values[order], chunk=chunk)
        assert sorted(int(order[p]) for p in got) == list(range(n))


class TestPinnedComparisonCounts:
    """Exact pair-test totals on one seeded anti-correlated 3000 x 4 set.

    Dominance tests are the skyline literature's machine-independent cost
    measure; a kernel change may make them cheaper but must not add any.
    """

    @pytest.fixture(scope="class")
    def data(self):
        return make_dataset("anticorrelated", 3000, 4, seed=2007)

    def test_stellar(self, data):
        COMPARISONS.reset()
        result = stellar(data)
        assert COMPARISONS.reset() == 3_960_779
        phases = {
            span.name: span.counters["dominance_comparisons"]
            for span in result.stats.root_span.children
        }
        assert phases == {
            "full_space_skyline": 2_063_427,
            "maximal_cgroups": 974**2,
            "seed_decisive": 974**2,
            "nonseed_extension": 0,
        }
        assert len(result.seeds) == 974
        assert len(result.groups) == 974

    def test_skyey(self, data):
        COMPARISONS.reset()
        result = skyey(data)
        assert COMPARISONS.reset() == 2_903_983
        assert len(result.groups) == 974


class TestCoincidenceRows:
    @settings(max_examples=40, deadline=None)
    @given(coarse_grids(max_rows=60))
    def test_neighbours_are_the_nonzero_cells(self, ds: Dataset):
        seeds = compute_skyline(ds) + [
            i for i in range(ds.n_objects) if i % 3 == 0
        ]
        seeds = sorted(set(seeds))
        matrices = PairwiseMatrices(ds, seeds)
        for i in range(len(seeds)):
            row = matrices.eq_row(i)
            expected = [(j, m) for j, m in enumerate(row) if m and j != i]
            assert list(matrices.coincident_neighbours(i).items()) == expected

    def test_each_row_counted_once(self):
        ds = make_dataset("independent", 50, 3, seed=4, digits=1)
        matrices = PairwiseMatrices(ds, list(range(50)))
        COMPARISONS.reset()
        matrices.coincident_neighbours(7)
        matrices.eq_row_array(7)
        matrices.co(7, 3)
        assert COMPARISONS.reset() == 50
        matrices.eq_row_array(8)
        matrices.coincident_neighbours(8)
        assert COMPARISONS.reset() == 50
