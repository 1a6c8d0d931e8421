"""Tests for the non-seed accommodation step (Theorem 5)."""

import tracemalloc

import numpy as np
import pytest

from repro.core.cgroups import enumerate_maximal_cgroups
from repro.core.dominance import PairwiseMatrices
from repro.core.extension import (
    closed_masks,
    extend_with_nonseeds,
    share_and_beat_masks,
)
from repro.core.seeds import compute_seed_groups
from repro.core.stellar import stellar
from repro.core.types import Dataset
from repro.data.generators import make_dataset
from repro.skyline import compute_skyline


class TestClosedMasks:
    def test_empty(self):
        assert closed_masks([]) == set()

    def test_zero_masks_dropped(self):
        assert closed_masks([0, 0b1]) == {0b1}

    def test_pairwise_intersections(self):
        assert closed_masks([0b011, 0b101]) == {0b011, 0b101, 0b001}

    def test_disjoint_masks_no_zero(self):
        assert closed_masks([0b01, 0b10]) == {0b01, 0b10}

    def test_triple_closure(self):
        got = closed_masks([0b110, 0b011, 0b101])
        assert got == {0b110, 0b011, 0b101, 0b100, 0b010, 0b001}


class TestShareAndBeat:
    def test_vectorised_masks(self):
        pow2 = (1 << np.arange(3, dtype=np.int64)).astype(np.int64)
        rep = np.array([2.0, 5.0, 7.0])
        nonseeds = np.array(
            [
                [2.0, 9.0, 7.0],  # shares A and C
                [1.0, 5.0, 8.0],  # beats on A, shares B
                [3.0, 6.0, 8.0],  # shares nothing
            ]
        )
        share, beat = share_and_beat_masks(nonseeds, rep, 0b111, pow2)
        assert list(share) == [0b101, 0b010, 0b000]
        assert list(beat) == [0b000, 0b001, 0b000]

    def test_subspace_restriction(self):
        pow2 = (1 << np.arange(2, dtype=np.int64)).astype(np.int64)
        rep = np.array([1.0, 1.0])
        nonseeds = np.array([[1.0, 1.0]])
        share, beat = share_and_beat_masks(nonseeds, rep, 0b01, pow2)
        assert list(share) == [0b01]

    def test_empty_nonseeds(self):
        pow2 = (1 << np.arange(2, dtype=np.int64)).astype(np.int64)
        share, beat = share_and_beat_masks(
            np.empty((0, 2)), np.array([1.0, 2.0]), 0b11, pow2
        )
        assert len(share) == 0 and len(beat) == 0


class TestExample7Scenarios:
    """The three behaviours Example 7 narrates, as precise assertions."""

    def test_group_split(self, running_example):
        """P3 shares BCD with P5 ⊇ decisive BD: the group splits."""
        result = stellar(running_example)
        by_key = {g.key: g for g in result.groups}
        # new child group (P3P5, BCD) with decisive BD
        child = by_key[((2, 4), 0b1110)]
        assert child.decisive == (0b1010,)
        # original P5 group keeps AB but loses BD
        p5 = by_key[((4,), 0b1111)]
        assert p5.decisive == (0b0011,)

    def test_in_place_extension(self, running_example):
        """P3 shares B = the whole maximal subspace of P4P5: absorbed."""
        result = stellar(running_example)
        keys = {g.key for g in result.groups}
        assert ((2, 3, 4), 0b0010) in keys       # P3P4P5 at B
        assert ((3, 4), 0b0010) not in keys      # the pure-seed pair is gone

    def test_unaffected_sharing(self, running_example):
        """P1 shares B with P2, but B is in no decisive subspace of P2:
        nothing changes for P2's groups."""
        result = stellar(running_example)
        by_key = {g.key: g for g in result.groups}
        p2 = by_key[((1,), 0b1111)]
        assert p2.decisive == (0b0101, 0b1100)  # AC, CD intact
        assert not any(0 in g.members for g in result.groups)


class TestDecisiveAdjustment:
    def test_seed_pair_decisive_shrinks(self, running_example):
        """(P2P5, A, D) on seeds becomes (P2P5, A) on S: P3 ties on D."""
        result = stellar(running_example)
        seed_group = next(
            sg for sg in result.seed_groups if sg.members == (1, 4)
        )
        assert seed_group.decisive == (0b0001, 0b1000)  # A and D over seeds
        full_group = next(
            g for g in result.groups if g.key == ((1, 4), 0b1001)
        )
        assert full_group.decisive == (0b0001,)  # only A over S


class TestNonSeedOnlySharers:
    def test_nonseed_changes_nothing_without_decisive_overlap(self):
        """A relevant non-seed whose share contains no decisive subspace
        joins nothing, and the decisive sets stay put (clause neutrality)."""
        # seeds: u=(0,9,9), t=(9,0,0); non-seed v=(0,9,10) ties u on A,B
        # (share=AB) but u's only decisive subspace over seeds is C... no:
        # dom[u,t] = A: decisive of u = {A}. share(v)=AB ⊇ A -> joins.
        # Make share avoid every decisive: v=(1,9,9) ties u on B,C;
        # decisive of u = {A}; A ⊄ BC so v joins nothing.
        ds = Dataset.from_rows([[0, 9, 9], [9, 0, 0], [1, 9, 9]])
        result = stellar(ds)
        assert result.seeds == [0, 1]
        by_key = {g.key: g for g in result.groups}
        u_group = by_key[((0,), 0b111)]
        assert u_group.decisive == (0b001,)
        assert not any(2 in g.members for g in result.groups)


class TestDuplicateObjects:
    def test_duplicate_seeds_form_one_group(self):
        ds = Dataset.from_rows([[1, 2], [1, 2], [2, 1]])
        result = stellar(ds)
        keys = {g.key for g in result.groups}
        assert ((0, 1), 0b11) in keys
        assert ((2,), 0b11) in keys
        assert len(result.groups) == 2

    def test_duplicate_nonseeds_join_together(self):
        ds = Dataset.from_rows([[0, 0, 5], [9, 9, 5], [9, 9, 5], [0, 1, 9]])
        result = stellar(ds)
        # the two (9,9,5) duplicates are non-seeds sharing C=5 with P1
        group = next(
            (g for g in result.groups if g.subspace == 0b100), None
        )
        assert group is not None
        assert group.members == frozenset({0, 1, 2})


class TestAllocationGuard:
    """The Theorem 5 pass allocates in proportion to the value coincidences
    between groups and non-seeds, not to groups x non-seeds x d.  A dense
    (groups, non-seeds, d) broadcast peaks above 400 MiB on both shapes;
    numpy reports its buffers to tracemalloc, so the traced peak sees it."""

    LIMIT = 32 * 2**20

    @pytest.mark.parametrize(
        "distribution, n",
        [("independent", 40_000), ("anticorrelated", 10_000)],
    )
    def test_traced_peak_is_bounded(self, distribution, n):
        ds = make_dataset(distribution, n, 4, seed=1)
        matrices = PairwiseMatrices(ds, compute_skyline(ds))
        seed_groups = compute_seed_groups(
            ds, matrices, enumerate_maximal_cgroups(matrices)
        )
        tracemalloc.start()
        try:
            groups = extend_with_nonseeds(ds, matrices, seed_groups)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(groups) >= len(seed_groups)
        assert peak < self.LIMIT, f"traced peak {peak / 2**20:.1f} MiB"
