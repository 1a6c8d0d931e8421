"""Maximal c-group enumeration over the seeds (Figure 6 of the paper).

A *maximal c-group* ``(G, B)`` over the seed set is a group of seeds sharing
the same projection on ``B`` such that no other seed shares it and the
members share no further dimension.  These are exactly the closed sets of
the "coincides-on" Galois connection, and the paper enumerates them with a
set-enumeration tree [Rymon, KR'92] in the style of closed-itemset miners
(CLOSET, CHARM):

* the search is rooted once per seed ``u``; the root's branch enumerates the
  groups whose smallest member is ``u``;
* at a node with group ``G`` (smallest member ``u``) and subspace ``B``, the
  *closure* is taken: every seed whose coincidence with ``u`` covers ``B``
  is forced into ``G`` (line 31 of Figure 6);
* if a forced seed lies outside the remaining candidate tail ``H`` -- i.e.
  it was skipped earlier on this path or belongs to an earlier root -- the
  node cannot be maximal-canonical and the branch is pruned (line 32);
* otherwise the closed group is emitted and the search extends ``G`` with
  each later candidate ``o``, shrinking the subspace to ``B ∩ co[u, o]``.

The tail ``H`` passed to a child keeps only candidates *after* the chosen
extension whose coincidence still meets the child subspace: an object with
``co[u, o] ∩ B' = ∅`` can never join any group below ``B'`` because group
subspaces are non-empty subsets of ``B'``.  (The paper's Figure 6 prints the
filter as ``co ⊇ B'``, which would keep only already-forced objects and
miss, e.g., group ``o1 o2 o4 o5`` of its own Example 8; the intersection
filter is the reading consistent with that example and is what we use.)

Together with the line-32 prune, the "candidates strictly after the chosen
extension" rule makes each closed group reachable by exactly one canonical
path (its non-forced members added in increasing index order), so no
duplicate suppression table is needed; a defensive assertion in the tests
checks uniqueness anyway.

Every step reads only the root's *coincident neighbours* -- the seeds ``o``
with ``co[u, o] ≠ ∅`` (:meth:`PairwiseMatrices.coincident_neighbours`).
Forced seeds, tail candidates and child tails all coincide with ``u`` on a
non-empty subspace, so no other seed can take part in ``u``'s branch.

The line-32 prune is decided *before* descending.  A forced seed of child
``(G ∪ {o}, B')`` lies outside the child's tail exactly when it precedes
``o`` and is not in ``G``: every later neighbour that covers ``B'`` is in
the tail.  Each node therefore carries the set of masks ``co[u, w]`` of the
neighbours ``w ∉ G`` that precede the current extension (the earlier roots'
seeds and the candidates passed over on the path), and a child is pruned
when one of those masks covers its subspace.  Masks are few (at most one
per subset of dimensions), so the test is cheap, and a pruned child costs
no tail or closure scan; the search does work in proportion to the groups
it emits and the coincidences that exist, not to the ``k``-wide matrix row.
"""

from __future__ import annotations

from ..core.dominance import PairwiseMatrices

__all__ = ["enumerate_maximal_cgroups"]


def enumerate_maximal_cgroups(
    matrices: PairwiseMatrices,
) -> list[tuple[tuple[int, ...], int]]:
    """Enumerate all maximal c-groups over the seed set.

    Parameters
    ----------
    matrices:
        Pairwise matrices over the seeds; coincidence cells drive the search.

    Returns
    -------
    List of ``(members, subspace)`` pairs where ``members`` are *local* seed
    positions (sorted tuples) and ``subspace`` is a dimension bitmask.
    Singleton groups carry the full space as their maximal subspace.
    """
    k = len(matrices)
    full = matrices.full_space
    if full == 0 or k == 0:
        return []
    out: list[tuple[tuple[int, ...], int]] = []
    for u in range(k):
        co = matrices.coincident_neighbours(u)
        blocked = {mask for o, mask in co.items() if o < u}
        if full in blocked:
            # Line 32 at the root: u's closure takes an earlier duplicate,
            # whose own branch emits the group.
            continue
        _search(co, frozenset([u]), [o for o in co if o > u], full, blocked, out)
    return out


def _search(
    co: dict[int, int],
    group: frozenset[int],
    tail: list[int],
    subspace: int,
    blocked: set[int],
    out: list[tuple[tuple[int, ...], int]],
) -> None:
    # Closure (line 31): seeds coinciding with u on all of `subspace` are
    # forced into the group.  Coincidence with the branch root u on B means
    # coincidence with every member (they all carry u's values on B).  The
    # caller ruled out forced seeds outside the tail (line 32).
    forced = {o for o in tail if co[o] & subspace == subspace}
    if forced:
        group = group | forced
        tail = [o for o in tail if o not in forced]

    out.append((tuple(sorted(group)), subspace))

    blocked = set(blocked)
    for j, o in enumerate(tail):
        child_subspace = co[o] & subspace
        if child_subspace and not any(
            mask & child_subspace == child_subspace for mask in blocked
        ):
            child_tail = [w for w in tail[j + 1 :] if co[w] & child_subspace]
            _search(co, group | {o}, child_tail, child_subspace, blocked, out)
        # o now precedes every later extension without joining the group.
        blocked.add(co[o])
