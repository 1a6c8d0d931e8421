"""Definitional answers the benchmark checks the program against.

Everything here is computed from the raw rows by brute force (a point is in
the skyline of subspace ``A`` iff no point is at least as good on every
dimension of ``A`` and strictly better on one), never by the program.
"""

from __future__ import annotations

import re

import numpy as np

from inputs import N_DIMS, SUBSPACES, mask_name, parse_mask

_BLOCK = 512


def dims_of(mask: int) -> list[int]:
    return [d for d in range(N_DIMS) if mask >> d & 1]


def skyline(values: np.ndarray, mask: int) -> set[int]:
    """Indices of the skyline of ``values`` in subspace ``mask`` (smaller wins).

    Sort-filter in blocks: after sorting by the subspace sum no point can be
    dominated by a later one.  A block is first checked against the points
    kept so far and then against its own survivors; that is exact because
    dominance is transitive (a dominated dominator implies a kept one).
    """
    block = values[:, dims_of(mask)]
    order = np.argsort(block.sum(axis=1), kind="stable")
    kept = np.empty((0, block.shape[1]))
    kept_idx: list[np.ndarray] = []
    for start in range(0, len(order), _BLOCK):
        idx = order[start : start + _BLOCK]
        survivors = idx[~_dominated_by(kept, block[idx])]
        chunk = block[survivors]
        survivors = survivors[~_dominated_by(chunk, chunk)]
        kept = np.vstack([kept, block[survivors]])
        kept_idx.append(survivors)
    return set(np.concatenate(kept_idx).tolist()) if kept_idx else set()


def _dominated_by(candidates: np.ndarray, points: np.ndarray) -> np.ndarray:
    """For each point: is some candidate at least as good everywhere and
    strictly better somewhere?"""
    if len(candidates) == 0:
        return np.zeros(len(points), dtype=bool)
    le = np.all(candidates[:, None, :] <= points[None, :, :], axis=2)
    lt = np.any(candidates[:, None, :] < points[None, :, :], axis=2)
    return np.any(le & lt, axis=0)


def all_skylines(values: np.ndarray) -> dict[int, set[int]]:
    return {mask: skyline(values, mask) for mask in SUBSPACES}


def dominators(values: np.ndarray, obj: int, mask: int) -> np.ndarray:
    block = values[:, dims_of(mask)]
    row = block[obj]
    hit = np.all(block <= row, axis=1) & np.any(block < row, axis=1)
    return np.flatnonzero(hit)


def covered_members(groups, mask: int) -> set[int]:
    """Members of the groups whose decisive intervals contain ``mask``."""
    out: set[int] = set()
    for group in groups:
        if mask & ~group.subspace:
            continue
        if any(c & ~mask == 0 for c in group.decisive):
            out.update(group.members)
    return out


def check_groups(values: np.ndarray, groups, skylines) -> list[str]:
    """Compare a built cube's groups with brute-force subspace skylines.

    Every subspace skyline must equal the union of the members of the groups
    covering it, and every group's members must share their values on the
    group's subspace.  Returns a list of mismatch descriptions.
    """
    problems = []
    for mask, expected in skylines.items():
        got = covered_members(groups, mask)
        if got != expected:
            problems.append(
                f"subspace {mask_name(mask)}: {len(got ^ expected)} objects differ"
            )
    for group in groups:
        members = sorted(group.members)
        dims = dims_of(group.subspace)
        rows = values[np.ix_(members, dims)]
        if not np.all(rows == rows[0]):
            problems.append(f"group {members[:3]} does not share its values")
    return problems


_SIGNATURE = re.compile(
    r"^\((?P<members>[^()]*), \((?P<cells>[^()]*)\), (?P<dec>[^()]*)\)$"
)


class ReadOracle:
    """Expected answers of the serve-read query kinds over one dataset."""

    def __init__(self, values: np.ndarray, labels: list[str], skylines):
        self.values = values
        self.labels = labels
        self.index = {label: i for i, label in enumerate(labels)}
        self.skylines = skylines
        self.wins = {}

    def where_wins(self, obj: int) -> set[int]:
        if obj not in self.wins:
            self.wins[obj] = {m for m, sky in self.skylines.items() if obj in sky}
        return self.wins[obj]

    def check(self, kind: str, label: str | None, mask: int | None, result) -> bool:
        """Is ``result`` (the response's ``result`` field) correct?"""
        if kind == "skyline":
            expected = [self.labels[i] for i in sorted(self.skylines[mask])]
            return result == expected
        obj = self.index[label]
        if kind == "wins-in":
            return result is (obj in self.skylines[mask])
        if kind == "where-wins":
            return {parse_mask(text) for text in result} == self.where_wins(obj)
        if kind == "why-not":
            return self._check_why_not(obj, mask, result)
        if kind == "signature":
            return self._check_signature(obj, result)
        raise ValueError(kind)

    def _check_why_not(self, obj: int, mask: int, text: str) -> bool:
        label = self.labels[obj]
        if obj in self.skylines[mask]:
            return text.startswith(f"{label} IS in the skyline of {mask_name(mask)}")
        if not text.startswith(f"{label} is NOT in the skyline of {mask_name(mask)}"):
            return False
        truth = set(dominators(self.values, obj, mask).tolist())
        named = re.search(r"dominated by (.*?)(?: \(and (\d+) more\))?\.$", text)
        if named is None:
            return False
        names = named.group(1).split(", ")
        more = int(named.group(2) or 0)
        return (
            all(self.index.get(n) in truth for n in names)
            and len(names) + more == len(truth)
        )

    def _check_signature(self, obj: int, signatures: list[str]) -> bool:
        """The object's groups must cover exactly the subspaces it wins in."""
        covered: set[int] = set()
        row = self.values[obj]
        for text in signatures:
            match = _SIGNATURE.match(text)
            if match is None:
                return False
            members = re.findall(r"[A-Z]\d+", match.group("members"))
            if self.labels[obj] not in members:
                return False
            cells = match.group("cells").split(",")
            upper = 0
            for d, cell in enumerate(cells):
                if cell != "*":
                    upper |= 1 << d
                    if float(cell) != row[d]:
                        return False
            for dec in match.group("dec").split(", "):
                lower = parse_mask(dec)
                extra = upper & ~lower
                sub = extra
                while True:
                    covered.add(lower | sub)
                    if sub == 0:
                        break
                    sub = (sub - 1) & extra
        return covered == self.where_wins(obj)
