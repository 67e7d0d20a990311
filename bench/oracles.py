"""Answers known without strandcalc, used to check its outputs.

Standard library only; no code here is shared with strandcalc.
"""

from __future__ import annotations

import itertools


def split_matching(genus: int) -> list[tuple[int, int]]:
    """The matched pairs of the genus-g split circle: g tori side by side,
    torus k pairing (4k+1, 4k+3) and (4k+2, 4k+4)."""
    pairs = []
    for k in range(genus):
        pairs += [(4 * k + 1, 4 * k + 3), (4 * k + 2, 4 * k + 4)]
    return pairs


def count_basis_diagrams(pairs: list[tuple[int, int]]) -> int:
    """Brute-force count of strand-algebra basis diagrams.

    A diagram is a set of upward strands s -> t whose sources lie on
    distinct matched pairs, whose targets lie on distinct matched pairs,
    and which share no source and no target, plus any set of horizontal
    pairs that no source or target touches.
    """
    pair_of = {p: pair for pair in pairs for p in pair}
    points = sorted(pair_of)
    total = 0
    for k in range(len(pairs) + 1):
        for sources in itertools.combinations(points, k):
            if len({pair_of[s] for s in sources}) != k:
                continue
            for targets in itertools.permutations(points, k):
                if any(t <= s for s, t in zip(sources, targets)):
                    continue
                if len({pair_of[t] for t in targets}) != k:
                    continue
                touched = {pair_of[p] for p in sources + targets}
                total += 2 ** (len(pairs) - len(touched))
    return total


def gf2_rank(columns) -> int:
    """Rank over GF(2) of the matrix whose columns are the given sets of
    row indices, by elimination on integer bit masks."""
    pivots: dict[int, int] = {}
    for column in columns:
        row = 0
        for i in column:
            row ^= 1 << i
        while row:
            lead = row.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = row
                break
            row ^= pivots[lead]
    return len(pivots)


def complex_homology(size: int, boundary) -> int:
    """Homology dimension of a complex C -> C with d(i) = boundary(i):
    dim ker d - rank d = size - 2 rank d."""
    return size - 2 * gf2_rank(boundary(i) for i in range(size))
