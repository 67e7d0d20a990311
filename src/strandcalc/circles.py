"""Pointed matched circles.

A pointed matched circle of genus g is an oriented circle with a basepoint
z and 4g marked points, numbered 1..4g along the orientation starting just
after z, partitioned into 2g matched pairs (the feet of orientable
1-handles attached to a disk bounded by the circle).

Validity is decided by the surgery criterion: attaching all 2g handle
bands to the disk must leave a single boundary circle, in which case the
boundary can be capped off and the data describes a closed genus-g
surface.  The criterion is computed exactly by cutting the circle at every
marked point and rewiring the cut ends through the bands, then counting
cycles of the resulting successor permutation.

The literature also phrases validity as a handleslide condition ("no
sequence of handleslides brings two paired points adjacent").  That
phrasing has no direct finite algorithm; this module reports its
zero-handleslide necessary condition (no pair already adjacent) alongside
the surgery count, and treats the surgery criterion as authoritative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DegenerateMatching, MalformedMatching


@dataclass(frozen=True)
class PointedMatchedCircle:
    """An oriented circle with basepoint and 2g matched point pairs.

    The basepoint sits between point 4g and point 1.  The matching is
    stored canonically: each pair sorted, pairs sorted among themselves.
    Instances are immutable; build them with make_pmc, which validates.
    """

    genus: int
    matching: tuple[tuple[int, int], ...]

    @property
    def points(self) -> range:
        return range(1, 4 * self.genus + 1)


def _canonical(matching: Iterable[Sequence[int]]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(tuple(sorted(p)) for p in matching))


def _check_partition(genus: int, matching) -> tuple[tuple[int, int], ...]:
    if genus < 1:
        raise MalformedMatching(f"genus must be >= 1, got {genus}")
    pairs = _canonical(matching)
    if len(pairs) != 2 * genus:
        raise MalformedMatching(
            f"expected {2 * genus} pairs, got {len(pairs)}")
    seen: list[int] = []
    for p in pairs:
        if len(p) != 2 or p[0] == p[1]:
            raise MalformedMatching(f"malformed pair {p}")
        seen.extend(p)
    if sorted(seen) != list(range(1, 4 * genus + 1)):
        raise MalformedMatching(
            f"pairs do not partition 1..{4 * genus}")
    return pairs


def surgery_component_count(genus: int,
                            matching: tuple[tuple[int, int], ...]) -> int:
    """Number of boundary circles after attaching all matched bands.

    Each point p is cut into an in-end and an out-end.  Along the circle
    the out-end of p feeds the in-end of p+1 (wrapping through the
    basepoint from 4g to 1).  An orientation-compatible band at {a, b}
    rewires in(a) -> out(b) and in(b) -> out(a).
    """
    n = 4 * genus
    succ: dict[tuple[int, str], tuple[int, str]] = {}
    for p in range(1, n + 1):
        succ[(p, "out")] = (p % n + 1, "in")
    for a, b in matching:
        succ[(a, "in")] = (b, "out")
        succ[(b, "in")] = (a, "out")
    unvisited = set(succ)
    components = 0
    while unvisited:
        components += 1
        node = min(unvisited)
        while node in unvisited:
            unvisited.remove(node)
            node = succ[node]
    return components


@dataclass(frozen=True)
class PMCReport:
    """Outcome of validating a matching; valid follows the surgery count.
    The matching is stored canonically, as PointedMatchedCircle stores it."""

    genus: int
    surgery_components: int
    adjacent_pair_free: bool
    warnings: tuple[str, ...]
    matching: tuple[tuple[int, int], ...]

    @property
    def valid(self) -> bool:
        return self.surgery_components == 1


def validation_report(genus: int, matching) -> PMCReport:
    pairs = _check_partition(genus, matching)
    components = surgery_component_count(genus, pairs)
    # zero-handleslide check: a pair occupying adjacent positions i, i+1
    # (adjacency through the basepoint does not count)
    adjacent_free = all(b != a + 1 for a, b in pairs)
    warnings = []
    if adjacent_free and components != 1:
        warnings.append(
            "no pair is adjacent but surgery yields "
            f"{components} circles; surgery criterion is authoritative")
    return PMCReport(genus, components, adjacent_free, tuple(warnings),
                     pairs)


def make_pmc(genus: int, matching) -> PointedMatchedCircle:
    """Construct and validate a pointed matched circle.

    Raises MalformedMatching when the pairs do not partition 1..4g and
    DegenerateMatching when the surgery criterion fails.
    """
    report = validation_report(genus, matching)
    if not report.valid:
        raise DegenerateMatching(f"surgery yields {report.surgery_components}"
                                 f" circles, expected 1")
    return PointedMatchedCircle(genus, report.matching)


def validate(c: PointedMatchedCircle) -> bool:
    """True iff surgering all matched pairs yields a single circle."""
    return surgery_component_count(c.genus, c.matching) == 1


def reverse(c: PointedMatchedCircle) -> PointedMatchedCircle:
    """Orientation reversal: point i maps to 4g+1-i, matching transported."""
    n = 4 * c.genus
    flipped = [(n + 1 - a, n + 1 - b) for a, b in c.matching]
    return PointedMatchedCircle(c.genus, _canonical(flipped))


def torus_circle() -> PointedMatchedCircle:
    """The genus-1 circle with pairs (1 3)(2 4)."""
    return make_pmc(1, [(1, 3), (2, 4)])


def split_circle(genus: int) -> PointedMatchedCircle:
    """The genus-g split circle (1 3)(2 4)(5 7)(6 8)..."""
    pairs = []
    for k in range(genus):
        base = 4 * k
        pairs += [(base + 1, base + 3), (base + 2, base + 4)]
    return make_pmc(genus, pairs)
