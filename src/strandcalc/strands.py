"""Strand algebras of pointed matched circles.

A basis diagram consists of moving strands (s -> t with s < t, drawn left
to right between two copies of the marked points) together with a set of
horizontally occupied matched pairs.  Within one diagram all strand
sources are distinct points on distinct matched pairs, and likewise all
targets; a source of one strand may coincide with the target of another.
Horizontal pairs are disjoint from every pair touched by a source or a
target.

Horizontal pairs are "smeared": a diagram with h horizontals stands for
the sum of the 2^h primitive diagrams obtained by placing a constant
strand at one point of each horizontal pair.  build_dga computes
products and differentials on primitives and regroups them, in one
place:

* product: primitives concatenate when the target points of the left
  factor equal the source points of the right factor; a concatenation in
  which some pair of strands crosses in both halves (a double crossing)
  is discarded;
* differential: sum over crossings of the diagram with the two targets
  swapped, keeping a resolution only when it lowers the crossing count by
  exactly one (resolutions that undo a second crossing are excluded).

Crossings are counted in the primitive picture, where they are
unambiguous; constant strands participate in crossings.  The full algebra
(every number of occupied pairs) is taken.

All diagrams are immutable.  The operations are read off build_dga's
algebra A by basis index (A.index, A.name): A.product(i, j) and A.d(i).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache
from random import Random
from typing import Callable, Mapping

from .circles import PointedMatchedCircle

# A GF(2) combination of diagrams is just a frozenset (duplicates cancel).
AlgebraElement = frozenset
EMPTY: frozenset = frozenset()

Primitive = tuple[tuple[int, int], ...]


@dataclass(frozen=True, order=True)
class StrandDiagram:
    """A basis diagram: sorted moving strands plus sorted horizontal pairs."""

    strands: tuple[tuple[int, int], ...] = ()
    horizontals: tuple[tuple[int, int], ...] = ()

    @property
    def occupied(self) -> int:
        return len(self.strands) + len(self.horizontals)

    def __str__(self) -> str:
        return diagram_name(self)


@lru_cache(maxsize=None)
def _pair_lookup(c: PointedMatchedCircle) -> dict[int, tuple[int, int]]:
    table = {}
    for pair in c.matching:
        for p in pair:
            table[p] = pair
    return table


def make_diagram(c: PointedMatchedCircle, strands, horizontals=()) -> StrandDiagram:
    """Validate and canonicalize a diagram over the circle c."""
    pl = _pair_lookup(c)
    strands = tuple(sorted(tuple(s) for s in strands))
    horizontals = tuple(sorted(tuple(sorted(h)) for h in horizontals))
    sources = [s for s, _ in strands]
    targets = [t for _, t in strands]
    for s, t in strands:
        if s not in pl or t not in pl:
            raise ValueError(f"strand {s}->{t} leaves the marked points")
        if s >= t:
            raise ValueError(f"strand {s}->{t} does not move up")
    if len(set(sources)) != len(sources) or len(set(targets)) != len(targets):
        raise ValueError("strands share a source or a target")
    if len({pl[s] for s in sources}) != len(sources):
        raise ValueError("two sources on the same matched pair")
    if len({pl[t] for t in targets}) != len(targets):
        raise ValueError("two targets on the same matched pair")
    touched = {pl[s] for s in sources} | {pl[t] for t in targets}
    for h in horizontals:
        if h not in c.matching:
            raise ValueError(f"{h} is not a matched pair")
        if h in touched:
            raise ValueError(f"horizontal {h} meets a strand endpoint")
    if len(set(horizontals)) != len(horizontals):
        raise ValueError("duplicate horizontal pair")
    return StrandDiagram(strands, horizontals)


def source_idem(c: PointedMatchedCircle, d: StrandDiagram) -> frozenset:
    """Occupied pairs on the left: pairs of sources plus horizontals."""
    pl = _pair_lookup(c)
    return frozenset(pl[s] for s, _ in d.strands) | frozenset(d.horizontals)


def target_idem(c: PointedMatchedCircle, d: StrandDiagram) -> frozenset:
    pl = _pair_lookup(c)
    return frozenset(pl[t] for _, t in d.strands) | frozenset(d.horizontals)


# --- primitive calculus --------------------------------------------------

def expansions(d: StrandDiagram) -> tuple[Primitive, ...]:
    """The 2^h primitives of d: one constant strand per horizontal pair."""
    if not d.horizontals:
        return (d.strands,)
    out = []
    for choice in itertools.product(*d.horizontals):
        out.append(tuple(sorted(d.strands + tuple((p, p) for p in choice))))
    return tuple(out)


def _concat(p: Primitive, q: Primitive) -> Primitive | None:
    """Concatenate primitives whose endpoints meet (the targets of p are
    the sources of q), or None on a double crossing."""
    follow = dict(q)
    triples = [(s, t, follow[t]) for s, t in p]  # already sorted by s
    n = len(triples)
    for i in range(n):
        s1, t1, u1 = triples[i]
        for j in range(i + 1, n):
            s2, t2, u2 = triples[j]
            # s1 < s2; crossed in the left half and again in the right half
            if t1 > t2 and u1 < u2:
                return None
    return tuple(sorted((s, u) for s, _, u in triples))


def _inversions(prim) -> int:
    count = 0
    n = len(prim)
    for i in range(n):
        for j in range(i + 1, n):
            if prim[i][1] > prim[j][1]:
                count += 1
    return count


def _resolutions(prim: Primitive) -> list[Primitive]:
    """Resolve each crossing; keep only drops of exactly one crossing."""
    base = _inversions(prim)
    out = []
    strands = list(prim)
    n = len(strands)
    for i in range(n):
        for j in range(i + 1, n):
            if strands[i][1] > strands[j][1]:
                new = list(strands)
                new[i] = (strands[i][0], strands[j][1])
                new[j] = (strands[j][0], strands[i][1])
                if _inversions(new) == base - 1:
                    out.append(tuple(sorted(new)))
    return out


# --- the basis -----------------------------------------------------------

def enumerate_basis(c: PointedMatchedCircle) -> tuple[StrandDiagram, ...]:
    """All basis diagrams over c, canonically ordered.

    The order is lexicographic on (occupied pair count, strand list,
    horizontal list) so that reports and golden files are stable.
    """
    return _enumerate_cached(c)


@lru_cache(maxsize=None)
def _enumerate_cached(c: PointedMatchedCircle) -> tuple[StrandDiagram, ...]:
    """Sources are each k-subset of points on k distinct pairs; targets
    are assigned in source order by backtracking, each above its source
    and on a pair no earlier target uses; horizontals range over the
    pairs no endpoint touches.  The sort fixes the canonical order."""
    pl = _pair_lookup(c)

    def assign(sources, used):  # yields (targets, the pairs they use)
        if not sources:
            yield (), used
            return
        for t in c.points:
            if t > sources[0] and pl[t] not in used:
                for rest, pairs in assign(sources[1:], used | {pl[t]}):
                    yield (t,) + rest, pairs

    out = []
    for k in range(0, 2 * c.genus + 1):
        for sources in itertools.combinations(c.points, k):
            touched = {pl[s] for s in sources}
            if len(touched) < k:
                continue
            for targets, used in assign(sources, frozenset()):
                strands = tuple(zip(sources, targets))
                free = [p for p in c.matching
                        if p not in touched and p not in used]
                for r in range(len(free) + 1):
                    for horiz in itertools.combinations(free, r):
                        out.append(StrandDiagram(strands, horiz))
    out.sort(key=lambda d: (d.occupied, d.strands, d.horizontals))
    return tuple(out)


# --- printable names -----------------------------------------------------

_NAME_TOKEN = re.compile(r"r\[(\d+)-(\d+)\]|h\((\d+) (\d+)\)")


def diagram_name(d: StrandDiagram) -> str:
    """Canonical text form: `r[1-2]` strands then `h(1 3)` horizontals,
    juxtaposed; the empty diagram is `e`."""
    if not d.strands and not d.horizontals:
        return "e"
    parts = [f"r[{s}-{t}]" for s, t in d.strands]
    parts += [f"h({a} {b})" for a, b in d.horizontals]
    return "".join(parts)


def parse_diagram_name(name: str) -> StrandDiagram:
    if name == "e":
        return StrandDiagram()
    strands = []
    horizontals = []
    pos = 0
    while pos < len(name):
        m = _NAME_TOKEN.match(name, pos)
        if m is None:
            raise ValueError(f"bad diagram name {name!r} at offset {pos}")
        if m.group(1) is not None:
            strands.append((int(m.group(1)), int(m.group(2))))
        else:
            horizontals.append((int(m.group(3)), int(m.group(4))))
        pos = m.end()
    return StrandDiagram(tuple(sorted(strands)), tuple(sorted(horizontals)))


# --- packaged differential graded algebras -------------------------------

def group_index(pairs) -> dict:
    """key -> list of the values paired with it, in the order given."""
    index: dict = {}
    for key, value in pairs:
        index.setdefault(key, []).append(value)
    return index


def sorted_index(pairs) -> dict:
    """key -> sorted tuple of the values paired with it."""
    return {k: tuple(sorted(v)) for k, v in group_index(pairs).items()}


class DGAlgebra:
    """A finite-basis differential graded algebra over GF(2).

    Elements are frozensets of basis indices.  Each basis element b
    carries a left (source) and right (target) idempotent, themselves
    basis indices.  The algebra is taken to have orthogonal idempotents
    and b = left_idem[b] . b . right_idem[b] for every b, so that these
    indices are the idempotent facts bimodules.sandwiched reads.
    Products are stored a row at a time, one dict per left factor i
    holding j -> i.j for the nonzero products only.  The closure row_fn
    gives row i when first asked; of its answer only the nonzero values
    on right factors j with left_idem[j] == right_idem[i] are kept, so
    every other pair multiplies to zero.  materialize stores every row
    and drops the closure.
    """

    def __init__(self, basis_names, idempotents, left_idem, right_idem,
                 diff, row_fn: Callable[[int], Mapping[int, frozenset]],
                 label: str = ""):
        self.basis_names = tuple(basis_names)
        self.idempotents = tuple(idempotents)
        self.left_idem = tuple(left_idem)
        self.right_idem = tuple(right_idem)
        self.label = label
        self._diff = dict(diff)
        self._rows: dict[int, dict[int, frozenset]] = {}
        self._row_fn = row_fn
        self._index = {n: i for i, n in enumerate(self.basis_names)}
        n = self.size
        if len(self.left_idem) != n or len(self.right_idem) != n:
            raise ValueError("idempotent assignment length mismatch")
        # d preserves both idempotents (d is the only table known here;
        # products are taken to preserve them, as b = iL(b) . b . iR(b))
        self.idem_graded = all(
            self.left_idem[t] == self.left_idem[i]
            and self.right_idem[t] == self.right_idem[i]
            for i, terms in self._diff.items() for t in terms)

    @property
    def size(self) -> int:
        return len(self.basis_names)

    def index(self, name: str) -> int:
        return self._index[name]

    def name(self, i: int) -> str:
        return self.basis_names[i]

    def is_idempotent(self, i: int) -> bool:
        return i in self.idempotents

    # -- tables --

    def d(self, i: int) -> frozenset:
        return self._diff.get(i, EMPTY)

    def row(self, i: int) -> dict[int, frozenset]:
        """j -> i.j for every nonzero product with left factor i (the
        stored dict, to be read only)."""
        got = self._rows.get(i)
        if got is None:
            left, match = self.left_idem, self.right_idem[i]
            got = self._rows[i] = {j: v for j, v in self._row_fn(i).items()
                                   if v and left[j] == match}
        return got

    def product(self, i: int, j: int) -> frozenset:
        row = self._rows.get(i)
        return (self.row(i) if row is None else row).get(j, EMPTY)

    def d_element(self, x: frozenset) -> frozenset:
        out: frozenset = frozenset()
        for i in x:
            out ^= self.d(i)
        return out

    def product_elements(self, x: frozenset, y: frozenset) -> frozenset:
        out: frozenset = frozenset()
        for i in x:
            for j in y:
                out ^= self.product(i, j)
        return out

    # -- derived indexes (used by the morphism complex) --

    def materialize(self) -> None:
        """Store every row, then drop row_fn and with it whatever the
        closure holds."""
        for i in range(self.size):
            self.row(i)
        self._row_fn = None

    @cached_property
    def products_by_right(self) -> dict[int, list[tuple[int, frozenset]]]:
        """v -> (u, u.v) for every nonzero product (materializes products)."""
        self.materialize()
        return group_index((v, (u, w)) for u, row in self._rows.items()
                           for v, w in row.items())

    @cached_property
    def codiff_index(self) -> dict[int, tuple[int, ...]]:
        """u -> elements a with u in d(a)."""
        return sorted_index((u, a) for a in range(self.size)
                            for u in self.d(a))

    def _product_terms(self):
        """(u, v, w) for every w in a product u.v."""
        self.materialize()
        return ((u, v, w) for u, row in self._rows.items()
                for v, terms in row.items() for w in terms)

    @cached_property
    def coproduct_index(self) -> dict[int, tuple]:
        """w -> ordered pairs (u, v) with w in u.v (materializes products)."""
        return sorted_index((w, (u, v)) for u, v, w in self._product_terms())

    @cached_property
    def left_factor_index(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """(w, v) -> elements u with w in u.v."""
        return sorted_index(((w, v), u) for u, v, w in self._product_terms())

    @cached_property
    def right_factor_index(self) -> dict[tuple[int, int], tuple[int, ...]]:
        """(w, u) -> elements v with w in u.v."""
        return sorted_index(((w, u), v) for u, v, w in self._product_terms())

    def __repr__(self):
        tag = self.label or f"{self.size} generators"
        return f"DGAlgebra({tag})"


def build_dga(c: PointedMatchedCircle, label: str = "") -> DGAlgebra:
    """Package the strand algebra of c as a DGAlgebra.

    The basis is enumerate_basis(c).  Both operations work on expansions
    and regroup through one local regroup: a primitive's owner is the
    basis diagram it expands, and a mod-2 sum regroups to the owners
    present with all 2^h of their expansions.  d(a_i), filled eagerly,
    regroups the admissible resolutions of the expansions of a_i.
    row_fn(i) concatenates each expansion of a_i with every expansion
    starting at its target points and regroups per right factor; the
    algebra asks it once per left factor and stores the row.  Expansions
    meet only when the idempotents match.  The idempotents (diagrams
    without moving strands) are orthogonal and every diagram b equals
    source_idem(b) . b . target_idem(b), so products and differentials
    preserve idempotents and the algebra is idempotent-graded.
    """
    basis = enumerate_basis(c)
    names = [diagram_name(d) for d in basis]
    idem_index = {}
    for i, d in enumerate(basis):
        if not d.strands:
            idem_index[frozenset(d.horizontals)] = i
    left = [idem_index[source_idem(c, d)] for d in basis]
    right = [idem_index[target_idem(c, d)] for d in basis]
    starts = group_index((tuple(s for s, _ in q), (j, q))
                         for j, d in enumerate(basis) for q in expansions(d))
    owner = {q: j for meets in starts.values() for j, q in meets}

    def regroup(prims) -> frozenset:
        """The basis elements whose expansions make up the mod-2 sum
        prims; the algebra is closed, so a failure here is a bug."""
        owned = group_index((owner.get(p), p) for p in prims)
        if any(o is None or len(ps) != 1 << len(basis[o].horizontals)
               for o, ps in owned.items()):
            raise ArithmeticError("primitive sum does not regroup")
        return frozenset(owned)

    diff = {}
    for i, d in enumerate(basis):
        acc: set[Primitive] = set()
        for p in expansions(d):
            for res in _resolutions(p):
                acc ^= {res}
        if acc:
            diff[i] = regroup(acc)

    def row_fn(i: int) -> dict[int, frozenset]:
        acc: dict[int, frozenset] = {}  # a_k -> the primitives of a_i . a_k
        for p in expansions(basis[i]):
            for k, q in starts.get(tuple(sorted(t for _, t in p)), ()):
                comp = _concat(p, q)
                if comp is not None:
                    acc[k] = acc.get(k, EMPTY) ^ {comp}
        return {k: regroup(prims) for k, prims in acc.items()}

    idempotents = sorted(idem_index.values())
    return DGAlgebra(names, idempotents, left, right, diff,
                     row_fn=row_fn, label=label or f"A(genus {c.genus})")


# --- verification ---------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    exhaustive: bool
    tested: int
    witnesses: tuple = ()


@dataclass(frozen=True)
class DGAReport:
    label: str
    budget: int
    seed: int
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def payload(self) -> dict:
        return {
            "label": self.label,
            "budget": self.budget,
            "seed": self.seed,
            "passed": self.passed,
            "checks": {
                c.name: {
                    "passed": c.passed,
                    "exhaustive": c.exhaustive,
                    "tested": c.tested,
                    "witnesses": [list(w) for w in c.witnesses[:5]],
                }
                for c in self.checks
            },
        }


def verify_dga(A: DGAlgebra, sample_budget: int = 10 ** 6,
               seed: int = 0) -> DGAReport:
    """Check d^2 = 0, Leibniz, associativity and the idempotent axioms.

    d^2 and the idempotent axioms are always exhaustive.  Leibniz runs over
    all pairs when size^2 <= sample_budget and over sample_budget uniform
    pairs otherwise; associativity does the same with triples.  Each pair
    or triple is drawn as it is checked, so memory does not grow with
    sample_budget.  Sampling is seeded, so reports are deterministic;
    failing checks carry up to five witnesses of offending generators, in
    canonical order.
    """
    if sample_budget < 1:
        raise ValueError(f"sample budget must be >= 1, got {sample_budget}")
    n = A.size
    checks = []

    fails = [(A.name(i),) for i in range(n) if A.d_element(A.d(i))]
    checks.append(CheckResult("d_squared", not fails, True, n,
                              tuple(sorted(fails))))

    exhaustive_pairs = n * n <= sample_budget
    if exhaustive_pairs:
        pairs = itertools.product(range(n), repeat=2)
    else:
        rng = Random(seed)
        pairs = ((rng.randrange(n), rng.randrange(n))
                 for _ in range(sample_budget))

    fails = []
    for i, j in pairs:
        lhs = A.d_element(A.product(i, j))
        rhs = A.product_elements(A.d(i), frozenset((j,)))
        rhs ^= A.product_elements(frozenset((i,)), A.d(j))
        if lhs != rhs:
            fails.append((A.name(i), A.name(j)))
    checks.append(CheckResult("leibniz", not fails, exhaustive_pairs,
                              min(n * n, sample_budget),
                              tuple(sorted(set(fails)))))

    exhaustive_triples = n ** 3 <= sample_budget
    if exhaustive_triples:
        triples = itertools.product(range(n), repeat=3)
    else:
        rng = Random(seed + 1)
        triples = ((rng.randrange(n), rng.randrange(n), rng.randrange(n))
                   for _ in range(sample_budget))

    fails = []
    for i, j, k in triples:
        lhs = A.product_elements(A.product(i, j), frozenset((k,)))
        rhs = A.product_elements(frozenset((i,)), A.product(j, k))
        if lhs != rhs:
            fails.append((A.name(i), A.name(j), A.name(k)))
    checks.append(CheckResult("associativity", not fails, exhaustive_triples,
                              min(n ** 3, sample_budget),
                              tuple(sorted(set(fails)))))

    fails = []
    tested = 0
    unit = frozenset(A.idempotents)
    for u in A.idempotents:
        for v in A.idempotents:
            tested += 1
            expect = frozenset((u,)) if u == v else frozenset()
            if A.product(u, v) != expect:
                fails.append((A.name(u), A.name(v)))
    for a in range(n):
        tested += 2
        one = frozenset((a,))
        if A.product_elements(unit, one) != one:
            fails.append(("unit.left", A.name(a)))
        if A.product_elements(one, unit) != one:
            fails.append(("unit.right", A.name(a)))
    checks.append(CheckResult("idempotents", not fails, True, tested,
                              tuple(sorted(fails))))

    return DGAReport(A.label, sample_budget, seed, tuple(checks))
