"""Type DA bimodules over two differential graded algebras.

A bimodule over (A1, A2) is a finite generator set, each generator
carrying a left idempotent in A1 and a right idempotent in A2, together
with a finitely supported structure table

    d1 : (generator x, sequence of A2 basis elements) -> sums of (b, y)

with b an A1 basis element and y a generator.  The table is the minimal
encoding: the left differential and products of the underlying module are
recovered from it, and the higher maps D_n arise by the recursion

    D_n(x, a_1..a_i) = sum_j (I x D_1)(D_{n-1}(x, a_1..a_j), a_{j+1}..a_i)

with possibly empty chunks.  Tables are maps of bimodules over the
idempotent rings, so every entry at (x, a_1..a_k) is a term on nonzero
elements: each output (b, y) satisfies iL(x) . b . iL(y) = b (the left
rule), and the inputs compose from iR(x) (iR(x) = iL(a_1),
iR(a_i) = iL(a_{i+1})) and end at iR(y) (iR(a_k) = iR(y), or
iR(x) = iR(y) when k = 0; the right rule).  checked_table refuses an
entry that breaks either rule, and every table the library builds keeps
both.

Tables must be bounded: K denotes the largest input arity carrying a
nonzero entry.  With A1 an honest DGA the structure relation

    (mu_1 x I) o D_1 + (mu_2 x I) o D_2 + D_1 o (I x m) = 0

(m the tensor-algebra differential on inputs: entrywise differentials
plus adjacent products) vanishes identically in arity n > 2K, because
D_1 dies above arity K, D_2 needs two chunks of arity <= K, and the
m-term shortens or preserves sequences.  check_structure computes the
relation at every arity at once, as a table in the morphism complex; the
2K bound delimits the positions where it can be nonzero, which is the
range its `tested` count covers.

homology reads the arity-zero part of a morphism complex Mor(P, M)
through the morphisms module's coordinate_system and differential.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping
from weakref import WeakKeyDictionary

from . import f2
from .errors import IdempotentMismatch, NotAComplex, UnknownSymbol
from .strands import DGAlgebra, group_index, sorted_index

# table value: frozenset of (A1 basis index, generator index)
Span = frozenset
Key = tuple[int, tuple[int, ...]]
Coord = tuple[int, tuple[int, ...], tuple[int, int]]  # (x, seq, (b, y))


@dataclass(frozen=True)
class BimodGenerator:
    name: str
    left: int   # idempotent basis index in A1
    right: int  # idempotent basis index in A2


class shared_index(cached_property):
    """A cached_property of the table alone, computed once for every
    DATable built on the same table object."""

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        shared = obj._indexes
        if self.attrname not in shared:
            shared[self.attrname] = self.func(obj)
        obj.__dict__[self.attrname] = shared[self.attrname]
        return shared[self.attrname]


class DATable:
    """A finitely supported table (generator x, A2 sequence) -> sums of
    (b, y) from source to target: the shape shared by a bimodule's
    structure map and by a morphism of bimodules.  Zero entries are
    dropped on construction; a DATable given as the table is shared,
    with its shared_index values: entries_by_generator, input_prefixes,
    and the morphism differential's two mu_2 joins (after, before) with
    their inverses.  A join reads the left algebra, yet is an index of
    the table alone: every table is read over one left algebra (DATables
    sharing a table object share it).  A join holds ints and tuples only,
    never the algebra, so identity_bimodule's per-algebra table does not
    keep its algebra alive."""

    def __init__(self, table: Mapping[Key, Span] | DATable, label: str = ""):
        self.label = label
        if isinstance(table, DATable):
            self.table, self._indexes = table.table, table._indexes
            self.arity_bound = table.arity_bound
            return
        self.table, self._indexes = {k: v for k, v in table.items() if v}, {}
        self.arity_bound = max((len(seq) for _, seq in self.table), default=0)

    def entry(self, x: int, seq: tuple[int, ...]) -> Span:
        return self.table.get((x, seq), frozenset())

    def coords(self) -> Iterable[Coord]:
        """Each (x, seq, (b, y)) with b (x) y in the entry at (x, seq)."""
        return ((x, seq, out) for (x, seq), outs in self.table.items()
                for out in outs)

    @shared_index
    def entries_by_generator(self) -> dict[int, tuple]:
        """x -> (seq, outputs) pairs."""
        return sorted_index((x, (seq, outs))
                            for (x, seq), outs in self.table.items())

    @shared_index
    def input_prefixes(self) -> dict[tuple[int, ...], bool]:
        """Each prefix of an input sequence (the empty one too) -> whether
        it is proper: the chains a box tensor walk may feed this table."""
        seqs = {seq for _, seq in self.table}
        proper = {seq[:k] for seq in seqs for k in range(len(seq))}
        return {**dict.fromkeys(seqs, False), **dict.fromkeys(proper, True)}

    @shared_index
    def after(self) -> dict[tuple[int, int], tuple]:
        """(b, y) -> (s, t, z) for each entry c (x) z at (y, s) and each
        t in b.c: mu_2< H then D1_N > with this table as N."""
        A1 = self.source.left_algebra
        by_output = group_index((c, (y, s, z)) for (y, s), outs
                                in self.table.items() for c, z in outs)
        if not by_output:
            return {}
        return sorted_index(((b, y), (s, t, z)) for b in range(A1.size)
                            for c, bc in A1.row(b).items()
                            for y, s, z in by_output.get(c, ())
                            for t in bc)

    @shared_index
    def before(self) -> dict[tuple[int, int], tuple]:
        """(x, b) -> (x0, s, t) for each entry c (x) x at (x0, s) and each
        t in c.b: mu_2< D1_M then H > with this table as M."""
        A1 = self.source.left_algebra
        return sorted_index(((x, b), (x0, s, t))
                            for (x0, s), outs in self.table.items()
                            for c, x in outs
                            for b, cb in A1.row(c).items() for t in cb)

    @shared_index
    def after_inverse(self) -> dict[tuple, tuple]:
        """(s, t, z) -> (b, y): the transpose of after."""
        return sorted_index((term, by) for by, terms in self.after.items()
                            for term in terms)

    @shared_index
    def before_inverse(self) -> dict[tuple, tuple]:
        """(x0, s, t) -> (x, b): the transpose of before."""
        return sorted_index((term, xb) for xb, terms in self.before.items()
                            for term in terms)


def toggle(parity: set, term) -> None:
    """Add term to a GF(2) sum held as a set, or cancel it there."""
    if term in parity:
        parity.remove(term)
    else:
        parity.add(term)


def table_of(coords: Iterable[Coord]) -> dict[Key, Span]:
    """The frozen table of a GF(2) parity set of (x, seq, (b, y))
    coordinates (no coordinate twice)."""
    return {k: frozenset(v) for k, v in
            group_index(((x, seq), out) for x, seq, out in coords).items()}


class TypeDABimodule(DATable):
    """Immutable type DA bimodule; build with make_bimodule."""

    def __init__(self, left_algebra: DGAlgebra, right_algebra: DGAlgebra,
                 gens: tuple[BimodGenerator, ...],
                 d1: Mapping[Key, Span], label: str = ""):
        super().__init__(d1, label)
        self.left_algebra = left_algebra
        self.right_algebra = right_algebra
        self.gens = gens
        self._gen_index = {g.name: i for i, g in enumerate(gens)}

    @property
    def d1(self) -> dict[Key, Span]:
        """The structure table D_1."""
        return self.table

    @property
    def size(self) -> int:
        return len(self.gens)

    def gen_index(self, name: str) -> int:
        return self._gen_index[name]

    # the structure table read as a table from self to itself
    source = target = property(lambda self: self)

    @cached_property
    def box_products(self) -> WeakKeyDictionary:
        """M -> weak reference to the live box product self . M, kept by
        boxes.box_bimodules."""
        return WeakKeyDictionary()

    @cached_property
    def is_unit(self) -> bool:
        """True when self is I(A) exactly: same_shape with
        identity_bimodule(A), whose results are marked units (boxes reads
        this)."""
        from .morphisms import same_shape
        A = self.left_algebra
        return (A is self.right_algebra and self.size == len(A.idempotents)
                and same_shape(self, identity_bimodule(A)))

    @cached_property
    def strictly_unital(self) -> bool:
        """True when D1(x, [iR(x)]) = iL(x) (x) x for every generator x
        and no other entry has an idempotent input.  Then I . id_M is
        the identity of self . M for every M (boxes reads this)."""
        unit = {(x, (g.right,)): frozenset(((g.left, x),))
                for x, g in enumerate(self.gens)}
        idems = set(self.right_algebra.idempotents)
        return (all(self.table.get(k) == v for k, v in unit.items())
                and all(k in unit or idems.isdisjoint(k[1])
                        for k in self.table))

    def __repr__(self):
        tag = self.label or f"{self.size} generators"
        return f"TypeDABimodule({tag}, K={self.arity_bound})"


def sandwiched(A: DGAlgebra, i: int, b: int, j: int) -> bool:
    """True when i . b . j = b: an output b (x) y at x is legal exactly
    when this holds for i = iL(x), j = iL(y).  Read off A's idempotent
    indices: with orthogonal idempotents and b = iL(b) . b . iR(b) (see
    DGAlgebra), i . b . j is b when i = iL(b) and j = iR(b), else 0."""
    return A.left_idem[b] == i and A.right_idem[b] == j


def named_entry(M: TypeDABimodule, N: TypeDABimodule, x: int,
                seq: tuple[int, ...], outs: Iterable) -> tuple:
    """An entry (x, seq) -> outs of a table from M to N, by name: the
    generator, the input names and the sorted terms `b : y`."""
    A1 = M.left_algebra
    return (M.gens[x].name, tuple(M.right_algebra.name(a) for a in seq),
            tuple(sorted(f"{A1.name(b)} : {N.gens[y].name}"
                         for b, y in outs)))


def first_entry(M: TypeDABimodule, N: TypeDABimodule,
                table: Mapping[Key, Span]) -> tuple | None:
    """The entry of a table from M to N with the fewest inputs, then the
    least (generator, inputs), by name; None for an empty table."""
    if not table:
        return None
    x, seq = min(table, key=lambda k: (len(k[1]), k))
    return named_entry(M, N, x, seq, table[x, seq])


def checked_table(A1: DGAlgebra, A2: DGAlgebra,
                  source_gens: tuple[BimodGenerator, ...],
                  target_gens: tuple[BimodGenerator, ...],
                  table: Mapping[Key, Iterable[tuple[int, int]]]
                  ) -> dict[Key, Span]:
    """Screen a table's indices and both idempotent rules (see the module
    docstring) on its nonzero entries; returns it with frozen keys and
    outputs and without zero entries."""
    def mismatch(what: str, side: str) -> IdempotentMismatch:
        return IdempotentMismatch(
            f"{what} at ({source_gens[x].name}, arity {len(seq)}) "
            f"violates {side}-idempotent compatibility")

    clean: dict[Key, Span] = {}
    n1, n2, n_x, n_y = A1.size, A2.size, len(source_gens), len(target_gens)
    for (x, seq), outs in table.items():
        if not (0 <= x < n_x):
            raise UnknownSymbol(f"unknown source generator index {x}")
        seq, outs = tuple(seq), frozenset(map(tuple, outs))
        end = source_gens[x].right  # where the inputs so far end
        for a in seq:
            if not (0 <= a < n2):
                raise UnknownSymbol(f"unknown right-algebra index {a}")
            if outs and A2.left_idem[a] != end:
                raise mismatch(f"input {A2.name(a)}", "right")
            end = A2.right_idem[a]
        for b, y in outs:
            if not (0 <= b < n1):
                raise UnknownSymbol(f"unknown left-algebra index {b}")
            if not (0 <= y < n_y):
                raise UnknownSymbol(f"unknown target generator index {y}")
            if not sandwiched(A1, source_gens[x].left, b,
                              target_gens[y].left):
                side = "left"
            elif target_gens[y].right != end:
                side = "right"
            else:
                continue
            raise mismatch(f"output {A1.name(b)} : {target_gens[y].name}",
                           side)
        if outs:
            clean[(x, seq)] = outs
    return clean


def checked_gens(A1: DGAlgebra, A2: DGAlgebra,
                 gens: Iterable[tuple[str, int, int]]
                 ) -> tuple[BimodGenerator, ...]:
    """Screen (name, left, right) generators: idempotents of A1 and A2,
    and no name twice."""
    gen_tuple = []
    for name, left, right in gens:
        if not (0 <= left < A1.size) or not A1.is_idempotent(left):
            raise UnknownSymbol(f"left idempotent of {name} is not an "
                                f"idempotent of the left algebra")
        if not (0 <= right < A2.size) or not A2.is_idempotent(right):
            raise UnknownSymbol(f"right idempotent of {name} is not an "
                                f"idempotent of the right algebra")
        gen_tuple.append(BimodGenerator(name, left, right))
    if len({g.name for g in gen_tuple}) != len(gen_tuple):
        raise UnknownSymbol("duplicate generator name")
    return tuple(gen_tuple)


def make_bimodule(A1: DGAlgebra, A2: DGAlgebra,
                  gens: Iterable[tuple[str, int, int]],
                  d1: Mapping[Key, Iterable[tuple[int, int]]],
                  label: str = "") -> TypeDABimodule:
    """Construct a bimodule, screening indices and idempotent compatibility.

    The structure relation is NOT verified here; call check_structure.
    """
    gen_tuple = checked_gens(A1, A2, gens)
    table = checked_table(A1, A2, gen_tuple, gen_tuple, d1)
    return TypeDABimodule(A1, A2, gen_tuple, table, label=label)


def compute_Dn(M: TypeDABimodule, x: int, seq: tuple[int, ...],
               n: int) -> frozenset:
    """The n-fold structure map as a set of (A1 chain, generator) pairs.

    Implements the recursion exactly: D_1 is the stored table and
    D_n(x, a_1..a_i) sums (I x D_1)(D_{n-1}(x, a_1..a_j), a_{j+1}..a_i)
    over all split points j, empty chunks included.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return frozenset(((b,), y) for b, y in M.entry(x, seq))
    out: set = set()
    for j in range(len(seq) + 1):
        for chain, y in compute_Dn(M, x, seq[:j], n - 1):
            for b, z in M.entry(y, seq[j:]):
                out ^= {(chain + (b,), z)}
    return frozenset(out)


@dataclass(frozen=True)
class StructureReport:
    label: str
    passed: bool
    max_arity: int
    complete: bool
    restricted_to_chained: bool  # always true (see check_structure)
    tested: int
    witness: tuple | None  # (generator name, sequence names, defect names)

    def payload(self) -> dict:
        return {
            "label": self.label,
            "passed": self.passed,
            "max_arity": self.max_arity,
            "complete": self.complete,
            "restricted_to_chained": self.restricted_to_chained,
            "tested": self.tested,
            "witness": list(self.witness) if self.witness else None,
        }


def _positions(M: TypeDABimodule, bound: int) -> int:
    """Input positions of arity <= bound whose inputs compose from the
    generator's right idempotent: the only ones a table can read."""
    A2 = M.right_algebra
    walks = [1] * A2.size  # chained sequences of length k from each state
    total = 0
    for _ in range(bound + 1):
        total += sum(walks[g.right] for g in M.gens)
        nxt = [0] * A2.size
        for a in range(A2.size):
            nxt[A2.left_idem[a]] += walks[A2.right_idem[a]]
        walks = nxt
    return total


def check_structure(M: TypeDABimodule) -> StructureReport:
    """Evaluate the structure relation at every arity.

    Read D_1 as a morphism D from M to itself.  The relation is then
    d(D) + D o D = 0 in the morphism complex.  Both mu_2 terms of d(D),
    and D o D = (mu_2 x I) o D_2, are the one sum mu_2< D, D > over
    chained pairs of entries, so over GF(2) the relation is d(D) less its
    mu_2< D1_M then D > term.  Its terms are toggled into one parity set,
    cancelling as they meet; the survivors are the failing positions, and
    a failing report carries the canonically first.  `tested` counts the
    positions of arity <= 2K where the relation can be nonzero (see the
    module docstring) whose inputs compose: each term of the relation
    reads entries and products that keep both idempotent rules, so it
    vanishes elsewhere, and the report is always restricted_to_chained.
    """
    from .morphisms import toggle_images
    acc = toggle_images(M, M, M.coords(), before=False)
    witness = first_entry(M, M, table_of(acc))
    bound = 2 * M.arity_bound
    return StructureReport(M.label, witness is None, bound, True, True,
                           _positions(M, bound), witness)


# A -> (gens, bare table) of I(A); neither refers to A, so A can be freed
_UNIT_PARTS: WeakKeyDictionary = WeakKeyDictionary()


def identity_bimodule(A: DGAlgebra, label: str = "") -> TypeDABimodule:
    """The bimodule of A over itself: one generator per elementary
    idempotent i, with D_1(i, [a]) = a (x) i' exactly when i.a.i' = a,
    that is (see sandwiched) for i = iL(a) and i' = iR(a).  Its gens and
    checked table are built once per algebra; every call wraps them."""
    if A not in _UNIT_PARTS:
        gens = checked_gens(A, A, [(A.name(i), i, i) for i in A.idempotents])
        pos = {i: k for k, i in enumerate(A.idempotents)}
        d1 = {(pos[A.left_idem[a]], (a,)): [(a, pos[A.right_idem[a]])]
              for a in range(A.size)}
        _UNIT_PARTS[A] = gens, DATable(checked_table(A, A, gens, gens, d1))
    gens, table = _UNIT_PARTS[A]
    unit = TypeDABimodule(A, A, gens, table,
                          label=label or f"I({A.label or 'A'})")
    unit.is_unit = True
    return unit


def homology(M: TypeDABimodule) -> int:
    """Homology dimension of the arity-0 coordinates (p, (), (b, y)) of
    Mor(P, M), P the entry-free bimodule with one generator p = iL(b) per
    idempotent of A1: d(b, y) = (db, y) + b.D_1(y, []).  Against M's
    input-free entries d keeps arity 0, so the sorted coordinates index
    its rows and columns alike.  Raises NotAComplex unless d.d = 0,
    naming M and the first coordinate b : y with d.d(b, y) != 0."""
    from .morphisms import coordinate_system, toggle_images
    A1, A2 = M.left_algebra, M.right_algebra
    P = TypeDABimodule(A1, A2, tuple(
        BimodGenerator(A1.name(i), i, A2.idempotents[0])
        for i in A1.idempotents), {})
    M0 = TypeDABimodule(A1, A2, M.gens,
                        {k: v for k, v in M.table.items() if not k[1]})
    p_of = {i: p for p, i in enumerate(A1.idempotents)}
    y_at = group_index((g.left, y) for y, g in enumerate(M.gens))
    coords = sorted((p_of[A1.left_idem[b]], (), (b, y))
                    for b in range(A1.size)
                    for y in y_at.get(A1.right_idem[b], ()))
    d, _ = coordinate_system(coords, lambda e: (e,),
                             lambda u: toggle_images(P, M0, (u,)))
    try:
        return f2.homology_dim(d, d)
    except NotAComplex:
        _, _, (b, y) = coords[min(c for _, c in (d @ d).entries)]
        raise NotAComplex(f"homology of {M.label}: d.d is nonzero at "
                          f"{A1.name(b)} : {M.gens[y].name}") from None
