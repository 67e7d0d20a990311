"""Morphisms of type DA bimodules and their chain complex.

A morphism from M to N (both over the same algebra pair) is a finitely
supported table

    F : (generator x of M, sequence over A2) -> sums of (b, y)

with b an A1 basis element and y a generator of N, subject to the same
left-idempotent compatibility as a structure table.  Unclosed tables are
legal values: they serve as homotopies.

With A1 an honest DGA the differential of the morphism complex collapses
to four kinds of terms:

    (dH)(x, a)  =  (d_A1 x I) H(x, a)
                + sum over splittings a = a1 a2 of  mu_2< H(x, a1) then D1_N(., a2) >
                + sum over splittings of            mu_2< D1_M(x, a1) then H(., a2) >
                + sum_k H(x, a with d applied to the k-th entry)
                + sum_k H(x, a with entries k, k+1 multiplied)

where < b (x) y then Phi > applies Phi to y and the remaining inputs and
multiplies the A1 outputs in order, and empty chunks are included in all
splittings.  dH is supported in arity <= L + K + 1 for H of arity <= L
over bimodules of arity bound <= K, so closedness is decidable.

Homotopy search is capped: is_homotopic(F, G, cap) decides exactly
whether some H of arity <= cap solves dH = F + G.  The linear system is
restricted to the connected components (in the unknown/equation incidence
graph of d) that meet the support of F + G; any solution projects onto
those components, so the restriction loses nothing.  Found witnesses are
re-verified bit-exactly; "not within cap" is an outcome, not a fault, and
says nothing about larger homotopies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping

from . import f2
from .bimodules import (BimodGenerator, Coord, DATable, Key, Span,
                        TypeDABimodule, checked_table, first_entry, homology,
                        table_of, toggle)
from .errors import BimoduleMismatch, NotClosed


def same_shape(P: TypeDABimodule, Q: TypeDABimodule) -> bool:
    """Structural equality: same algebras, idempotents and index tables.

    Generator names are labels only; two bimodules with equal index data
    are interchangeable everywhere.  Tables are compared by object
    first, so a product read off a unit factor (see boxes) matches that
    factor at once.
    """
    return P is Q or (P.left_algebra is Q.left_algebra
                      and P.right_algebra is Q.right_algebra
                      and len(P.gens) == len(Q.gens)
                      and all(p.left == q.left and p.right == q.right
                              for p, q in zip(P.gens, Q.gens))
                      and (P.table is Q.table or P.table == Q.table))


class DAMorphism(DATable):
    """A morphism-shaped table from M to N; build with make_morphism."""

    def __init__(self, source: TypeDABimodule, target: TypeDABimodule,
                 table: Mapping[Key, Span], label: str = ""):
        super().__init__(table, label)
        self.source = source
        self.target = target

    def __add__(self, other: "DAMorphism") -> "DAMorphism":
        if not (same_shape(self.source, other.source)
                and same_shape(self.target, other.target)):
            raise BimoduleMismatch("cannot add morphisms of different shapes")
        table = dict(self.table)
        for k, v in other.table.items():
            table[k] = table.get(k, frozenset()) ^ v
        return DAMorphism(self.source, self.target, table)

    def __bool__(self) -> bool:
        return bool(self.table)

    def __eq__(self, other) -> bool:
        return (isinstance(other, DAMorphism)
                and same_shape(self.source, other.source)
                and same_shape(self.target, other.target)
                and self.table == other.table)

    def __repr__(self):
        tag = self.label or f"{len(self.table)} entries"
        return f"DAMorphism({tag}, L={self.arity_bound})"


def make_morphism(M: TypeDABimodule, N: TypeDABimodule,
                  table: Mapping[Key, Iterable[tuple[int, int]]],
                  label: str = "") -> DAMorphism:
    if M.left_algebra is not N.left_algebra or \
            M.right_algebra is not N.right_algebra:
        raise BimoduleMismatch("source and target live over different algebras")
    clean = checked_table(M.left_algebra, M.right_algebra, M.gens, N.gens,
                          table)
    return DAMorphism(M, N, clean, label=label)


def zero_morphism(M: TypeDABimodule, N: TypeDABimodule) -> DAMorphism:
    return DAMorphism(M, N, {}, label="0")


def identity_morphism(M: TypeDABimodule) -> DAMorphism:
    """F(x, []) = iL(x) (x) x, all other entries zero."""
    table = {(x, ()): frozenset(((M.gens[x].left, x),))
             for x in range(M.size)}
    return DAMorphism(M, M, table, label=f"id[{M.label}]")


# --- the differential ----------------------------------------------------

def toggle_image_except_before(M: TypeDABimodule, N: TypeDABimodule,
                               x: int, seq: tuple[int, ...], b: int, y: int,
                               acc: set) -> None:
    """Toggle into acc the terms of d of the coordinate (x, seq) -> (b, y)
    other than mu_2< D1_M then H >: d on b, mu_2< H then D1_N >, and d or
    a product on the inputs."""
    A1, A2 = M.left_algebra, M.right_algebra
    for t in A1.d(b):
        toggle(acc, (x, seq, (t, y)))
    after = N.entries_by_source_term
    for c, bc in A1.row(b).items():
        for seq2, z in after.get((y, c), ()):
            for t in bc:
                toggle(acc, (x, seq + seq2, (t, z)))
    codiff = A2.codiff_index
    for k, u in enumerate(seq):
        for a in codiff.get(u, ()):
            toggle(acc, (x, seq[:k] + (a,) + seq[k + 1:], (b, y)))
    coprod = A2.coproduct_index
    for k, w in enumerate(seq):
        for u, v in coprod.get(w, ()):
            toggle(acc, (x, seq[:k] + (u, v) + seq[k + 1:], (b, y)))


def _coord_image(M: TypeDABimodule, N: TypeDABimodule,
                 x: int, seq: tuple[int, ...], b: int, y: int) -> set:
    """d of the single-coordinate table (x, seq) -> (b, y), as a parity
    set of (x', seq', (t, z)) coordinates.  The two mu_2 terms run over
    the nonzero products b.c and c.b only."""
    acc: set[Coord] = set()
    toggle_image_except_before(M, N, x, seq, b, y, acc)
    before = M.entries_by_target_term
    for c, cb in M.left_algebra.products_by_right.get(b, ()):
        for x0, seq0 in before.get((x, c), ()):
            for t in cb:
                toggle(acc, (x0, seq0 + seq, (t, y)))
    return acc


def morphism_differential(H: DAMorphism) -> DAMorphism:
    """The morphism-complex differential of H (an unclosed table is fine)."""
    M, N = H.source, H.target
    acc: set[Coord] = set()
    for (x, seq), outs in H.table.items():
        for b, y in outs:
            acc ^= _coord_image(M, N, x, seq, b, y)
    return DAMorphism(M, N, table_of(acc),
                      label=f"d({H.label})" if H.label else "")


@dataclass(frozen=True)
class Closedness:
    closed: bool
    witness: tuple | None  # (generator, sequence names, defect names)

    def __bool__(self) -> bool:
        return self.closed


def is_closed(F: DAMorphism) -> Closedness:
    """dF = 0 at every arity (complete by boundedness of the tables);
    proved at the first call and kept on F, whose table never changes."""
    if "_closedness" not in F.__dict__:
        witness = first_entry(F.source, F.target,
                              morphism_differential(F).table)
        F._closedness = Closedness(witness is None, witness)
    return F._closedness


def compose(G: DAMorphism, F: DAMorphism) -> DAMorphism:
    """(G o F)(x, a) = sum over splittings of mu_2< F(x, a1) then G(., a2) >."""
    if not same_shape(F.target, G.source):
        raise BimoduleMismatch("target of F differs from source of G")
    A1 = F.source.left_algebra
    acc: set[Coord] = set()
    g_entries = G.entries_by_generator
    for (x, seq1), outs1 in F.table.items():
        for b, y in outs1:
            for seq2, outs2 in g_entries.get(y, ()):
                for c, z in outs2:
                    for t in A1.product(b, c):
                        toggle(acc, (x, seq1 + seq2, (t, z)))
    return DAMorphism(F.source, G.target, table_of(acc))


# --- homotopy search ------------------------------------------------------

@dataclass(frozen=True)
class HomotopyWitness:
    h: DAMorphism
    cap: int

    def __bool__(self) -> bool:
        return True


@dataclass(frozen=True)
class NotWithinCap:
    cap: int

    def __bool__(self) -> bool:
        return False


def _candidate_unknowns(M: TypeDABimodule, N: TypeDABimodule,
                        e: Coord, cap: int) -> list[Coord]:
    """Unknown coordinates of arity <= cap whose d-image can touch
    equation e (a superset; exact parities come from _coord_image on the
    forward pass).  Each term of d is tried only at the lengths where its
    unknown has arity <= cap and its table entry arity <= the table's
    bound."""
    A1, A2 = M.left_algebra, M.right_algebra
    x, seq, (t, z) = e
    n = len(seq)
    out = []
    if n <= cap:
        for b in A1.codiff_index.get(t, ()):
            out.append((x, seq, (b, z)))
        for k, a in enumerate(seq):
            for u in A2.d(a):
                out.append((x, seq[:k] + (u,) + seq[k + 1:], (t, z)))
    if n <= cap + 1:
        for k in range(n - 1):
            for w in A2.product(seq[k], seq[k + 1]):
                out.append((x, seq[:k] + (w,) + seq[k + 2:], (t, z)))
    by_seq_N = N.entries_by_sequence
    left_fac = A1.left_factor_index
    for j in range(max(0, n - N.arity_bound), min(n, cap) + 1):
        for y, outs2 in by_seq_N.get(seq[j:], ()):
            for c, z2 in outs2:
                if z2 == z:
                    for b in left_fac.get((t, c), ()):
                        out.append((x, seq[:j], (b, y)))
    right_fac = A1.right_factor_index
    for j in range(max(0, n - cap), min(n, M.arity_bound) + 1):
        for c, x2 in M.entry(x, seq[:j]):
            for b in right_fac.get((t, c), ()):
                out.append((x2, seq[j:], (b, z)))
    left, right = A1.left_idem, A1.right_idem
    return [u for u in out if left[u[2][0]] == M.gens[u[0]].left
            and right[u[2][0]] == N.gens[u[2][1]].left]


def coordinate_system(seeds: list, candidates: Callable[[Any], Iterable],
                      image: Callable[[Any], Iterable]
                      ) -> tuple[f2.F2Matrix, list]:
    """The linear system of the components that meet the seed equations:
    from the seeds, every candidate unknown of a new equation (a superset
    of the unknowns whose image contains it) is an unknown, and every
    equation in a new unknown's image is a new equation.  Equations are
    numbered as first met, the seeds (rows 0..) first; each image is kept
    as its row numbers, and the equation-to-row map is dropped once every
    row is numbered.  Returns the matrix and its columns, the unknowns in
    sorted order.
    """
    row = {e: i for i, e in enumerate(seeds)}
    images: dict[Any, list[int] | None] = {}
    frontier = seeds
    while frontier:
        new_unknowns = []
        for e in frontier:
            for u in candidates(e):
                if u not in images:
                    images[u] = None
                    new_unknowns.append(u)
        frontier = []
        for u in new_unknowns:
            rows = images[u] = []
            for e in image(u):
                r = row.get(e)
                if r is None:
                    r = row[e] = len(row)
                    frontier.append(e)
                rows.append(r)
    lines: list[list[int]] = [[] for _ in range(len(row))]
    del row
    unknowns = sorted(images)
    for col, u in enumerate(unknowns):
        for r in images.pop(u):
            lines[r].append(col)
    return f2.F2Matrix.from_rows(len(unknowns), lines), unknowns


def is_homotopic(F: DAMorphism, G: DAMorphism,
                 cap: int) -> HomotopyWitness | NotWithinCap:
    """Search for H with dH = F + G over all tables of arity <= cap.

    Preconditions: same source and target shapes, F and G closed.  On
    success the witness has been re-verified bit-exactly at all arities;
    NotWithinCap means no witness of arity <= cap exists and is not a
    proof of non-homotopy.  The system is coordinate_system's closure
    from the coordinates of F + G, with _candidate_unknowns and
    _coord_image as its incidences, handed to f2.solve as row lists.  The
    witness is the unique solution that is zero on every non-pivot
    unknown, with the unknowns in sorted coordinate order; it does not
    depend on the order of the equations.
    """
    if cap < 0:
        raise ValueError(f"cap must be >= 0, got {cap}")
    if not (same_shape(F.source, G.source)
            and same_shape(F.target, G.target)):
        raise BimoduleMismatch("morphisms do not share source and target")
    for name, Fi in (("first", F), ("second", G)):
        if not is_closed(Fi):
            raise NotClosed(f"{name} morphism is not closed")
    M, N = F.source, F.target
    rhs = (F + G).table
    if not rhs:
        return HomotopyWitness(zero_morphism(M, N), cap)

    seeds = [(x, seq, out) for (x, seq), outs in rhs.items()
             for out in outs]
    matrix, un_list = coordinate_system(
        seeds, lambda e: _candidate_unknowns(M, N, e, cap),
        lambda u: _coord_image(M, N, u[0], u[1], *u[2]))
    solution = f2.solve(matrix, f2.F2Vector(frozenset(range(len(seeds)))))
    if solution is None:
        return NotWithinCap(cap)

    witness = DAMorphism(M, N, table_of(un_list[col]
                                        for col in solution.support))
    if morphism_differential(witness).table != rhs:
        raise AssertionError("homotopy witness failed bit-exact re-check")
    return HomotopyWitness(witness, cap)


# --- mapping cone and naive quasi-isomorphism ----------------------------

def mapping_cone(F: DAMorphism) -> TypeDABimodule:
    """The cone of F: M -> N, on M's generators then N's, renamed M.x and
    N.y so that no two names are equal, with table D1_M + D1_N + F.  Its
    structure relation is M's, N's and dF."""
    M, N, m = F.source, F.target, F.source.size
    gens = tuple(BimodGenerator(f"{side}.{g.name}", g.left, g.right)
                 for side, P in (("M", M), ("N", N)) for g in P.gens)
    table = {(m + y, seq): frozenset((b, m + z) for b, z in outs)
             for (y, seq), outs in N.table.items()}
    table.update(M.table)
    for (x, seq), outs in F.table.items():
        table[x, seq] = M.entry(x, seq) | {(b, m + y) for b, y in outs}
    return TypeDABimodule(M.left_algebra, M.right_algebra, gens, table,
                          f"cone({F.label})")


def is_naive_quasi_iso(F: DAMorphism) -> bool:
    """True iff the arity-zero part of F is a quasi-isomorphism.

    That part sends b (x) x to sum mu_2(b, b') (x) y over
    F(x, []) = sum b' (x) y; being closed, it is a chain map, and it is a
    quasi-isomorphism iff its mapping cone is acyclic, which is the
    arity-zero complex of mapping_cone(F).  This is a deliberately weak
    stand-in for quasi-isomorphism (it sees only the input-free part of
    the structure); every report built on it is labelled naive.
    """
    if not is_closed(F):
        raise NotClosed("is_naive_quasi_iso requires a closed morphism")
    return homology(mapping_cone(F)) == 0
