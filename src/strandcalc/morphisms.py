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
from typing import Iterable, Mapping

from . import f2
from .bimodules import (DATable, Key, Span, TypeDABimodule,
                        arity_zero_complex, checked_table, first_entry)
from .errors import BimoduleMismatch, NotClosed

Coord = tuple[int, tuple[int, ...], tuple[int, int]]


def same_shape(P: TypeDABimodule, Q: TypeDABimodule) -> bool:
    """Structural equality: same algebras, idempotents and index tables.

    Generator names are labels only; two bimodules with equal index data
    are interchangeable everywhere.
    """
    return P is Q or (P.left_algebra is Q.left_algebra
                      and P.right_algebra is Q.right_algebra
                      and len(P.gens) == len(Q.gens)
                      and all(p.left == q.left and p.right == q.right
                              for p, q in zip(P.gens, Q.gens))
                      and P.d1 == Q.d1)


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

def _toggle(parity: set, term) -> None:
    """Add term to a GF(2) sum held as a set, or cancel it there."""
    if term in parity:
        parity.remove(term)
    else:
        parity.add(term)


def _coord_image(M: TypeDABimodule, N: TypeDABimodule,
                 x: int, seq: tuple[int, ...], b: int, y: int) -> set:
    """d of the single-coordinate table (x, seq) -> (b, y), as a parity
    set of (x', seq', (t, z)) coordinates.  The two mu_2 terms run over
    the nonzero products b.c and c.b only."""
    A1, A2 = M.left_algebra, M.right_algebra
    acc: set[Coord] = set()
    for t in A1.d(b):
        _toggle(acc, (x, seq, (t, y)))
    after = N.entries_by_source_term
    for c, bc in A1.products_by_left.get(b, ()):
        for seq2, z in after.get((y, c), ()):
            for t in bc:
                _toggle(acc, (x, seq + seq2, (t, z)))
    before = M.entries_by_target_term
    for c, cb in A1.products_by_right.get(b, ()):
        for x0, seq0 in before.get((x, c), ()):
            for t in cb:
                _toggle(acc, (x0, seq0 + seq, (t, y)))
    codiff = A2.codiff_index
    for k, u in enumerate(seq):
        for a in codiff.get(u, ()):
            _toggle(acc, (x, seq[:k] + (a,) + seq[k + 1:], (b, y)))
    coprod = A2.coproduct_index
    for k, w in enumerate(seq):
        for u, v in coprod.get(w, ()):
            _toggle(acc, (x, seq[:k] + (u, v) + seq[k + 1:], (b, y)))
    return acc


def morphism_differential(H: DAMorphism) -> DAMorphism:
    """The morphism-complex differential of H (an unclosed table is fine)."""
    M, N = H.source, H.target
    acc: dict[Key, set] = {}
    for (x, seq), outs in H.table.items():
        for b, y in outs:
            for (x2, seq2, out) in _coord_image(M, N, x, seq, b, y):
                _toggle(acc.setdefault((x2, seq2), set()), out)
    table = {k: frozenset(v) for k, v in acc.items() if v}
    return DAMorphism(M, N, table, label=f"d({H.label})" if H.label else "")


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
    acc: dict[Key, set] = {}
    g_entries = G.entries_by_generator
    for (x, seq1), outs1 in F.table.items():
        for b, y in outs1:
            for seq2, outs2 in g_entries.get(y, ()):
                for c, z in outs2:
                    for t in A1.product(b, c):
                        _toggle(acc.setdefault((x, seq1 + seq2), set()),
                                (t, z))
    table = {k: frozenset(v) for k, v in acc.items() if v}
    return DAMorphism(F.source, G.target, table)


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


def is_homotopic(F: DAMorphism, G: DAMorphism,
                 cap: int) -> HomotopyWitness | NotWithinCap:
    """Search for H with dH = F + G over all tables of arity <= cap.

    Preconditions: same source and target shapes, F and G closed.  On
    success the witness has been re-verified bit-exactly at all arities;
    NotWithinCap means no witness of arity <= cap exists and is not a
    proof of non-homotopy.  The witness is the unique solution that is
    zero on every non-pivot unknown, with the unknowns in sorted
    coordinate order; it does not depend on the order of the equations.
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

    # equations are numbered as first met, the seeds (rows 0..) first
    seeds = [(x, seq, out) for (x, seq), outs in rhs.items()
             for out in outs]
    row = {e: i for i, e in enumerate(seeds)}
    unknowns: dict[Coord, set | None] = {}
    frontier_eq = seeds
    while frontier_eq:
        new_unknowns = []
        for e in frontier_eq:
            for u in _candidate_unknowns(M, N, e, cap):
                if u not in unknowns:
                    unknowns[u] = None
                    new_unknowns.append(u)
        frontier_eq = []
        for u in new_unknowns:
            x, seq, (b, y) = u
            image = unknowns[u] = _coord_image(M, N, x, seq, b, y)
            for e in image:
                if e not in row:
                    row[e] = len(row)
                    frontier_eq.append(e)

    un_list = sorted(unknowns)
    matrix = f2.F2Matrix(len(row), len(un_list), frozenset(
        (row[e], col) for col, u in enumerate(un_list)
        for e in unknowns.pop(u)))
    solution = f2.solve(matrix, f2.F2Vector(frozenset(range(len(seeds)))))
    if solution is None:
        return NotWithinCap(cap)

    table: dict[Key, set] = {}
    for col in solution.support:
        x, seq, out = un_list[col]
        _toggle(table.setdefault((x, seq), set()), out)
    witness = DAMorphism(M, N, {k: frozenset(v) for k, v in table.items()})
    if morphism_differential(witness).table != rhs:
        raise AssertionError("homotopy witness failed bit-exact re-check")
    return HomotopyWitness(witness, cap)


# --- naive quasi-isomorphism ---------------------------------------------

def is_naive_quasi_iso(F: DAMorphism) -> bool:
    """True iff the arity-zero part of F is a quasi-isomorphism.

    That part sends b (x) x to sum mu_2(b, b') (x) y over
    F(x, []) = sum b' (x) y; being closed, it is a chain map, and it is a
    quasi-isomorphism iff its mapping cone is acyclic.  This is a
    deliberately weak stand-in for quasi-isomorphism (it sees only the
    input-free part of the structure); every report built on it is
    labelled naive.
    """
    if not is_closed(F):
        raise NotClosed("is_naive_quasi_iso requires a closed morphism")
    A1 = F.source.left_algebra
    basis_M, d_M = arity_zero_complex(F.source)
    basis_N, d_N = arity_zero_complex(F.target)
    n = len(basis_M)
    pos_N = {bx: n + i for i, bx in enumerate(basis_N)}
    f0: set = set()
    for col, (b, x) in enumerate(basis_M):
        for b2, y in F.entry(x, ()):
            for t in A1.product(b, b2):
                _toggle(f0, (pos_N[(t, y)], col))
    size = n + len(basis_N)
    cone = f2.F2Matrix(size, size, frozenset(
        d_M.entries | {(r + n, c + n) for r, c in d_N.entries} | f0))
    return f2.homology_dim(cone, cone) == 0
