"""Box tensor products of type DA bimodules and of their morphisms.

For N over (A1, A2) and M over (A2, A3), the product N . M is a bimodule
over (A1, A3).  Its generators are the idempotent-matched pairs (x, y)
(right idempotent of x = left idempotent of y), named x|y; pairs that do
not match are excluded.  Its structure table feeds M's outputs into N:

    D1((x, y), a) = sum over realizations of a as a chain:
        split a into consecutive (possibly empty) chunks, apply M's table
        to successive chunks starting at y, collect the A2 outputs
        c_1..c_i and the final generator y'; then look up N's table once
        at (x, (c_1..c_i)) and emit each output b (x) (x', y').

The i = 0 realization contributes N's input-free entries paired with y
unchanged.  Each walk follows only chains that are prefixes of N's input
sequences (any other chain and its extensions read zero), so it is finite
and visits nothing that N's table cannot read.

Morphisms tensor one side at a time: F . I consumes the whole M-chain in
a single application of F's table, and I . G routes the inputs through
M-iterates, exactly one application of G, then M'-iterates, feeding the
concatenated A2 chain into N's table once.  F . G is the composition
(I . G) o (F . I), matching the 2-functor conventions used elsewhere;
when G is an identity and F's target strictly unital, I . G is an
identity and F . G is F . I, one walk and no composition
(Lipshitz-Ozsvath-Thurston, arXiv:1003.0598).

I(A) is the unit of the product (same_shape with identity_bimodule(A)),
so a unit factor is read off, not walked.  A chained N . I(A), or
F . I(A), is built on N's (F's) own table object, indexes and verdicts;
I(A) . M, or I(A) . G, renumbers M's (G's) table, less the outputs that
are not sandwiched, which the walk reads as zero.
box_bimodules matches factors by object identity and returns the
product it built before from the same two objects while that product
is still alive, so each live product is built once.
"""

from __future__ import annotations

from weakref import ref

from .bimodules import (Coord, DATable, Key, Span, TypeDABimodule,
                        checked_gens, sandwiched, table_of, toggle)
from .errors import MiddleAlgebraMismatch
from .morphisms import DAMorphism, compose, identity_morphism


def _matched_pairs(N: TypeDABimodule,
                   M: TypeDABimodule) -> list[tuple[int, int]]:
    if N.right_algebra is not M.left_algebra:
        raise MiddleAlgebraMismatch(
            "right algebra of the left factor differs from the left "
            "algebra of the right factor")
    return [(i, j)
            for i in range(N.size) for j in range(M.size)
            if N.gens[i].right == M.gens[j].left]


def _chain_states(M: TypeDABimodule, start: int, prefixes: dict,
                  seq: tuple = (), chain: tuple = ()):
    """The (generator, consumed inputs, A2 chain) states reached from
    (start, seq, chain) by applying M's table to consecutive chunks, breadth
    first, on the chains in prefixes (a fed table's input_prefixes)."""
    states = [(start, seq, chain)] if chain in prefixes else []
    for y, seq, chain in states:
        if prefixes[chain]:
            for chunk, outs in M.entries_by_generator.get(y, ()):
                for c, y2 in outs:
                    if chain + (c,) in prefixes:
                        states.append((y2, seq + chunk, chain + (c,)))
    return states


def _morphism_chain_states(G: DAMorphism, start: int, prefixes: dict):
    """Like _chain_states for I . G: M-iterates, exactly one application
    of G : M -> M' from a proper prefix, then M'-iterates."""
    for y1, seq1, chain1 in _chain_states(G.source, start, prefixes):
        if prefixes[chain1]:
            for seq_g, outs_g in G.entries_by_generator.get(y1, ()):
                for g, y2 in outs_g:
                    yield from _chain_states(G.target, y2, prefixes,
                                             seq1 + seq_g, chain1 + (g,))


def _left_unit(N: TypeDABimodule, T: DATable) -> dict[Key, Span]:
    """The table of I . T for N = I(A) and T from M to M2 (the left unit),
    less the outputs b : y at x that are not sandwiched."""
    M, M2 = T.source, T.target
    src, tgt = ({j: k for k, (_, j) in enumerate(_matched_pairs(N, P))}
                for P in (M, M2))
    return {(src[x], seq): frozenset(
        (b, tgt[y]) for b, y in outs
        if sandwiched(N.left_algebra, M.gens[x].left, b, M2.gens[y].left))
        for (x, seq), outs in T.table.items() if x in src}


def _box_table(T: DATable, N: TypeDABimodule, N2: TypeDABimodule,
               M: TypeDABimodule, M2: TypeDABimodule,
               states) -> dict[Key, Span]:
    """The frozen table of a map (N . M) -> (N2 . M2) that feeds the A2
    chain of each state into T : N -> N2 once; states(j) yields the
    (M2 generator, consumed inputs, A2 chain) states from generator j of
    M.  Its outputs are legal by construction, so the box results are
    built without re-screening them."""
    pos_t = {p: k for k, p in enumerate(_matched_pairs(N2, M2))}
    entry = T.table.get
    acc: set[Coord] = set()
    for key, (i, j) in enumerate(_matched_pairs(N, M)):
        for y, seq, chain in states(j):
            for b, i2 in entry((i, chain), ()):
                out = pos_t.get((i2, y))
                if out is not None:  # else zero over the idempotent ring
                    toggle(acc, (key, seq, (b, out)))
    return table_of(acc)


def _walk_left(T: DATable, M: TypeDABimodule) -> dict[Key, Span]:
    """The walked table of T . I : (N . M) -> (N2 . M), T from N to N2."""
    return _box_table(T, T.source, T.target, M, M,
                      lambda j: _chain_states(M, j, T.input_prefixes))


def _box_left(T: DATable, M: TypeDABimodule) -> DATable | dict[Key, Span]:
    """T itself when M is I(A) and T is chained (the right unit: each
    generator's right idempotent, one of A's, pairs it with one of M's),
    else the walk."""
    return T if M.is_unit and T.is_chained else _walk_left(T, M)


def box_bimodules(N: TypeDABimodule, M: TypeDABimodule) -> TypeDABimodule:
    """The box tensor product of bimodules (see module docstring): the
    product already built from these two objects while it is alive.
    N.box_products keeps it by weak reference under M as a weak key, so
    the cache keeps none of the three alive."""
    products = N.box_products
    product = products.get(M, lambda: None)()
    if product is None:
        table = (_left_unit(N, M) if N.is_unit and not M.is_unit
                 else _box_left(N, M))
        gens = checked_gens(N.left_algebra, M.right_algebra, (
            (f"{N.gens[i].name}|{M.gens[j].name}", N.gens[i].left,
             M.gens[j].right) for i, j in _matched_pairs(N, M)))
        product = TypeDABimodule(N.left_algebra, M.right_algebra, gens,
                                 table, label=f"{N.label}.{M.label}")
        if table is N:  # same_shape as N, so the same verdicts
            for verdict in ("is_unit", "is_chained", "strictly_unital"):
                setattr(product, verdict, getattr(N, verdict))
        products[M] = ref(product)
    return product


def box_morphism_left(F: DAMorphism, M: TypeDABimodule) -> DAMorphism:
    """F . I : (N . M) -> (N' . M) for F : N -> N'."""
    return DAMorphism(box_bimodules(F.source, M), box_bimodules(F.target, M),
                      _box_left(F, M),
                      label=f"{F.label}.id" if F.label else "")


def box_morphism_right(N: TypeDABimodule, G: DAMorphism) -> DAMorphism:
    """I . G : (N . M) -> (N . M') for G : M -> M'."""
    table = _left_unit(N, G) if N.is_unit else _box_table(
        N, N, N, G.source, G.target,
        lambda j: _morphism_chain_states(G, j, N.input_prefixes))
    return DAMorphism(box_bimodules(N, G.source), box_bimodules(N, G.target),
                      table, label=f"id.{G.label}" if G.label else "")


def box_morphisms(F: DAMorphism, G: DAMorphism) -> DAMorphism:
    """F . G = (I . G) o (F . I) over F.source . G.source,
    F.target . G.source and F.target . G.target.  When G is the identity
    of M and F.target is strictly unital, I . G is the identity of
    F.target . M and F . G is F . I (unlabelled, as a composite is)."""
    if G.target is G.source and F.target.strictly_unital and \
            G.table == identity_morphism(G.source).table:
        left = box_morphism_left(F, G.source)
        return DAMorphism(left.source, left.target, left)
    right = box_morphism_right(F.target, G)
    return compose(right, DAMorphism(box_bimodules(F.source, G.source),
                                     right.source, _box_left(F, G.source)))
