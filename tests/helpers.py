"""Shared oracles and generators for the test suite.

Everything here is written independently of the library internals it
checks: the dense GF(2) oracle uses numpy row reduction, the diagram
oracle enumerates raw endpoint subsets, the product reference tries
every pair of expansions and the differential reference every crossing
of every expansion, with their own concatenation, crossing count and
regrouping (of the strand calculus they share only expansions with
build_dga), the structure-map oracle evaluates the recursion as an
explicit sum over ordered splittings, and the structure-relation
reference evaluates the relation one input sequence at a time.  The
box-tensor reference shares the library's table builder but walks every
chain up to the fed table's arity bound.  The structure relation is also
evaluated through the library's morphism complex, as d(D) + D o D, to
hold check_structure's single pass to that formula.  The arity-zero
complex reference builds homology's complex, and the naive mapping cone,
with their own product loops.  The DGA axiom reference evaluates both
sides of Leibniz and associativity at every pair and triple.  The
morphism differential's two mu_2 joins are rebuilt from a raw table and
a product table with its own loops.
"""

from __future__ import annotations

import itertools
from random import Random

import numpy as np

from strandcalc import f2
from strandcalc.bimodules import (_positions, checked_table, compute_Dn,
                                  first_entry, named_entry, sandwiched)
from strandcalc.boxes import _box_table
from strandcalc.morphisms import DAMorphism, compose, morphism_differential
from strandcalc.strands import (DGAlgebra, StrandDiagram, enumerate_basis,
                                expansions, source_idem, target_idem)


def table_mult(table):
    """A DGAlgebra row_fn reading a hand-written product table
    {(i, j): i.j}; absent pairs multiply to zero."""
    rows: dict = {}
    for (i, j), value in table.items():
        rows.setdefault(i, {})[j] = value
    return lambda i: rows.get(i, {})


# --- dense GF(2) oracle (numpy) -------------------------------------------


def dense(m: f2.F2Matrix) -> np.ndarray:
    out = np.zeros((m.rows, m.cols), dtype=np.uint8)
    for r, c in m.entries:
        out[r, c] = 1
    return out


def dense_rref(M: np.ndarray):
    """Row reduce over GF(2); returns (rref, pivot column list)."""
    R = (M % 2).astype(np.uint8).copy()
    rows, cols = R.shape
    pivots = []
    r = 0
    for c in range(cols):
        hit = None
        for rr in range(r, rows):
            if R[rr, c]:
                hit = rr
                break
        if hit is None:
            continue
        if hit != r:
            R[[r, hit]] = R[[hit, r]]
        for rr in range(rows):
            if rr != r and R[rr, c]:
                R[rr] ^= R[r]
        pivots.append(c)
        r += 1
    return R, pivots


def dense_rank(M: np.ndarray) -> int:
    return len(dense_rref(M)[1])


def dense_solvable(M: np.ndarray, b: np.ndarray) -> bool:
    aug = np.concatenate([M % 2, (b % 2)[:, None]], axis=1)
    return dense_rank(aug) == dense_rank(M)


def random_matrix(rng: Random, rows: int, cols: int,
                  density: float = 0.3) -> f2.F2Matrix:
    entries = frozenset((r, c) for r in range(rows) for c in range(cols)
                        if rng.random() < density)
    return f2.F2Matrix(rows, cols, entries)


def random_complex(rng: Random, n: int):
    """A random two-step complex d_in, d_out with d_out . d_in = 0.

    d_out is random; d_in's columns are random kernel combinations.
    """
    d_out = random_matrix(rng, n, n)
    kernel = f2.kernel_basis(d_out)
    cols = []
    for _ in range(n):
        combo: frozenset = frozenset()
        for v in kernel:
            if rng.random() < 0.5:
                combo ^= v.support
        cols.append(combo)
    entries = frozenset((r, c) for c, col in enumerate(cols) for r in col)
    d_in = f2.F2Matrix(n, n, entries)
    return d_in, d_out


def spy_solve(monkeypatch) -> list[tuple[int, int, int]]:
    """Record (rows, columns, nonzeros) of every system f2.solve is given
    from now on; the calls still solve."""
    sizes = []
    solve = f2.solve

    def spy(m, target):
        sizes.append((m.rows, m.cols, len(m.entries)))
        return solve(m, target)

    monkeypatch.setattr(f2, "solve", spy)
    return sizes


# --- reduced-echelon reference for f2.solve and f2.kernel_basis ----------
# Bit-vector Gauss-Jordan elimination: forward elimination, then every
# pivot column cleared from every other row.  Free variables are zero, so
# f2's outputs must equal these exactly, support for support.


def _ref_masks(m: f2.F2Matrix, shift: int) -> list[int]:
    masks = [0] * m.rows
    for r, c in m.entries:
        masks[r] |= 1 << (m.cols - c + shift)
    return masks


def _ref_rref(masks: list[int]) -> dict[int, int]:
    pivots: dict[int, int] = {}
    for row in masks:
        while row:
            lead = row.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = row
                break
            row ^= pivots[lead]
    for lead in sorted(pivots, reverse=True):
        for other in pivots:
            if other > lead and pivots[other] >> lead & 1:
                pivots[other] ^= pivots[lead]
    return pivots


def ref_solve(m: f2.F2Matrix, target: f2.F2Vector) -> f2.F2Vector | None:
    """The solution with zero free variables, or None when inconsistent."""
    aug = [mask | (1 if r in target.support else 0)
           for r, mask in enumerate(_ref_masks(m, 1))]
    pivots = _ref_rref(aug)
    if 0 in pivots:
        return None  # a row reduced to 0 = 1
    return f2.F2Vector(frozenset(m.cols - (lead - 1)
                                 for lead, row in pivots.items() if row & 1))


def ref_kernel_basis(m: f2.F2Matrix) -> list[f2.F2Vector]:
    """One kernel vector per free column, by increasing free column."""
    w = m.cols
    pivot_cols = {w - lead: row
                  for lead, row in _ref_rref(_ref_masks(m, 0)).items()}
    return [f2.F2Vector(frozenset(
                {c} | {pc for pc, row in pivot_cols.items()
                       if row >> (w - c) & 1}))
            for c in range(w) if c not in pivot_cols]


# --- strand diagram oracle --------------------------------------------------


def brute_force_diagrams(circle):
    """Enumerate diagrams straight from the stated invariants.

    Runs over every pair of endpoint subsets and every bijection, plus
    every horizontal subset, and filters; deliberately dumb and separate
    from the library's generator.
    """
    pairs = circle.matching
    pair_of = {}
    for p in pairs:
        for x in p:
            pair_of[x] = p
    points = list(circle.points)
    found = set()
    for k in range(0, 2 * circle.genus + 1):
        for sources in itertools.combinations(points, k):
            for targets in itertools.combinations(points, k):
                for perm in itertools.permutations(targets):
                    strands = tuple(sorted(zip(sources, perm)))
                    if any(s >= t for s, t in strands):
                        continue
                    if len({pair_of[s] for s, _ in strands}) != k:
                        continue
                    if len({pair_of[t] for _, t in strands}) != k:
                        continue
                    used = {pair_of[s] for s, _ in strands}
                    used |= {pair_of[t] for _, t in strands}
                    free = [p for p in pairs if p not in used]
                    for r in range(len(free) + 1):
                        for horiz in itertools.combinations(free, r):
                            found.add((strands, tuple(sorted(horiz))))
    return found


def _crossed(u, v) -> bool:
    """Whether two strands (start, end) cross: their ends come in the
    opposite order to their starts."""
    return (u[0] - v[0]) * (u[1] - v[1]) < 0


def _crossings(prim) -> int:
    return sum(_crossed(u, v) for u, v in itertools.combinations(prim, 2))


def _ref_regroup(circle, prims):
    """Group a mod-2 sum of primitives into diagrams: the moving strands
    and the matched pairs of the constant ones name a diagram, which must
    appear with every one of its expansions."""
    pair_of = {x: p for p in circle.matching for x in p}
    groups: dict = {}
    for prim in prims:
        diag = StrandDiagram(
            tuple(s for s in prim if s[0] != s[1]),
            tuple(sorted(pair_of[s] for s, t in prim if s == t)))
        groups.setdefault(diag, set()).add(prim)
    for diag, members in groups.items():
        assert members == set(expansions(diag)), f"{diag} does not regroup"
    return frozenset(groups)


def ref_multiply(circle, a, b):
    """The product of two diagrams by the definition: every pair of
    expansions that meet (the targets of one are the sources of the
    other) joined strand by strand, dropped when two strands cross in
    both halves, summed mod 2 and regrouped.  Zero when the idempotents
    do not match."""
    if target_idem(circle, a) != source_idem(circle, b):
        return frozenset()
    acc = set()
    for p in expansions(a):
        for q in expansions(b):
            if sorted(t for _, t in p) != sorted(s for s, _ in q):
                continue
            follow = dict(q)
            right = [(t, follow[t]) for _, t in p]
            if any(_crossed(p[i], p[j]) and _crossed(right[i], right[j])
                   for i, j in itertools.combinations(range(len(p)), 2)):
                continue
            acc ^= {tuple(sorted((s, follow[t]) for s, t in p))}
    return _ref_regroup(circle, acc)


def ref_products(circle, A):
    """(u, v) -> u.v in A's basis indices for every idempotent-matched
    pair, each product computed by ref_multiply (A = build_dga(circle))."""
    basis = enumerate_basis(circle)
    return {(i, j): frozenset(A.index(str(d))
                              for d in ref_multiply(circle, a, b))
            for i, a in enumerate(basis) for j, b in enumerate(basis)
            if A.right_idem[i] == A.left_idem[j]}


def ref_differential(circle, a):
    """The differential of a diagram by the definition: every crossing of
    every expansion resolved by swapping the two ends, kept when it
    lowers the crossing count by exactly one, summed mod 2 and
    regrouped."""
    acc = set()
    for p in expansions(a):
        for i, j in itertools.combinations(range(len(p)), 2):
            if _crossed(p[i], p[j]):
                res = list(p)
                res[i], res[j] = (p[i][0], p[j][1]), (p[j][0], p[i][1])
                if _crossings(res) == _crossings(p) - 1:
                    acc ^= {tuple(sorted(res))}
    return _ref_regroup(circle, acc)


# --- DGA axiom reference and planted errors ---------------------------------


def ref_dga_failures(A):
    """The failing (a, b) of Leibniz and (a, b, c) of associativity, by
    name in sorted order, from both sides evaluated at every pair and
    every triple of A's basis."""
    n = A.size
    prod = [[A.product(i, j) for j in range(n)] for i in range(n)]

    def mul(x, y):
        out = frozenset()
        for i in x:
            for j in y:
                out ^= prod[i][j]
        return out

    leibniz = [(a, b) for a in range(n) for b in range(n)
               if A.d_element(prod[a][b])
               != mul(A.d(a), (b,)) ^ mul((a,), A.d(b))]
    assoc = [(a, b, c) for a in range(n) for b in range(n) for c in range(n)
             if mul(prod[a][b], (c,)) != mul((a,), prod[b][c])]
    return tuple(sorted(tuple(map(A.name, t)) for t in leibniz)), \
        tuple(sorted(tuple(map(A.name, t)) for t in assoc))


def product_flips(A):
    """(i, j, w) for every stored term w of a product i.j, and for every
    matched pair (i, j) the first basis element w outside i.j with i's
    left and j's right idempotent, if there is one."""
    compatible = {}
    for t in range(A.size):
        compatible.setdefault((A.left_idem[t], A.right_idem[t]), []).append(t)
    for i in range(A.size):
        for j in range(A.size):
            if A.right_idem[i] != A.left_idem[j]:
                continue
            p = A.product(i, j)
            yield from ((i, j, w) for w in sorted(p))
            extra = [t for t in compatible[A.left_idem[i], A.right_idem[j]]
                     if t not in p]
            if extra:
                yield i, j, extra[0]


def flipped(A, product=None, d=None):
    """A copy of A with the product term (i, j, w) and/or the
    differential term (i, t) toggled."""
    rows = {k: A.row(k) for k in range(A.size)}
    diff = {k: A.d(k) for k in range(A.size)}
    if product:
        i, j, w = product
        rows[i] = {**rows[i], j: rows[i].get(j, frozenset()) ^ {w}}
    if d:
        i, t = d
        diff[i] ^= {t}
    return DGAlgebra(A.basis_names, A.idempotents, A.left_idem,
                     A.right_idem, diff, row_fn=rows.__getitem__)


# --- structure map oracle ----------------------------------------------------


def splittings(seq, parts):
    """All ways to cut seq into `parts` consecutive (possibly empty) runs."""
    if parts == 1:
        yield (seq,)
        return
    for i in range(len(seq) + 1):
        for rest in splittings(seq[i:], parts - 1):
            yield (seq[:i],) + rest


def direct_Dn(M, x, seq, n):
    """D_n as an explicit sum over ordered splittings into n chunks."""
    out = set()
    for chunks in splittings(seq, n):
        states = [((), x)]
        for chunk in chunks:
            new = []
            for chain, y in states:
                for b, z in M.entry(y, chunk):
                    new.append((chain + (b,), z))
            states = new
        for chain, y in states:
            out ^= {(chain, y)}
    return frozenset(out)


# --- structure relation reference (pull form) ---------------------------------


def reference_defect(M, x, seq):
    """The structure relation at one (generator, sequence): d on the
    outputs of D_1, mu_2 on D_2, and D_1 on the inputs' entrywise
    differentials and adjacent products."""
    A1, A2 = M.left_algebra, M.right_algebra
    acc = set()
    for b, y in M.entry(x, seq):
        for t in A1.d(b):
            acc ^= {(t, y)}
    for (b, c), z in compute_Dn(M, x, seq, 2):
        for t in A1.product(b, c):
            acc ^= {(t, z)}
    for k, a in enumerate(seq):
        for u in A2.d(a):
            acc ^= M.entry(x, seq[:k] + (u,) + seq[k + 1:])
    for k in range(len(seq) - 1):
        for w in A2.product(seq[k], seq[k + 1]):
            acc ^= M.entry(x, seq[:k] + (w,) + seq[k + 2:])
    return frozenset(acc)


def input_positions(M, max_len):
    """Every (generator, sequence) with at most max_len inputs whose
    idempotents compose from the generator's right idempotent on, listed
    one by one."""
    A2 = M.right_algebra
    out = []
    for x in range(M.size):
        level = [((), M.gens[x].right)]
        for k in range(max_len + 1):
            out += [(x, seq) for seq, _ in level]
            if k < max_len:
                level = [(seq + (a,), A2.right_idem[a])
                         for seq, state in level for a in range(A2.size)
                         if A2.left_idem[a] == state]
    return out


def is_chained_entry(M, N, x, seq, outs):
    """Whether an entry (x, seq) -> outs of a table from M to N keeps the
    right idempotent rule, read off its definition: the inputs compose
    from iR(x), and every output generator's right idempotent is where
    they end."""
    A2 = M.right_algebra
    state = M.gens[x].right
    for a in seq:
        if A2.left_idem[a] != state:
            return False
        state = A2.right_idem[a]
    return all(N.gens[y].right == state for _, y in outs)


def rescreened(T):
    """T's table screened again by checked_table (T a bimodule, read as
    its structure table, or a morphism)."""
    M, N = T.source, T.target
    return checked_table(M.left_algebra, M.right_algebra, M.gens, N.gens,
                         T.table)


def reference_structure(M):
    """(defect table, witness, positions) of the relation swept over the
    chained positions of arity <= 2K; the witness is the failure with the
    fewest inputs, then the least key."""
    positions = input_positions(M, 2 * M.arity_bound)
    table = {}
    for x, seq in positions:
        defect = reference_defect(M, x, seq)
        if defect:
            table[(x, seq)] = defect
    witness = None
    if table:
        x, seq = min(table, key=lambda k: (len(k[1]), k))
        witness = named_entry(M, M, x, seq, table[(x, seq)])
    return table, witness, len(positions)


def _transpose(index) -> dict:
    """value -> sorted keys listing it, as often as it lists the value."""
    back: dict = {}
    for key, values in index.items():
        for value in values:
            back.setdefault(value, []).append(key)
    return {k: sorted(v) for k, v in back.items()}


def joins_checked(M, products) -> tuple[int, int]:
    """Assert that M's mu_2 joins equal a brute-force build from M's raw
    table and products (a full (u, v) -> u.v table): after (b, y) ->
    (s, t, z) for c (x) z in M(y, s) and t in b.c, before (x, b) ->
    (x0, s, t) for c (x) x in M(x0, s) and t in c.b, each term as often
    as it arises; and that each inverse is the exact transpose of its
    join.  Returns the term counts of after and before."""
    after, before = {}, {}
    for (g, s), outs in M.table.items():  # each entry c (x) h at (g, s)
        for c, h in outs:
            for b in range(M.left_algebra.size):
                for t in products.get((b, c), ()):
                    after.setdefault((b, g), []).append((s, t, h))
                for t in products.get((c, b), ()):
                    before.setdefault((h, b), []).append((g, s, t))
    for got, want in ((M.after, after), (M.before, before)):
        assert {k: sorted(v) for k, v in got.items()} == \
            {k: sorted(v) for k, v in want.items()}
    for inverse, join in ((M.after_inverse, M.after),
                          (M.before_inverse, M.before)):
        assert {k: sorted(v) for k, v in inverse.items()} == \
            _transpose(join)
    return (sum(map(len, after.values())), sum(map(len, before.values())))


def relation_by_morphism_complex(M):
    """(passed, witness, tested) of the structure relation evaluated as
    d(D) + D o D in the morphism complex, D the structure table read as a
    morphism from M to itself: both mu_2 terms of d(D) and D o D computed
    apart, as three copies of one sum."""
    D = DAMorphism(M, M, M.table)
    witness = first_entry(M, M, (morphism_differential(D)
                                 + compose(D, D)).table)
    return witness is None, witness, _positions(M, 2 * M.arity_bound)


# --- arity-zero complex and naive cone references ---------------------------


def reference_arity_zero_complex(M):
    """The chain complex of input-free data.

    Basis: pairs (b, x) with b an A1 basis element whose right idempotent
    matches the left idempotent of x, canonically ordered.  Boundary:
    (b, x) -> (db, x) + sum b.c (x) y over D_1(x, []) = sum c (x) y.
    Returns (basis, boundary matrix) with matrix columns indexed by the
    basis and rows likewise.
    """
    A1 = M.left_algebra
    basis = [(b, x) for b in range(A1.size) for x in range(M.size)
             if A1.right_idem[b] == M.gens[x].left]
    pos = {bx: k for k, bx in enumerate(basis)}
    entries = set()
    for col, (b, x) in enumerate(basis):
        image: set = set()
        for t in A1.d(b):
            image ^= {(t, x)}
        for c, y in M.entry(x, ()):
            for t in A1.product(b, c):
                image ^= {(t, y)}
        for bx in image:
            entries.add((pos[bx], col))
    n = len(basis)
    return basis, f2.F2Matrix(n, n, frozenset(entries))


def reference_naive_quasi_iso(F):
    """Whether the cone of F's arity-zero part f0 is acyclic: the two
    arity-zero complexes side by side, joined by
    f0(b (x) x) = sum b.b' (x) y over F(x, []) = sum b' (x) y."""
    A1 = F.source.left_algebra
    basis_M, d_M = reference_arity_zero_complex(F.source)
    basis_N, d_N = reference_arity_zero_complex(F.target)
    n = len(basis_M)
    pos_N = {bx: n + i for i, bx in enumerate(basis_N)}
    f0: set = set()
    for col, (b, x) in enumerate(basis_M):
        for b2, y in F.entry(x, ()):
            for t in A1.product(b, b2):
                f0 ^= {(pos_N[(t, y)], col)}
    size = n + len(basis_N)
    cone = f2.F2Matrix(size, size, frozenset(
        d_M.entries | {(r + n, c + n) for r, c in d_N.entries} | f0))
    return f2.homology_dim(cone, cone) == 0


# --- random morphisms ---------------------------------------------------------


def chained_coords(M, N, cap):
    """All fully chained morphism coordinates of arity <= cap."""
    A1, A2 = M.left_algebra, M.right_algebra
    by_source: dict[int, list[int]] = {}
    for a in range(A2.size):
        by_source.setdefault(A2.left_idem[a], []).append(a)
    # outputs (b, y) by (left idempotent of x, right idempotent of y)
    outputs: dict = {}
    for b in range(A1.size):
        for y in range(N.size):
            if N.gens[y].left == A1.right_idem[b]:
                outputs.setdefault((A1.left_idem[b], N.gens[y].right),
                                   []).append((b, y))
    coords = []
    for x in range(M.size):
        frontier = [((), M.gens[x].right)]
        for k in range(cap + 1):
            nxt = []
            for seq, state in frontier:
                for out in outputs.get((M.gens[x].left, state), ()):
                    coords.append((x, seq, out))
                if k < cap:
                    for a in by_source.get(state, ()):
                        nxt.append((seq + (a,), A2.right_idem[a]))
            frontier = nxt
    return coords


_COORD_CACHE: dict = {}


def random_chained_table(rng: Random, M, N, cap: int,
                         density: int) -> DAMorphism:
    # chained_coords reads only the algebras and the generators'
    # idempotents; an object's id could be reused by a later bimodule of
    # another shape once the first is gone
    key = (M.left_algebra, M.right_algebra, cap,
           tuple((g.left, g.right) for g in M.gens),
           tuple((g.left, g.right) for g in N.gens))
    if key not in _COORD_CACHE:
        _COORD_CACHE[key] = chained_coords(M, N, cap)
    coords = _COORD_CACHE[key]
    table: dict = {}
    for _ in range(density):
        x, seq, out = coords[rng.randrange(len(coords))]
        table.setdefault((x, seq), set())
        table[(x, seq)] ^= {out}
    return DAMorphism(M, N, {k: frozenset(v) for k, v in table.items() if v})


def random_unchained_table(rng: Random, M, N, cap: int,
                           density: int) -> DAMorphism:
    """Coordinates that keep the left idempotent rule, with no chain
    condition: mostly tables that checked_table refuses, for refusal
    tests and for identities of the morphism complex that hold on any
    table."""
    A1, A2 = M.left_algebra, M.right_algebra
    table: dict = {}
    placed = 0
    while placed < density:
        x = rng.randrange(M.size)
        k = rng.randrange(cap + 1)
        seq = tuple(rng.randrange(A2.size) for _ in range(k))
        b = rng.randrange(A1.size)
        y = rng.randrange(N.size)
        if not sandwiched(A1, M.gens[x].left, b, N.gens[y].left):
            continue
        table.setdefault((x, seq), set())
        table[(x, seq)] ^= {(b, y)}
        placed += 1
    return DAMorphism(M, N, {k: frozenset(v) for k, v in table.items() if v})


def sampled_chained_table(rng: Random, M, N, cap: int,
                          density: int) -> DAMorphism:
    """Like random_chained_table, drawing each coordinate by a random walk
    (arity uniform in 0..cap) instead of from the full list, which is too
    large at genus 2 beyond arity 1; a walk that dead-ends is dropped."""
    A1, A2 = M.left_algebra, M.right_algebra
    by_source: dict[int, list[int]] = {}
    for a in range(A2.size):
        by_source.setdefault(A2.left_idem[a], []).append(a)
    outputs: dict = {}
    for b in range(A1.size):
        for y in range(N.size):
            if N.gens[y].left == A1.right_idem[b]:
                outputs.setdefault((A1.left_idem[b], N.gens[y].right),
                                   []).append((b, y))
    table: dict = {}
    for _ in range(density):
        x = rng.randrange(M.size)
        seq, state = (), M.gens[x].right
        for _ in range(rng.randrange(cap + 1)):
            a = rng.choice(by_source[state])
            seq, state = seq + (a,), A2.right_idem[a]
        outs = outputs.get((M.gens[x].left, state))
        if outs:
            table.setdefault((x, seq), set())
            table[(x, seq)] ^= {rng.choice(outs)}
    return DAMorphism(M, N, {k: frozenset(v) for k, v in table.items() if v})


# --- unpruned box-tensor walk ----------------------------------------------
# The chain walks of boxes.py before they followed the fed table's input
# prefixes: every chain up to the table's arity bound.  Fed through the
# library's _box_table, they give the reference box tables.


def unpruned_chain_states(M, start, max_chain):
    states = [(start, (), ())]
    for y, seq, chain in states:
        if len(chain) < max_chain:
            for chunk, outs in M.entries_by_generator.get(y, ()):
                for c, y2 in outs:
                    states.append((y2, seq + chunk, chain + (c,)))
    return states


def unpruned_morphism_chain_states(G, start, max_chain):
    for y1, seq1, chain1 in unpruned_chain_states(G.source, start,
                                                  max_chain - 1):
        if len(chain1) < max_chain:
            for seq_g, outs_g in G.entries_by_generator.get(y1, ()):
                for g, y2 in outs_g:
                    mid_chain = chain1 + (g,)
                    for y3, seq3, chain3 in unpruned_chain_states(
                            G.target, y2, max_chain - len(mid_chain)):
                        yield y3, seq1 + seq_g + seq3, mid_chain + chain3


def _nonzero(table):
    return {k: frozenset(v) for k, v in table.items() if v}


def unpruned_box_left(T, N, N2, M):
    """The table of T . I : (N . M) -> (N2 . M), in insertion order."""
    return _nonzero(_box_table(
        T, N, N2, M, M,
        lambda j: unpruned_chain_states(M, j, T.arity_bound)))


def unpruned_box_right(N, G):
    """The table of I . G : (N . M) -> (N . M'), in insertion order."""
    return _nonzero(_box_table(
        N, N, N, G.source, G.target,
        lambda j: unpruned_morphism_chain_states(G, j, N.arity_bound)))
