"""Cross-genus coverage: the machinery beyond the torus circle."""

import hashlib
import tracemalloc
from random import Random

from strandcalc import boxes, clf
from strandcalc.bimodules import (TypeDABimodule, check_structure,
                                  homology, identity_bimodule,
                                  make_bimodule, named_entry, sandwiched)
from strandcalc.circles import make_pmc, reverse, split_circle, torus_circle
from strandcalc.morphisms import (HomotopyWitness, identity_morphism,
                                  is_closed, is_homotopic,
                                  is_naive_quasi_iso, make_morphism,
                                  morphism_differential, same_shape,
                                  zero_morphism)
from strandcalc.boxes import box_bimodules
from strandcalc.strands import (EMPTY, DGAlgebra, build_dga,
                                enumerate_basis, verify_dga)

from helpers import (input_positions, random_chained_table, spy_solve,
                     reference_arity_zero_complex, reference_defect,
                     reference_structure, ref_multiply,
                     relation_by_morphism_complex)

A2 = build_dga(split_circle(2), label="A2")
I2 = identity_bimodule(A2, label="I2")


class TestReversedCircles:
    def test_reversed_torus_algebra_verifies(self):
        rep = verify_dga(build_dga(reverse(torus_circle())), 10 ** 6)
        assert rep.passed
        assert all(c.exhaustive for c in rep.checks)

    def test_reversed_genus2_sampled(self):
        # the split circle is its own reversal, so another one is reversed
        c = make_pmc(2, [(1, 3), (2, 6), (4, 7), (5, 8)])
        assert reverse(c) != c
        rep = verify_dga(build_dga(reverse(c)), 10 ** 4)
        assert rep.passed


def test_materialize_counts_matched_pairs():
    # materialize asks the closure once per left factor; the rows it is
    # handed hold the 24256 matched pairs, 5815 of them nonzero
    asked = []

    def row_fn(i):
        row = {j: A2.product(i, j) for j in range(A2.size)
               if A2.left_idem[j] == A2.right_idem[i]}
        asked.append((i, len(row)))
        return row

    B = DGAlgebra(A2.basis_names, A2.idempotents, A2.left_idem,
                  A2.right_idem, {}, row_fn=row_fn)
    B.materialize()
    assert len(asked) == len(dict(asked)) == A2.size == 688
    assert sum(k for _, k in asked) == 24256
    assert sum(len(B.row(i)) for i in range(A2.size)) == 5815
    assert A2.size ** 2 == 473344


def test_sandwiched_is_the_product_rule():
    # the index rule against i . b . j = b for every idempotent i and j
    tested = legal = 0
    for i in A2.idempotents:
        for b in range(A2.size):
            ib = A2.product(i, b)
            for j in A2.idempotents:
                exact = A2.product_elements(ib, frozenset((j,))) == {b}
                assert sandwiched(A2, i, b, j) is exact
                tested += 1
                legal += exact
    assert (tested, legal) == (176128, A2.size)


def test_sampled_verification_holds_no_sample_list():
    # 10^4 pairs and 10^4 triples, drawn as they are checked; as lists
    # they would take about 2 MB
    A2.materialize()
    tracemalloc.start()
    try:
        report = verify_dga(A2, 10 ** 4, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert report.check("associativity").tested == 10 ** 4
    assert peak < 256 * 1024


def matched_products_checked(c, A):
    """Check every idempotent-matched product of A, the algebra of c,
    against ref_multiply; returns the number of matched pairs."""
    basis = enumerate_basis(c)
    matched = 0
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            if A.right_idem[i] != A.left_idem[j]:
                continue
            matched += 1
            want = ref_multiply(c, a, b)
            assert A.product(i, j) == {A.index(str(d)) for d in want}
    return matched


class TestGenus2Products:
    def test_matched_pairs_match_reference(self):
        assert matched_products_checked(split_circle(2), A2) == 24256

    def test_reversed_circle_matches_reference(self):
        # the row index must not lean on the split circle's geometry; that
        # circle is its own reversal, so another genus-2 circle is reversed
        c = reverse(make_pmc(2, [(1, 3), (2, 6), (4, 7), (5, 8)]))
        assert c != split_circle(2) and reverse(c) != c
        A = build_dga(c)
        assert matched_products_checked(c, A) == 68448
        A.materialize()
        assert sum(len(A.row(i)) for i in range(A.size)) == 8645

    def test_unmatched_pairs_are_zero(self):
        n = A2.size
        for i in range(n):
            r = A2.right_idem[i]
            for j in range(n):
                if A2.left_idem[j] != r:
                    assert A2.product(i, j) is EMPTY

    def test_cache_holds_matched_pairs_only(self):
        # a closure-backed copy of A2, partly filled by a sampled verify:
        # the closure is asked once per left factor in all, and the rows
        # keep only the 5815 nonzero products
        asked = []

        def row_fn(i):
            asked.append(i)
            return A2.row(i)

        A = DGAlgebra(A2.basis_names, A2.idempotents, A2.left_idem,
                      A2.right_idem, {i: A2.d(i) for i in range(A2.size)},
                      row_fn=row_fn)
        assert verify_dga(A, 10 ** 4).passed
        A.materialize()
        assert len(asked) == len(set(asked)) == 688
        n = A2.size
        nonzero = {(i, j): A2.product(i, j) for i in range(n)
                   for j in range(n) if A2.product(i, j)}
        assert len(nonzero) == 5815
        assert {(i, j): v for i in range(n)
                for j, v in A.row(i).items()} == nonzero
        for i in range(n):
            for j in range(n):
                assert A.product(i, j) == A2.product(i, j)


class TestGenus2Bimodules:
    def test_identity_bimodule_structure_complete(self):
        rep = check_structure(I2)
        assert rep.passed
        assert rep.complete
        assert rep.max_arity == 2

    def test_identity_structure_matches_reference(self):
        table, witness, positions = reference_structure(I2)
        rep = check_structure(I2)
        assert not table and witness is None
        assert rep.tested == positions == 24960

    def test_unchained_entry(self):
        # one D1 entry whose input starts at the wrong idempotent: the
        # relation now ranges over all 16 * (1 + 688 + 688^2) positions of
        # arity <= 2, and fails first at arity 2
        x = I2.gen_index("h(1 3)h(5 7)")
        table = dict(I2.d1)
        table[(x, (A2.index("h(2 4)h(6 8)"),))] = \
            frozenset(((I2.gens[x].left, x),))
        M = make_bimodule(A2, A2, [(g.name, g.left, g.right)
                                   for g in I2.gens], table)
        rep = check_structure(M)
        assert not M.is_chained and not rep.restricted_to_chained
        assert rep.tested == 16 * (1 + 688 + 688 ** 2) == 7584528
        assert not rep.passed
        assert rep.witness == ("h(1 3)h(2 4)",
                               ("r[1-3]r[2-5]", "h(2 4)h(6 8)"),
                               ("r[1-3]r[2-5] : h(1 3)h(5 7)",))
        gen = M.gen_index(rep.witness[0])
        seq = tuple(A2.index(a) for a in rep.witness[1])
        assert {f"{A2.name(b)} : {M.gens[y].name}"
                for b, y in reference_defect(M, gen, seq)} \
            == set(rep.witness[2])
        assert not any(reference_defect(M, y, s)
                       for y, s in input_positions(M, 1, chained=False))

    def test_identity_box_identity(self):
        B = box_bimodules(I2, I2)
        assert same_shape(B, I2)

    def test_identity_morphism_closed(self):
        assert is_closed(identity_morphism(I2))

    def test_naive_quasi_iso(self):
        assert is_naive_quasi_iso(identity_morphism(I2))
        assert not is_naive_quasi_iso(zero_morphism(I2, I2))

    def test_homology_matches_algebra(self):
        # the arity-zero complex of the identity bimodule is (A, d)
        from strandcalc import f2
        for M in (I2, box_bimodules(I2, I2)):
            _, boundary = reference_arity_zero_complex(M)
            assert homology(M) == f2.homology_dim(boundary, boundary) == 164

    def test_structure_matches_morphism_complex(self):
        # I2 and every 43rd one-entry-dropped mutant, the unit row of e
        # (key 0, a removal the relation cannot see) included
        gens = [(g.name, g.left, g.right) for g in I2.gens]
        keys = sorted(I2.d1)
        mutants = [make_bimodule(A2, A2, gens,
                                 {k: v for k, v in I2.d1.items() if k != drop})
                   for drop in keys[::43]]
        failing = 0
        for M in [I2] + mutants:
            report = check_structure(M)
            assert (report.passed, report.witness, report.tested) == \
                relation_by_morphism_complex(M)
            failing += not report.passed
        assert (len(mutants), failing) == (16, 15)

    def test_structure_check_memory(self):
        # the relation's terms cancel as they are toggled (d(D) + D o D,
        # three copies of mu_2< D, D >, peaks near 7 MB).  A first check
        # builds A2's product indexes, which belong to the algebra.  Every
        # I(A2) shares one table and its indexes, so the checked copy
        # gets a table of its own, whose indexes the check builds.
        I = identity_bimodule(A2)
        check_structure(I)
        M = TypeDABimodule(A2, A2, I.gens, dict(I.table))
        tracemalloc.start()
        try:
            report = check_structure(M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 10 ** 6


def four_leaves():
    """The four-critical-leaf tree and an assignment of every letter to a
    new I(A2) object I (on I2's shared table) and every critical leaf to
    ID + d(H), H(x, []) = x's own idempotent at x = h(1 3)h(5 7)."""
    I = identity_bimodule(A2, label="I2")
    x = I.gen_index("h(1 3)h(5 7)")
    H = make_morphism(I, I, {(x, ()): [(A2.index("h(1 3)h(5 7)"), x)]})
    crit = identity_morphism(I) + morphism_differential(H)
    expr = clf.parse_expression(
        "H(H(V(CRIT(fl=a, fr=a, vc=e@z), "
        "CRIT(fl=aT[e@z]a, fr=e, vc=e@z)), "
        "CRIT(fl=b, fr=e, vc=e@y)), "
        "V(H(ID(e), CRIT(fl=a, fr=b, vc=e@z)), ID(aT[e@z]b)))")
    return expr, clf.CLFAssignment(A2, default_letter=I, default_crit=crit)


class TestGenus2Evaluation:
    def test_four_critical_leaves_evaluate_closed(self):
        # boxing the evaluated pieces is finite work, which box
        # evaluation must finish
        F = clf.evaluate(*four_leaves())
        assert F.arity_bound == 4
        assert len(F.table) == 202
        assert is_closed(F)

    def test_four_leaves_box_counts(self, monkeypatch):
        # the tree and its normal form under one assignment, as a g2-clf
        # bench operation evaluates them: 40 box products are asked for
        # and 13 built (each live product once), and 4 of the 10
        # box_morphisms calls have an identity right factor against a
        # strictly unital I2-shaped target, so they are whiskered
        # without box_morphism_right.  Every factor is I2 or a product
        # read off it, so no product is walked: all 13 are read off by a
        # unit law
        counts = box_counts(monkeypatch.setattr)
        expr, assign = four_leaves()
        normal = clf.normalize_horizontal(expr)
        assert clf.evaluate(expr, assign) == clf.evaluate(normal, assign)
        assert counts == {"asked": 40, "built": 13, "boxed": 10,
                          "right": 6, "walked": 0}


def box_counts(patch) -> dict:
    """Counts of box work from now on, by spies that patch(module, name,
    spy) installs: box products asked for, built and walked (the rest
    of those built are read off by a unit law), box_morphisms calls
    from clf, and box_morphism_right calls."""
    counts = dict.fromkeys(["asked", "built", "boxed", "right", "walked"],
                           0)

    def spy(module, name, key, counts_call=lambda *args: True):
        real = getattr(module, name)

        def counted(*args):
            counts[key] += counts_call(*args)
            return real(*args)
        patch(module, name, counted)

    spy(boxes, "box_bimodules", "asked")
    spy(clf, "box_bimodules", "asked")
    spy(boxes, "checked_gens", "built")
    spy(clf, "box_morphisms", "boxed")
    spy(boxes, "box_morphism_right", "right")
    spy(boxes, "_walk_left", "walked",
        lambda T, M: isinstance(T, TypeDABimodule))
    return counts


class TestGenus2Homotopy:
    def test_cap2_search_finds_witness(self):
        # ID against ID + dR for a random arity-2 table R: the search solves
        # one 281,884 x 21,720 system with 500,668 nonzeros.
        ID = identity_morphism(I2)
        G = ID + morphism_differential(
            random_chained_table(Random(5), I2, I2, 2, 4))
        result = is_homotopic(ID, G, 2)
        assert isinstance(result, HomotopyWitness)
        assert morphism_differential(result.h).table == (ID + G).table
        assert len(result.h.table) == 37
        # the exact witness: the unique solution that is zero on the
        # non-pivot unknowns, in sorted coordinate order
        listing = sorted(named_entry(I2, I2, x, seq, outs)
                         for (x, seq), outs in result.h.table.items())
        assert hashlib.sha256(repr(listing).encode()).hexdigest() == \
            "f70851de526d5635ecf5176e8d3688179da0750dd309e72f7e22a0462076e6c7"

    def test_system_handed_to_solve(self, monkeypatch):
        # the largest search of the g2-homotopy benchmark: the closure must
        # hand f2 the same system however it is assembled and packed
        sizes = spy_solve(monkeypatch)
        ID = identity_morphism(I2)
        x = I2.gen_index("h(1 3)h(2 4)h(6 8)")
        H = make_morphism(I2, I2, {
            (x, ()): [(A2.index("r[1-2]r[2-3]h(6 8)"), x)]})
        G = ID + morphism_differential(H)
        result = is_homotopic(ID, G, 2)
        assert sizes == [(10328, 2675, 27840)]
        assert isinstance(result, HomotopyWitness)
        assert morphism_differential(result.h).table == (ID + G).table
        assert result.h.table == H.table
