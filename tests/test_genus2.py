"""Cross-genus coverage: the machinery beyond the torus circle."""

import hashlib
import tracemalloc
from random import Random

from strandcalc import clf
from strandcalc.bimodules import (check_structure, homology,
                                  identity_bimodule, make_bimodule,
                                  named_entry, sandwiched)
from strandcalc.circles import reverse, split_circle, torus_circle
from strandcalc.morphisms import (HomotopyWitness, identity_morphism,
                                  is_closed, is_homotopic,
                                  is_naive_quasi_iso, make_morphism,
                                  morphism_differential, same_shape,
                                  zero_morphism)
from strandcalc.boxes import box_bimodules
from strandcalc.strands import (EMPTY, DGAlgebra, build_dga,
                                enumerate_basis, multiply, verify_dga)

from helpers import (input_positions, random_chained_table,
                     reference_defect, reference_structure, ref_multiply)

A2 = build_dga(split_circle(2), label="A2")
I2 = identity_bimodule(A2, label="I2")


class TestReversedCircles:
    def test_reversed_torus_algebra_verifies(self):
        rep = verify_dga(build_dga(reverse(torus_circle())), 10 ** 6)
        assert rep.passed
        assert all(c.exhaustive for c in rep.checks)

    def test_reversed_genus2_sampled(self):
        rep = verify_dga(build_dga(reverse(split_circle(2))), 10 ** 4)
        assert rep.passed


def test_materialize_counts_matched_pairs():
    asked = []

    def mult_fn(i, j):
        asked.append((i, j))
        return A2.product(i, j)

    B = DGAlgebra(A2.basis_names, A2.idempotents, A2.left_idem,
                  A2.right_idem, {}, mult_fn=mult_fn)
    B.materialize()
    assert len(asked) == len(set(asked)) == 24256
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


class TestGenus2Products:
    def test_matched_pairs_match_reference(self):
        c = split_circle(2)
        basis = enumerate_basis(c)
        matched = 0
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                if A2.right_idem[i] != A2.left_idem[j]:
                    continue
                matched += 1
                want = ref_multiply(c, a, b)
                assert multiply(c, a, b) == want
                assert A2.product(i, j) == {A2.index(str(d)) for d in want}
        assert matched == 24256

    def test_unmatched_pairs_are_zero(self):
        n = A2.size
        for i in range(n):
            r = A2.right_idem[i]
            for j in range(n):
                if A2.left_idem[j] != r:
                    assert A2.product(i, j) is EMPTY

    def test_cache_holds_matched_pairs_only(self):
        # a closure-backed copy of A2, partly filled by a sampled verify
        # (which stores zero products too): materialize asks the closure
        # once per matched pair and then keeps only the nonzero products
        asked = []

        def mult_fn(i, j):
            asked.append((i, j))
            return A2.product(i, j)

        A = DGAlgebra(A2.basis_names, A2.idempotents, A2.left_idem,
                      A2.right_idem, {i: A2.d(i) for i in range(A2.size)},
                      mult_fn=mult_fn)
        assert verify_dga(A, 10 ** 4).passed
        A.materialize()
        assert len(asked) == len(set(asked)) == 24256
        n = A2.size
        nonzero = {(i, j): A2.product(i, j) for i in range(n)
                   for j in range(n) if A2.product(i, j)}
        assert len(nonzero) == 5815
        assert A._mult == nonzero
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
        from strandcalc.bimodules import arity_zero_complex
        _, boundary = arity_zero_complex(I2)
        assert homology(I2) == f2.homology_dim(boundary, boundary)
        assert homology(box_bimodules(I2, I2)) == homology(I2)


class TestGenus2Evaluation:
    def test_four_critical_leaves_evaluate_closed(self):
        # Every letter goes to I2 and every critical leaf to ID + d(H) with
        # H(x, []) = x's own idempotent at x = h(1 3)h(5 7).  Boxing the
        # evaluated pieces takes 366,743 chain steps for one generator
        # pair: finite work, which box evaluation must finish.
        x = I2.gen_index("h(1 3)h(5 7)")
        H = make_morphism(I2, I2, {(x, ()): [(A2.index("h(1 3)h(5 7)"), x)]})
        crit = identity_morphism(I2) + morphism_differential(H)
        expr = clf.parse_expression(
            "H(H(V(CRIT(fl=a, fr=a, vc=e@z), "
            "CRIT(fl=aT[e@z]a, fr=e, vc=e@z)), "
            "CRIT(fl=b, fr=e, vc=e@y)), "
            "V(H(ID(e), CRIT(fl=a, fr=b, vc=e@z)), ID(aT[e@z]b)))")
        assign = clf.CLFAssignment(A2, default_letter=I2, default_crit=crit)
        F = clf.evaluate(expr, assign)
        assert F.arity_bound == 4
        assert len(F.table) == 202
        assert is_closed(F)


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
