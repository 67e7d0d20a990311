"""Strand algebras: enumeration, product, differential, DGA packaging."""

import gc
import weakref
from collections import Counter

import pytest

from strandcalc.circles import make_pmc, reverse, split_circle, torus_circle
from strandcalc.strands import (DGAlgebra, StrandDiagram, build_dga,
                                diagram_name, enumerate_basis, make_diagram,
                                parse_diagram_name, verify_dga)

from helpers import (brute_force_diagrams, flipped, product_flips,
                     ref_dga_failures, ref_differential, ref_multiply,
                     table_mult)

T = torus_circle()
G2 = split_circle(2)
# a genus-2 circle that is not its own reversal (the split circle is)
ASYM = make_pmc(2, [(1, 3), (2, 6), (4, 7), (5, 8)])
OFF = reverse(ASYM)


AT = build_dga(T)


def product(a, b):
    """a . b in build_dga(T), diagrams by name."""
    return {AT.name(k) for k in AT.product(AT.index(a), AT.index(b))}


def differential(a):
    """d(a) in build_dga(T), diagrams by name."""
    return {AT.name(k) for k in AT.d(AT.index(a))}


class TestEnumeration:
    def test_torus_matches_brute_force(self):
        got = {(x.strands, x.horizontals) for x in enumerate_basis(T)}
        assert got == brute_force_diagrams(T)

    def test_torus_known_members(self):
        names = {diagram_name(x) for x in enumerate_basis(T)}
        # idempotents
        assert {"e", "h(1 3)", "h(2 4)", "h(1 3)h(2 4)"} <= names
        # the six single movers
        assert {"r[1-2]", "r[2-3]", "r[3-4]",
                "r[1-3]", "r[2-4]", "r[1-4]"} <= names
        assert len(names) == 16

    def test_idempotent_count_is_power_of_two(self):
        for c in (T, G2):
            idems = [x for x in enumerate_basis(c) if not x.strands]
            assert len(idems) == 2 ** (2 * c.genus)

    def test_genus2_matches_brute_force(self):
        got = {(x.strands, x.horizontals) for x in enumerate_basis(G2)}
        assert got == brute_force_diagrams(G2)

    def test_reverse_preserves_basis_count(self):
        assert len(enumerate_basis(reverse(T))) == len(enumerate_basis(T))
        assert OFF != ASYM
        assert len(enumerate_basis(OFF)) == len(enumerate_basis(ASYM))

    def test_reversed_genus2_matches_brute_force(self):
        assert reverse(G2) == G2 and OFF != reverse(OFF)
        got = {(x.strands, x.horizontals) for x in enumerate_basis(OFF)}
        assert got == brute_force_diagrams(OFF)

    def test_genus3_counts_and_order(self):
        basis = enumerate_basis(split_circle(3))
        counts = Counter(x.occupied for x in basis)
        assert [counts[k] for k in range(7)] == [
            1, 72, 1589, 12448, 30451, 14744, 343]
        key = [(x.occupied, x.strands, x.horizontals) for x in basis]
        assert all(a < b for a, b in zip(key, key[1:]))

    def test_deterministic_order(self):
        basis = enumerate_basis(T)
        key = [(x.occupied, x.strands, x.horizontals) for x in basis]
        assert key == sorted(key)


class TestMakeDiagram:
    def test_rejects_shared_source_pair(self):
        with pytest.raises(ValueError):
            make_diagram(T, [(1, 2), (3, 4)])

    def test_rejects_horizontal_on_touched_pair(self):
        with pytest.raises(ValueError):
            make_diagram(T, [(1, 2)], [(1, 3)])

    def test_accepts_source_touching_target(self):
        made = make_diagram(T, [(1, 2), (2, 3)])
        assert diagram_name(made) == "r[1-2]r[2-3]"


class TestMultiply:
    def test_idempotent_absorbs(self):
        assert product("h(1 3)", "r[1-2]") == {"r[1-2]"}

    def test_concatenation(self):
        assert product("r[1-2]", "r[2-3]") == {"r[1-3]"}

    def test_mismatched_expansion_is_zero(self):
        # target idempotents agree but no expansion matches
        assert product("r[2-3]", "r[1-2]") == set()

    def test_double_crossing_killed(self):
        # a ends on points {4, 3} = pairs both occupied; b starts on {2, 3}
        assert product("r[1-4]r[2-3]", "r[2-3]r[3-4]") == set()

    def test_matches_reference_on_every_torus_pair(self):
        basis = enumerate_basis(T)
        for i, a in enumerate(basis):
            for j, b in enumerate(basis):
                want = ref_multiply(T, a, b)
                assert AT.product(i, j) == {AT.index(str(x)) for x in want}

    def test_smeared_product_with_horizontal(self):
        # h(2 4) expansion: only the constant at 2 concatenates with r[2-3]
        assert product("h(2 4)", "r[2-3]") == {"r[2-3]"}


class TestDifferential:
    def test_crossing_resolution(self):
        assert differential("r[1-4]r[2-3]") == {"r[1-3]r[2-4]"}

    def test_single_strand_no_crossing(self):
        assert differential("r[1-4]") == set()

    def test_idempotents_closed(self):
        assert differential("h(1 3)") == set()

    def test_horizontal_crossing_resolved(self):
        # the constant at 3 inside h(1 3) crosses the strand 2->4
        assert differential("r[2-4]h(1 3)") == {"r[2-3]r[3-4]"}

    @pytest.mark.parametrize("circle, terms", [
        (T, 3), (G2, 392), (ASYM, 760), (OFF, 760)],
        ids=["torus", "split-genus-2", "asym", "off"])
    def test_matches_reference_on_every_element(self, circle, terms):
        A = build_dga(circle)
        for i, a in enumerate(enumerate_basis(circle)):
            want = ref_differential(circle, a)
            assert A.d(i) == {A.index(str(x)) for x in want}
        assert sum(len(A.d(i)) for i in range(A.size)) == terms


class TestBuildDGA:
    def test_torus_algebra_verifies_exhaustively(self):
        report = verify_dga(build_dga(T), 10 ** 6)
        assert report.passed
        assert all(c.exhaustive for c in report.checks)

    def test_unit_acts_on_every_element(self):
        A = build_dga(T)
        unit = frozenset(A.idempotents)
        for a in range(A.size):
            one = frozenset((a,))
            assert A.product_elements(unit, one) == one
            assert A.product_elements(one, unit) == one

    def test_genus2_exhaustive(self):
        report = verify_dga(build_dga(G2), 10 ** 4)
        assert report.passed
        n = 688
        assert [(c.name, c.exhaustive, c.tested, c.nontrivial)
                for c in report.checks] == [
            ("d_squared", True, n, 307), ("leibniz", True, n ** 2, 3335),
            ("associativity", True, n ** 3, 28704),
            ("idempotents", True, 1632, 1632)]

    @pytest.mark.parametrize("budget", [0, -3])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError):
            verify_dga(build_dga(T), budget)

    def test_budget_and_seed_are_read_by_no_check(self):
        assert (verify_dga(AT, 1, seed=5).checks
                == verify_dga(AT, 10 ** 6).checks)

    def test_materialize_asks_only_matched_pairs(self):
        # a closure-backed copy of the torus algebra whose rows also list
        # every unmatched pair, as zero: materialize asks each left factor
        # once, stores only the nonzero matched products, and the
        # coproduct index equals the one read off all 16^2 products
        A = build_dga(T)
        n = A.size
        asked = []

        def row_fn(i):
            asked.append(i)
            return {j: A.product(i, j) for j in range(n)}

        B = DGAlgebra(A.basis_names, A.idempotents, A.left_idem,
                      A.right_idem, {i: A.d(i) for i in range(A.size)},
                      row_fn=row_fn)
        B.materialize()
        assert sorted(asked) == list(range(n))
        for i in range(n):
            assert B.row(i) == {j: A.product(i, j) for j in range(n)
                                if A.product(i, j)}
            assert all(A.right_idem[i] == A.left_idem[j] for j in B.row(i))
        coproduct = {}
        for u in range(n):
            for v in range(n):
                for w in A.product(u, v):
                    coproduct.setdefault(w, []).append((u, v))
        assert B.coproduct_index == {k: tuple(sorted(v))
                                     for k, v in coproduct.items()}
        assert len(asked) == n

    def test_unmatched_pair_never_asks_the_closure(self):
        # a closure answering every pair with a nonzero value: the
        # unmatched pairs still multiply to zero, and each left factor's
        # row is asked once however many of its products are read
        A = build_dga(T)
        n = A.size
        asked = []

        def row_fn(i):
            asked.append(i)
            return {j: frozenset((j,)) for j in range(n)}

        B = DGAlgebra(A.basis_names, A.idempotents, A.left_idem,
                      A.right_idem, {}, row_fn=row_fn)
        unmatched = [(i, j) for i in range(n) for j in range(n)
                     if A.right_idem[i] != A.left_idem[j]]
        assert unmatched
        for i, j in unmatched:
            assert B.product(i, j) == frozenset()
            assert j not in B.row(i)
        assert sorted(asked) == sorted({i for i, _ in unmatched})

    def test_hand_written_row_keeps_matched_nonzero_only(self):
        # i and k idempotents, x from i to k, y from k to i; row_fn makes
        # the unmatched i.k nonzero and gives the matched x.y an empty
        # value: neither is stored, and both read as zero
        rows = {0: {0: frozenset((0,)), 2: frozenset((2,)),
                    1: frozenset((1,))},
                1: {1: frozenset((1,)), 3: frozenset((3,))},
                2: {1: frozenset((2,)), 3: frozenset()},
                3: {0: frozenset((3,))}}
        B = DGAlgebra(("i", "k", "x", "y"), (0, 1), (0, 1, 0, 1),
                      (0, 1, 1, 0), {}, row_fn=rows.__getitem__)
        assert B.product(0, 1) == frozenset()
        assert B.product(2, 3) == frozenset()
        B.materialize()
        assert [B.row(i) for i in range(4)] == [
            {0: frozenset((0,)), 2: frozenset((2,))},
            {1: frozenset((1,)), 3: frozenset((3,))},
            {1: frozenset((2,))},
            {0: frozenset((3,))}]
        assert B.product(0, 1) == B.product(2, 3) == frozenset()

    def test_materialize_releases_the_closure(self):
        # once every row is computed, the closure (and what it holds) is
        # dropped, only the nonzero products stay stored, and every
        # product reads as before
        A = build_dga(T)
        n = A.size
        asked = []

        def row_fn(i):
            asked.append(i)
            return A.row(i)

        B = DGAlgebra(A.basis_names, A.idempotents, A.left_idem,
                      A.right_idem, {}, row_fn=row_fn)
        ref = weakref.ref(row_fn)
        del row_fn
        B.materialize()
        gc.collect()
        assert ref() is None
        assert sorted(asked) == list(range(n))
        matched = [(i, j) for i in range(n) for j in range(n)
                   if A.right_idem[i] == A.left_idem[j]]
        stored = {(i, j): v for i in range(n) for j, v in B.row(i).items()}
        assert stored == {(i, j): A.product(i, j) for i, j in matched
                          if A.product(i, j)}
        assert len(stored) < len(matched)
        for i in range(n):
            for j in range(n):
                assert B.product(i, j) == A.product(i, j)
        assert len(asked) == n

    def test_idempotents_of_products(self):
        A = build_dga(T)
        # products respect idempotents: source of product = source of left
        for i in range(A.size):
            for j in range(A.size):
                for t in A.product(i, j):
                    assert A.left_idem[t] == A.left_idem[i]
                    assert A.right_idem[t] == A.right_idem[j]


class TestVerifyDGAFailures:
    def test_d_squared_failure_detected(self):
        # diff(x) = y, diff(y) = x, trivial products
        A = DGAlgebra(
            basis_names=("i", "x", "y"),
            idempotents=(0,),
            left_idem=(0, 0, 0),
            right_idem=(0, 0, 0),
            diff={1: frozenset((2,)), 2: frozenset((1,))},
            row_fn=table_mult({
                (0, 0): frozenset((0,)),
                (0, 1): frozenset((1,)), (1, 0): frozenset((1,)),
                (0, 2): frozenset((2,)), (2, 0): frozenset((2,))}),
        )
        report = verify_dga(A, 10 ** 4)
        check = report.check("d_squared")
        assert not check.passed
        assert check.witnesses == (("x",), ("y",))
        assert report.check("leibniz").passed
        assert report.check("associativity").passed


def support(name):
    """The intervals [k, k + 1] a diagram's moving strands cover, with
    multiplicity; products add supports and d preserves them."""
    return Counter(k for s, t in parse_diagram_name(name).strands
                   for k in range(s, t))


class TestMutations:
    """Planted errors in the torus algebra: every product flip of
    helpers.product_flips and every differential position toggled.  For
    each mutant verify_dga's failing pairs and triples equal the
    reference's, which evaluates every pair and triple; a flip survives
    exactly when the mutant is still a DGA."""

    @staticmethod
    def passes(B):
        report = verify_dga(B)
        assert (report.check("leibniz").witnesses,
                report.check("associativity").witnesses) \
            == ref_dga_failures(B)
        return report.passed

    def test_product_flips(self):
        flips = list(product_flips(AT))
        assert len(flips) == 113
        survivors = [tuple(map(AT.name, flip)) for flip in flips
                     if self.passes(flipped(AT, product=flip))]
        # dropping r[2-4]h(1 3) . r[1-3]h(2 4) = r[1-3]r[2-4], a true
        # product, leaves another DGA, which no axiom check can tell apart
        a, b, w = "r[2-4]h(1 3)", "r[1-3]h(2 4)", "r[1-3]r[2-4]"
        assert survivors == [(a, b, w)]
        assert {str(x) for x in ref_multiply(T, parse_diagram_name(a),
                                             parse_diagram_name(b))} == {w}

    def test_differential_flips(self):
        # a flip whose term has other idempotents than its element is
        # refused by DGAlgebra, which counts as killed
        n = AT.size
        refused, survivors = 0, []
        for i in range(n):
            for t in range(n):
                try:
                    B = flipped(AT, d=(i, t))
                except ValueError:
                    refused += 1
                    continue
                if self.passes(B):
                    survivors.append((AT.name(i), AT.name(t)))
        assert (n * n, refused) == (256, 188)
        # each survivor adds to d(a) a term of another support, which a
        # true differential never does; verify_dga checks the DGA axioms,
        # which these mutants satisfy, and not that grading
        assert survivors == [
            ("r[1-2]", "r[1-4]"), ("r[3-4]", "r[1-4]"),
            ("r[1-3]h(2 4)", "r[1-3]r[2-4]"),
            ("r[2-4]h(1 3)", "r[1-3]r[2-4]")]
        for a, t in survivors:
            assert AT.index(t) not in AT.d(AT.index(a))
            assert support(a) != support(t)


class TestNames:
    def test_round_trip(self):
        for x in enumerate_basis(T):
            assert parse_diagram_name(diagram_name(x)) == x

    def test_empty(self):
        assert diagram_name(StrandDiagram()) == "e"
        assert parse_diagram_name("e") == StrandDiagram()
