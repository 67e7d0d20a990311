"""Type DA bimodules: tables, structure maps, the structure relation."""

import gc
import itertools
import weakref
from random import Random

import pytest

from strandcalc import f2
from strandcalc.bimodules import (TypeDABimodule, check_structure,
                                  compute_Dn, homology, identity_bimodule,
                                  make_bimodule, sandwiched)
from strandcalc.boxes import (box_bimodules, box_morphism_left,
                              box_morphism_right, box_morphisms)
from strandcalc.circles import split_circle, torus_circle
from strandcalc.errors import IdempotentMismatch, NotAComplex, UnknownSymbol
from strandcalc.morphisms import (DAMorphism, compose, identity_morphism,
                                  is_closed, is_homotopic, mapping_cone,
                                  morphism_differential, zero_morphism)
from strandcalc.strands import DGAlgebra, build_dga, verify_dga

from helpers import (chained_coords, direct_Dn, is_chained_entry,
                     random_chained_table, random_unchained_table,
                     reference_arity_zero_complex, reference_defect,
                     reference_structure, relation_by_morphism_complex,
                     rescreened, sampled_chained_table, spy_solve,
                     table_mult)

A = build_dga(torus_circle(), label="A")
I = identity_bimodule(A, label="I")

I0 = A.index("h(1 3)")
I1 = A.index("h(2 4)")
R1 = A.index("r[1-2]")
R2 = A.index("r[2-3]")
R12 = A.index("r[1-3]")
GI0 = I.gen_index("h(1 3)")
GI1 = I.gen_index("h(2 4)")


class TestMakeBimodule:
    def test_empty(self):
        M = make_bimodule(A, A, [], {})
        assert M.size == 0 and M.arity_bound == 0
        assert check_structure(M).passed

    def test_identity_round_trips(self):
        M = make_bimodule(A, A, [(g.name, g.left, g.right) for g in I.gens],
                          I.d1)
        assert M.d1 == I.d1

    def test_idempotent_violation_rejected(self):
        # output r[2-3] at a generator with left idempotent h(1 3):
        # h(1 3).r[2-3] = 0, so compatibility fails
        with pytest.raises(IdempotentMismatch):
            make_bimodule(A, A, [("x", I0, I0)],
                          {(0, ()): [(R2, 0)]})

    def test_unknown_indices_rejected(self):
        with pytest.raises(UnknownSymbol):
            make_bimodule(A, A, [("x", I0, I0)], {(3, ()): [(I0, 0)]})
        with pytest.raises(UnknownSymbol):
            make_bimodule(A, A, [("x", R1, I0)], {})

    @pytest.mark.parametrize("table,error,message", [
        ({(0, ()): [(R2, 0)]}, IdempotentMismatch,
         "output r[2-3] : x at (x, arity 0) violates left-idempotent "
         "compatibility"),
        ({(1, ()): [(I0, 0)]}, UnknownSymbol,
         "unknown source generator index 1"),
        ({(0, (A.size,)): [(I0, 0)]}, UnknownSymbol,
         f"unknown right-algebra index {A.size}"),
        ({(0, ()): [(-1, 0)]}, UnknownSymbol,
         "unknown left-algebra index -1"),
        ({(0, ()): [(I0, 2)]}, UnknownSymbol,
         "unknown target generator index 2"),
    ])
    def test_rejection_messages(self, table, error, message):
        with pytest.raises(error) as info:
            make_bimodule(A, A, [("x", I0, I0)], table)
        assert str(info.value) == message

    # r[1-2] runs from h(1 3) to h(2 4) and r[2-3] back
    @pytest.mark.parametrize("gens,table,message", [
        ([("x", I0, I0)], {(0, (R1, R1)): [(R12, 0)]},
         "input r[1-2] at (x, arity 2) violates right-idempotent "
         "compatibility"),
        ([("x", I0, I0), ("y", I0, I1)], {(0, ()): [(I0, 1)]},
         "output h(1 3) : y at (x, arity 0) violates right-idempotent "
         "compatibility"),
        ([("x", I0, I0)], {(0, (R1,)): [(I0, 0)]},
         "output h(1 3) : x at (x, arity 1) violates right-idempotent "
         "compatibility"),
    ], ids=["inputs", "arity 0", "arity 1"])
    def test_right_rule_messages(self, gens, table, message):
        # a term on a zero element: inputs that do not compose from the
        # generator's right idempotent, or an output generator whose right
        # idempotent is not where the inputs end
        with pytest.raises(IdempotentMismatch) as info:
            make_bimodule(A, A, gens, table)
        assert str(info.value) == message

    def test_zero_entries_are_not_screened(self):
        # an entry that cancels to zero is dropped, whatever its inputs
        M = make_bimodule(A, A, [("x", I0, I0)], {(0, (R2,)): []})
        assert not M.table


def hand_written_algebras():
    """The small algebras of the verify_dga and identity-bimodule failure
    tests: a d^2 != 0 algebra on one idempotent and a Leibniz-violating
    one on two, whose d keeps idempotents.  In the second, x, y run from
    i to k and z from k to k, d(x) = y, and the one product y.z = i ends
    at the wrong idempotent (DGAlgebra takes products on trust)."""
    return [
        DGAlgebra(("i", "x", "y"), (0,), (0, 0, 0), (0, 0, 0),
                  {1: frozenset((2,)), 2: frozenset((1,))},
                  row_fn=table_mult({
                      (0, 0): frozenset((0,)),
                      (0, 1): frozenset((1,)), (1, 0): frozenset((1,)),
                      (0, 2): frozenset((2,)), (2, 0): frozenset((2,))})),
        DGAlgebra(("i", "k", "x", "y", "z"), (0, 1), (0, 1, 0, 0, 1),
                  (0, 1, 1, 1, 1), {2: frozenset((3,))},
                  row_fn=table_mult({
                      (0, 0): frozenset((0,)), (1, 1): frozenset((1,)),
                      (0, 2): frozenset((2,)), (2, 1): frozenset((2,)),
                      (0, 3): frozenset((3,)), (3, 1): frozenset((3,)),
                      (1, 4): frozenset((4,)), (4, 1): frozenset((4,)),
                      (3, 4): frozenset((0,))})),
    ]


class TestSandwiched:
    @pytest.mark.parametrize("algebra", [
        A, build_dga(torus_circle()), *hand_written_algebras()])
    def test_agrees_with_products(self, algebra):
        n = algebra.size
        triples = [(i, b, j) for i in range(n) for b in range(n)
                   for j in range(n)]
        for i, b, j in triples:
            exact = algebra.product_elements(
                algebra.product(i, b), frozenset((j,))) == {b}
            assert sandwiched(algebra, i, b, j) is exact
        assert any(sandwiched(algebra, *t) for t in triples)
        assert not all(sandwiched(algebra, *t) for t in triples)


class TestComputeDn:
    def test_d1_single_input(self):
        assert I.entry(GI0, (R1,)) == frozenset(((R1, GI1),))

    def test_d1_source_mismatch(self):
        # r[2-3] starts at the other idempotent
        assert I.entry(GI0, (R2,)) == frozenset()

    def test_d2_chains(self):
        got = compute_Dn(I, GI0, (R1, R2), 2)
        assert got == frozenset((((R1, R2), GI0),))

    def test_dn_empty_when_unsupported(self):
        assert compute_Dn(I, GI0, (R2, R1), 2) == frozenset()

    def test_recursion_matches_direct_splittings(self):
        rng = Random(0)
        for _ in range(200):
            x = rng.randrange(I.size)
            k = rng.randrange(0, 4)
            seq = tuple(rng.randrange(A.size) for _ in range(k))
            n = rng.randrange(1, 4)
            assert compute_Dn(I, x, seq, n) == direct_Dn(I, x, seq, n)


class TestCheckStructure:
    def test_identity_passes_with_complete_bound(self):
        report = check_structure(I)
        assert report.passed
        assert report.complete
        assert report.max_arity == 2 * I.arity_bound

    def test_unchained_enumeration_agrees(self):
        # the relation swept over every sequence of arity <= 2K, chained
        # or not, fails exactly where it fails on the chained ones, which
        # are all that check_structure counts
        rng = Random(14)
        gens = [(g.name, g.left, g.right) for g in I.gens]
        tables = [I.d1] + [random_chained_table(rng, I, I, 1, 3).table
                           for _ in range(4)]
        passed = []
        for table in tables:
            M = make_bimodule(A, A, gens, table)
            full = {(x, seq): reference_defect(M, x, seq)
                    for x in range(M.size)
                    for k in range(2 * M.arity_bound + 1)
                    for seq in itertools.product(range(A.size), repeat=k)}
            reference, _, positions = reference_structure(M)
            assert {k: v for k, v in full.items() if v} == reference
            report = check_structure(M)
            assert report.restricted_to_chained
            assert report.tested == positions < len(full)
            passed.append(report.passed)
        assert passed == [True, False, False, False, False]

    def test_uncompensated_differential_fails(self):
        # D1(x, [ib]) outputs an element with nonzero differential and no
        # compensating term; the relation fails at arity 1
        bad = A.index("r[1-4]r[2-3]")
        ib = A.index("h(1 3)h(2 4)")
        M = make_bimodule(A, A, [("x", ib, ib)],
                          {(0, (ib,)): [(bad, 0)]})
        report = check_structure(M)
        assert not report.passed
        assert report.witness[0] == "x"

    def test_zero_tables_pass(self):
        M = make_bimodule(A, A, [("x", I0, I0)], {})
        assert check_structure(M).passed

    def test_entry_removals_break_the_relation(self):
        # removing any identity-table entry breaks the relation, except the
        # unit row of the trivial idempotent: the table without
        # D1(e, [e]) = e : e is a valid (non-unital) bimodule, so the
        # relation cannot see that removal (the mutation suite catches it
        # through the defining rule instead)
        e_gen = I.gen_index("e")
        e_elt = A.index("e")
        for key in sorted(I.d1):
            table = dict(I.d1)
            del table[key]
            M = make_bimodule(A, A,
                              [(g.name, g.left, g.right) for g in I.gens],
                              table)
            if key == (e_gen, (e_elt,)):
                assert check_structure(M).passed
            else:
                assert not check_structure(M).passed


def assert_matches_reference(M):
    """check_structure agrees with the relation swept one input sequence
    at a time: same defect table, verdict, witness and position count."""
    table, witness, positions = reference_structure(M)
    D = DAMorphism(M, M, M.table)
    assert (morphism_differential(D) + compose(D, D)).table == table
    report = check_structure(M)
    assert report.passed == (not table)
    assert report.witness == witness
    assert report.tested == positions
    assert report.max_arity == 2 * M.arity_bound and report.complete
    assert report.restricted_to_chained
    return report


class TestStructureReference:
    GENS = [(g.name, g.left, g.right) for g in I.gens]

    def test_single_bit_mutants(self):
        # the criterion-3 universe: flip one output bit of the identity
        # table, or add one chained arity-<=1 output it lacks
        universe = [(key, out) for key in sorted(I.d1)
                    for out in sorted(I.d1[key])]
        universe += [((x, seq), out) for x, seq, out in chained_coords(I, I, 1)
                     if out not in I.d1.get((x, seq), frozenset())]
        failing = 0
        for key, out in universe:
            table = {k: set(v) for k, v in I.d1.items()}
            table.setdefault(key, set())
            table[key] ^= {out}
            M = make_bimodule(A, A, self.GENS, table)
            failing += not assert_matches_reference(M).passed
        assert (len(universe), failing) == (80, 74)

    def test_random_unchained_tables(self):
        # draws with no chain condition: make_bimodule refuses exactly
        # those with an entry that breaks the right rule, and the rest
        # match the reference
        rng = Random(12)
        refused = 0
        for t in range(40):
            table = dict(random_unchained_table(rng, I, I, 1,
                                                rng.randrange(1, 4)).table)
            if t % 2:
                for k, v in I.d1.items():
                    table[k] = table.get(k, frozenset()) ^ v
            chained = all(is_chained_entry(I, I, x, seq, outs)
                          for (x, seq), outs in table.items())
            if chained:
                assert_matches_reference(
                    make_bimodule(A, A, self.GENS, table))
            else:
                refused += 1
                with pytest.raises(IdempotentMismatch,
                                   match="right-idempotent"):
                    make_bimodule(A, A, self.GENS, table)
        assert refused == 28

    def test_identity_forced_unchained(self):
        # the identity table with one entry whose input starts at the
        # wrong idempotent is refused, naming that entry
        table = dict(I.d1)
        table[GI0, (R2,)] = frozenset(((I0, GI0),))
        with pytest.raises(IdempotentMismatch) as info:
            make_bimodule(A, A, self.GENS, table)
        assert str(info.value) == ("input r[2-3] at (h(1 3), arity 1) "
                                   "violates right-idempotent compatibility")

    def test_generators_with_distinct_idempotents(self):
        gens = [("x", I0, I1), ("y", I1, I1), ("w", I0, I0)]
        base = make_bimodule(A, A, gens, {})
        rng = Random(13)
        for _ in range(20):
            table = random_chained_table(rng, base, base, 1, 3).table
            assert_matches_reference(make_bimodule(A, A, gens, table))

    def test_tested_counts(self):
        M2 = make_bimodule(A, A, [("u", I0, I0), ("v", I0, I0)],
                           {(0, ()): [(I0, 1)]})
        assert assert_matches_reference(I).tested == 100
        assert assert_matches_reference(M2).tested == 2


class TestRelationInOnePass:
    def test_torus_bimodules_match_morphism_complex(self):
        # I, the tutorial's M2 and I box M2
        M2 = make_bimodule(A, A, [("u", I0, I0), ("v", I0, I0)],
                           {(0, ()): [(I0, 1)]})
        for M in (I, M2, box_bimodules(I, M2)):
            report = check_structure(M)
            assert (report.passed, report.witness, report.tested) == \
                relation_by_morphism_complex(M)


class TestIdentityBimodule:
    def test_generators_are_idempotents(self):
        assert [g.left for g in I.gens] == list(A.idempotents)
        assert [g.right for g in I.gens] == list(A.idempotents)

    def test_table_matches_multiplication(self):
        for a in range(A.size):
            x = list(A.idempotents).index(A.left_idem[a])
            y = list(A.idempotents).index(A.right_idem[a])
            assert I.entry(x, (a,)) == frozenset(((a, y),))

    def test_no_input_free_entries(self):
        assert all(seq for _, seq in I.d1)

    def test_arity_bound_one(self):
        assert I.arity_bound == 1

    def test_built_once_per_algebra(self):
        # every call wraps the same gens and table under its own label;
        # the stored parts do not keep the algebra alive
        J = identity_bimodule(A, label="J")
        assert J is not I and J.label == "J" and J.is_unit
        assert J.gens is I.gens and J.table is I.table
        B = build_dga(torus_circle())
        gone = weakref.ref(B)
        assert identity_bimodule(B).table is not I.table
        del B
        gc.collect()
        assert gone() is None

    def test_joins_keep_no_algebra_alive(self, monkeypatch):
        # the structure check, closedness and a homotopy search build the
        # mu_2 joins and their inverses on the table kept per algebra;
        # they hold no reference to it, so every fresh algebra is freed
        sizes = spy_solve(monkeypatch)
        gone = []
        for _ in range(3):
            B = build_dga(torus_circle())
            J = identity_bimodule(B)
            ID = identity_morphism(J)
            assert check_structure(J).passed and is_closed(ID)
            assert not is_homotopic(ID, zero_morphism(J, J), 1)
            assert J.after_inverse and J.before_inverse
            gone.append(weakref.ref(B))
        del B, J, ID
        gc.collect()
        assert len(sizes) == 3 and all(rows for rows, _, _ in sizes)
        assert [r() for r in gone] == [None] * 3


def reference_homology(M):
    _, boundary = reference_arity_zero_complex(M)
    return f2.homology_dim(boundary, boundary)


M2 = make_bimodule(A, A, [("u", I0, I0), ("v", I0, I0)],
                   {(0, ()): [(I0, 1)]}, label="M2")
FREE2 = make_bimodule(A, A, [("x", I0, I0), ("y", I1, I1)], {})


class TestArityZeroComplex:
    # the reference complex, built with its own product loop, that
    # homology must reproduce
    def test_identity_complex_is_algebra_differential(self):
        basis, boundary = reference_arity_zero_complex(I)
        # the complex is (A, d) indexed by (element, its right idempotent)
        assert len(basis) == A.size
        for col, (b, x) in enumerate(basis):
            expect = frozenset(
                basis.index((t, x)) for t in A.d(b))
            got = frozenset(r for r, c in boundary.entries if c == col)
            assert got == expect

    def test_boundary_squares_to_zero(self):
        _, boundary = reference_arity_zero_complex(I)
        assert not (boundary @ boundary)

    def test_zero_differential(self):
        M = make_bimodule(A, A, [("x", I0, I0)], {})
        basis, boundary = reference_arity_zero_complex(M)
        assert not boundary
        assert homology(M) == len(basis)


class TestHomology:
    def test_identity_matches_algebra_homology(self):
        # d on A has rank 3 in the 16-dimensional torus algebra
        assert homology(I) == reference_homology(I) == 10

    def test_zero_boundary_gives_dimension(self):
        basis, _ = reference_arity_zero_complex(FREE2)
        assert homology(FREE2) == len(basis) == reference_homology(FREE2)

    @pytest.mark.parametrize("M, expect", [
        (I, 10), (M2, 0), (box_bimodules(I, M2), 0),
        (box_bimodules(M2, I), 0)], ids=["I", "M2", "I.M2", "M2.I"])
    def test_matches_reference(self, M, expect):
        assert homology(M) == reference_homology(M) == expect

    def test_two_generator_acyclic(self):
        assert check_structure(M2).passed
        assert homology(M2) == 0

    def test_not_a_complex_propagates(self):
        # an undifferentiable table: d(u) = r0 x v with d(r0) != 0 makes
        # the boundary fail to square to zero, first at the coordinate
        # h(1 3)h(2 4) : u, which the error names with the bimodule
        bad = A.index("r[1-4]r[2-3]")
        ib = A.index("h(1 3)h(2 4)")
        M = make_bimodule(A, A, [("u", ib, ib), ("v", ib, ib)],
                          {(0, ()): [(bad, 1)]}, label="W")
        with pytest.raises(NotAComplex, match=r"^homology of W: d\.d is "
                           r"nonzero at h\(1 3\)h\(2 4\) : u$"):
            homology(M)


class TestIdentityTracksAlgebraAxioms:
    def test_broken_product_breaks_the_identity_bimodule(self):
        # y.z = i where y.z should end at k: with d(x) = y, Leibniz fails
        # at (x, z), associativity at (y, z, c) for each c that i or k
        # multiplies, and the identity bimodule fails the structure
        # relation at (i, [y, z])
        B = hand_written_algebras()[1]
        report = verify_dga(B)
        assert report.check("d_squared").passed
        assert report.check("leibniz").witnesses == (("x", "z"),)
        assert report.check("associativity").witnesses == tuple(
            ("y", "z", c) for c in ("i", "k", "x", "y"))
        rep = check_structure(identity_bimodule(B))
        assert not rep.passed
        assert rep.witness == ("i", ("y", "z"), ("i : i", "i : k"))

    def test_differential_moving_idempotents_refused(self):
        # d(x) = y with x from i to k and y from k to i
        with pytest.raises(ValueError) as info:
            DGAlgebra(("i", "k", "x", "y"), (0, 1), (0, 1, 0, 1),
                      (0, 1, 1, 0), {2: frozenset((3,))},
                      row_fn=table_mult({}))
        assert str(info.value) == ("d(x) has the term y, whose idempotents "
                                   "differ")

    def test_verified_algebra_gives_checked_identity(self):
        assert check_structure(identity_bimodule(A)).passed


class TestTablesKeepBothRules:
    def test_built_tables_rescreen_unchanged(self):
        # every table the library builds keeps both idempotent rules, so
        # checked_table gives it back unchanged: the morphism-complex
        # differential, composition, box products walked, read off a
        # unit and whiskered, the mapping cone, identities and a homotopy
        # witness, on random chained inputs over the torus and genus 2
        rng = Random(33)
        P, Q = (TypeDABimodule(A, A, I.gens, random_chained_table(
            rng, I, I, cap, 6).table, label=f"R{cap}") for cap in (1, 2))
        F, F2 = (random_chained_table(rng, P, P, 2, 6) for _ in range(2))
        G = random_chained_table(rng, Q, Q, 1, 6)
        FI = random_chained_table(rng, I, I, 2, 6)
        ID = identity_morphism(I)
        witness = is_homotopic(ID + morphism_differential(
            random_chained_table(rng, I, I, 1, 5)), ID, 1)
        B2 = build_dga(split_circle(2))
        I2 = identity_bimodule(B2)
        H2 = sampled_chained_table(rng, I2, I2, 2, 8)
        built = [
            morphism_differential(F), compose(F2, F),
            box_bimodules(P, Q), box_bimodules(P, I), box_bimodules(I, Q),
            box_morphisms(F, G), box_morphism_left(F, I),
            box_morphism_right(I, G), box_morphisms(FI, identity_morphism(Q)),
            mapping_cone(F), I, identity_morphism(P), witness.h,
            morphism_differential(H2),
            box_morphisms(H2, identity_morphism(I2))]
        assert all(T.table for T in built)
        for T in built:
            assert rescreened(T) == T.table
