"""Box tensor products of bimodules and morphisms."""

import gc
import weakref
from functools import lru_cache
from random import Random

import pytest

from strandcalc import boxes, morphisms
from strandcalc.bimodules import (TypeDABimodule, check_structure, homology,
                                  identity_bimodule, make_bimodule)
from strandcalc.circles import split_circle, torus_circle
from strandcalc.errors import MiddleAlgebraMismatch, UnknownSymbol
from strandcalc.morphisms import (DAMorphism, compose, identity_morphism,
                                  is_closed, is_homotopic,
                                  morphism_differential, same_shape,
                                  zero_morphism)
from strandcalc.boxes import (box_bimodules, box_morphism_left,
                              box_morphism_right, box_morphisms)
from strandcalc.strands import build_dga

from helpers import (random_chained_table, rescreened,
                     sampled_chained_table, unpruned_box_left,
                     unpruned_box_right, unpruned_chain_states,
                     unpruned_morphism_chain_states)

A = build_dga(torus_circle(), label="A")
I = identity_bimodule(A, label="I")
I0 = A.index("h(1 3)")

# the two-generator bimodule with an input-free differential entry
M2 = make_bimodule(A, A, [("u", I0, I0), ("v", I0, I0)],
                   {(0, ()): [(I0, 1)]}, label="M2")


def rand_closed(rng, cap=1, density=4):
    return identity_morphism(I) + morphism_differential(
        random_chained_table(rng, I, I, cap, density))


class TestBoxBimodules:
    def test_identity_box_identity_is_identity(self):
        B = box_bimodules(I, I)
        assert same_shape(B, I)
        # the canonical relabeling is the diagonal
        assert [g.name for g in B.gens] == \
            [f"{g.name}|{g.name}" for g in I.gens]

    def test_single_input_entry(self):
        B = box_bimodules(I, I)
        r1 = A.index("r[1-2]")
        x = B.gen_index("h(1 3)|h(1 3)")
        y = B.gen_index("h(2 4)|h(2 4)")
        assert B.entry(x, (r1,)) == frozenset(((r1, y),))

    def test_unit_laws_exact(self):
        for M in (I, M2):
            left = box_bimodules(identity_bimodule(A), M)
            right = box_bimodules(M, identity_bimodule(A))
            assert same_shape(left, M)
            assert same_shape(right, M)

    def test_zero_table_factor(self):
        Z = make_bimodule(A, A, [("z", I0, I0)], {})
        B = box_bimodules(I, Z)
        assert B.size == 1 and not B.d1

    def test_structure_passes_on_boxes(self):
        for N, M in ((I, I), (I, M2), (M2, I)):
            assert check_structure(box_bimodules(N, M)).passed

    def test_strict_associativity(self):
        for triple in ((I, I, I), (I, M2, I), (M2, I, I), (I, I, M2)):
            N, M, P = triple
            left = box_bimodules(box_bimodules(N, M), P)
            right = box_bimodules(N, box_bimodules(M, P))
            assert left.d1 == right.d1
            assert [(g.left, g.right) for g in left.gens] == \
                [(g.left, g.right) for g in right.gens]

    def test_homology_preserved(self):
        assert homology(box_bimodules(I, I)) == homology(I) == 10

    def test_middle_algebra_checked(self):
        B = build_dga(torus_circle(), label="B")
        J = identity_bimodule(B)
        with pytest.raises(MiddleAlgebraMismatch):
            box_bimodules(I, J)

    def test_colliding_generator_names_rejected(self):
        # "a|b" . "c" and "a" . "b|c" would both be named "a|b|c"
        N = make_bimodule(A, A, [("a|b", I0, I0), ("a", I0, I0)], {})
        M = make_bimodule(A, A, [("c", I0, I0), ("b|c", I0, I0)], {})
        with pytest.raises(UnknownSymbol):
            box_bimodules(N, M)


class TestBoxMorphismLeft:
    def test_identity_gives_identity(self):
        FI = box_morphism_left(identity_morphism(I), I)
        assert FI == identity_morphism(FI.source)

    def test_null_homotopy_transported(self):
        rng = Random(20)
        H = random_chained_table(rng, I, I, 1, 4)
        dH = morphism_differential(H)
        boxed = box_morphism_left(dH, I)
        assert is_closed(boxed)
        result = is_homotopic(boxed, zero_morphism(boxed.source,
                                                   boxed.target), 4)
        assert result

    def test_differential_commutes_with_boxing(self):
        # d(H box I) = (dH) box I: H box I is itself a witness
        rng = Random(27)
        for _ in range(10):
            H = random_chained_table(rng, I, I, 1, 4)
            lhs = morphism_differential(box_morphism_left(H, I))
            rhs = box_morphism_left(morphism_differential(H), I)
            assert lhs.table == rhs.table

    def test_arity_zero_part_matches_tensor(self):
        rng = Random(21)
        F = rand_closed(rng)
        boxed = box_morphism_left(F, I)
        # on pairs (x, y), the input-free action is F's with y carried along
        for (x, seq), outs in F.table.items():
            if seq:
                continue
            for b, x2 in outs:
                for j, g in enumerate(I.gens):
                    if I.gens[x].right != g.left:
                        continue
                    src = boxed.source.gen_index(
                        f"{F.source.gens[x].name}|{g.name}")
                    tgt = boxed.target.gen_index(
                        f"{F.target.gens[x2].name}|{g.name}")
                    assert (b, tgt) in boxed.entry(src, ())


class TestBoxMorphismRight:
    def test_identity_gives_identity(self):
        IG = box_morphism_right(I, identity_morphism(I))
        assert IG == identity_morphism(IG.source)

    def test_arity_zero_transport(self):
        rng = Random(22)
        G = rand_closed(rng, cap=0)
        IG = box_morphism_right(I, G)
        for (y, seq), outs in G.table.items():
            if seq:
                continue
            for g, y2 in outs:
                # pair x with matching right idempotent
                for x, xg in enumerate(I.gens):
                    if xg.right != G.source.gens[y].left:
                        continue
                    src = IG.source.gen_index(
                        f"{xg.name}|{G.source.gens[y].name}")
                    entry = IG.entry(src, ())
                    names = {(IG.source.left_algebra.name(b),
                              IG.target.gens[z].name) for b, z in entry}
                    assert (A.name(g),
                            f"{A.name(A.right_idem[g])}|"
                            f"{G.target.gens[y2].name}") in names

    def test_closedness_preserved(self):
        rng = Random(23)
        for _ in range(5):
            G = rand_closed(rng)
            assert is_closed(box_morphism_right(I, G))


class TestBoxMorphisms:
    def test_identity_box_identity(self):
        FG = box_morphisms(identity_morphism(I), identity_morphism(I))
        assert FG == identity_morphism(FG.source)

    def test_closed_for_closed_inputs(self):
        rng = Random(24)
        for _ in range(10):
            F, G = rand_closed(rng), rand_closed(rng)
            assert is_closed(box_morphisms(F, G))

    def test_lemma_one_consequence_homotopy_invariance(self):
        # replacing F by a homotopic morphism changes F box G by a homotopy
        rng = Random(25)
        F = rand_closed(rng, cap=0)
        G = rand_closed(rng, cap=0)
        H = random_chained_table(rng, I, I, 1, 3)
        F2 = F + morphism_differential(H)
        lhs = box_morphisms(F, G)
        rhs = box_morphisms(F2, G)
        assert is_homotopic(lhs, rhs, 4)

    def test_lemma_two_interchange(self):
        rng = Random(26)
        for _ in range(5):
            F, F2 = rand_closed(rng, 0, 3), rand_closed(rng, 0, 3)
            G, G2 = rand_closed(rng, 0, 3), rand_closed(rng, 0, 3)
            lhs = box_morphisms(compose(F2, F), compose(G2, G))
            rhs = compose(box_morphisms(F2, G2), box_morphisms(F, G))
            result = is_homotopic(lhs, rhs, 4)
            assert result


def walk_right(N, G):
    """The table of I . G by the walk that box_morphism_right makes when
    N is not I(A)."""
    return boxes._box_table(N, N, N, G.source, G.target, lambda j: (
        boxes._morphism_chain_states(G, j, N.input_prefixes)))


def retargeted(F, source, target):
    """F's table read as a morphism from source to target."""
    return DAMorphism(source, target, F.table, label=F.label)


@pytest.fixture
def calls(monkeypatch):
    """The box products built from now on, each as the (N, M) labels of
    its product N . M."""
    seen = []
    real = boxes.TypeDABimodule

    def counted(*args, label):
        seen.append(tuple(label.split(".")))
        return real(*args, label=label)
    monkeypatch.setattr(boxes, "TypeDABimodule", counted)
    return seen


class TestBoxBuilds:
    """Each distinct box bimodule is built once per call, matched by
    object identity; J and K are copies of I with the same shape."""

    J = identity_bimodule(A, label="J")
    K = identity_bimodule(A, label="K")

    def test_endomorphisms_build_one_box(self, calls):
        rng = Random(40)
        F, G = rand_closed(rng), rand_closed(rng)
        box_morphisms(F, G)
        assert calls == [("I", "I")]
        box_morphism_left(F, I)
        box_morphism_right(I, G)
        assert calls == [("I", "I")] * 3

    def test_distinct_bimodules_build_three_boxes(self, calls):
        rng = Random(41)
        F = retargeted(rand_closed(rng), I, self.J)
        G = retargeted(rand_closed(rng), I, self.K)
        box_morphisms(F, G)
        assert sorted(calls) == [("I", "I"), ("J", "I"), ("J", "K")]
        del calls[:]
        box_morphism_left(F, I)
        box_morphism_right(I, G)
        assert calls == [("I", "I"), ("J", "I"), ("I", "I"), ("I", "K")]

    @staticmethod
    def assert_identical(F, G):
        assert F.table == G.table and F.label == G.label
        for P, Q in ((F.source, G.source), (F.target, G.target)):
            assert same_shape(P, Q) and P.label == Q.label
            assert [g.name for g in P.gens] == [g.name for g in Q.gens]

    def test_matches_composite_of_one_sided_boxes(self):
        rng = Random(42)
        for _ in range(5):
            F = retargeted(rand_closed(rng), I, self.J)
            G = retargeted(rand_closed(rng), I, self.K)
            for F_, G_ in ((F, G), (rand_closed(rng), rand_closed(rng))):
                self.assert_identical(
                    box_morphisms(F_, G_),
                    compose(box_morphism_right(F_.target, G_),
                            box_morphism_left(F_, G_.source)))

    def test_matches_composite_on_genus_two(self):
        A2 = build_dga(split_circle(2), label="A2")
        I2 = identity_bimodule(A2, label="I2")
        rng = Random(43)
        F, G = (identity_morphism(I2)
                + random_chained_table(rng, I2, I2, 1, 6) for _ in range(2))
        FG = box_morphisms(F, G)
        assert FG.table != identity_morphism(FG.source).table
        self.assert_identical(FG, compose(box_morphism_right(I2, G),
                                          box_morphism_left(F, I2)))


def copy_of(P):
    """A new object with P's algebras, generators, table and label."""
    return TypeDABimodule(P.left_algebra, P.right_algebra, P.gens, P.table,
                          label=P.label)


class TestLiveProducts:
    """box_bimodules returns the product it built from the same two
    objects while that product is alive, and keeps none of the three
    alive itself."""

    @staticmethod
    def assert_fresh(P, N, M):
        """P equals a build from new objects equal to N and M."""
        Q = box_bimodules(copy_of(N), copy_of(M))
        assert P is not Q
        assert [(g.name, g.left, g.right) for g in P.gens] == \
            [(g.name, g.left, g.right) for g in Q.gens]
        assert P.label == Q.label and P.d1 == Q.d1

    def test_same_object_while_alive(self, calls):
        J, M = copy_of(I), copy_of(M2)
        JM = box_bimodules(J, M)
        pairs = ((J, J), (J, M), (M, J), (JM, J), (J, JM))
        products = [box_bimodules(N, M) for N, M in pairs]
        assert products[1] is JM and len(calls) == len(pairs)
        for (N, M), P in zip(pairs, products):
            assert box_bimodules(N, M) is P
            self.assert_fresh(P, N, M)
        assert len(calls) == 2 * len(pairs)
        assert box_bimodules(J, copy_of(J)) is not products[0]

    def test_rebuilt_after_the_product_dies(self, calls):
        N, M = copy_of(I), copy_of(M2)
        P = box_bimodules(N, M)
        dead = weakref.ref(P)
        del P
        gc.collect()
        assert dead() is None
        P = box_bimodules(N, M)
        assert len(calls) == 2
        self.assert_fresh(P, N, M)

    def test_entry_goes_with_the_right_factor(self):
        N, M = copy_of(I), copy_of(M2)
        P = box_bimodules(N, M)
        factor = weakref.ref(M)
        assert len(N.box_products) == 1
        del M
        gc.collect()
        assert factor() is None and P.size == 2
        assert len(N.box_products) == 0

    def test_cache_keeps_nothing_alive(self):
        N, M = copy_of(I), copy_of(M2)
        refs = [weakref.ref(X) for X in (N, M, box_bimodules(N, M))]
        del N, M
        gc.collect()
        assert [r() for r in refs] == [None] * 3

    def test_genus_two_products_equal_fresh_builds(self, calls):
        A2 = build_dga(split_circle(2), label="A2")
        I2 = identity_bimodule(A2, label="I2")
        B = box_bimodules(I2, I2)
        for N, M in ((I2, I2), (B, I2), (I2, B)):
            P = box_bimodules(N, M)
            assert box_bimodules(N, M) is P
            self.assert_fresh(P, N, M)
        assert len(calls) == 3 + 3


class TestWhiskerIdentity:
    """box_morphisms with an identity right factor equals the two-step
    (I . G) o (F . I), whether or not it takes the one-walk whisker
    (F.target strictly unital)."""

    @staticmethod
    def check(F, M):
        G = identity_morphism(M)
        FG = box_morphisms(F, G)
        TestBoxBuilds.assert_identical(FG, compose(
            box_morphism_right(F.target, G), box_morphism_left(F, M)))
        return FG

    def test_torus(self):
        IM2 = box_bimodules(I, M2)
        assert [P.strictly_unital for P in (I, M2, IM2)] == \
            [True, False, False]
        rng = Random(70)
        for P in (I, M2, IM2):
            for M in (I, M2, IM2):
                for cap in (0, 1, 2):
                    F = random_chained_table(rng, P, P, cap, 6)
                    self.check(F, M)
                    self.check(identity_morphism(P) + F, M)

    def test_idempotent_in_a_longer_input(self):
        # I plus D1(x, [iR(x), a]) = D1(x, [a]) is not strictly unital:
        # I . id_I feeds it the chain [iR(x), a], so F . G is not F . I
        a = next(a for a in range(A.size) if not A.is_idempotent(a))
        x = next(x for x, g in enumerate(I.gens) if g.right == A.left_idem[a])
        i = I.gens[x].right
        P = TypeDABimodule(A, A, I.gens, {**I.d1, (x, (i, a)): I.entry(
            x, (a,))}, label="P")
        assert not P.strictly_unital
        F = identity_morphism(P)
        assert self.check(F, I).table != box_morphism_left(F, I).table

    def test_genus_two(self):
        A2 = build_dga(split_circle(2), label="A2")
        I2 = identity_bimodule(A2, label="I2")
        assert I2.strictly_unital
        rng = Random(71)
        F = identity_morphism(I2) + sampled_chained_table(rng, I2, I2, 1, 6)
        FG = self.check(F, I2)
        assert FG.table == box_morphism_left(F, I2).table
        # I2 less D1 e [e] = e : e (the first sorted key) is not strictly
        # unital: I . id_I2 misses e's pairs, so F . G is not F . I
        drop = min(I2.d1)
        K = TypeDABimodule(A2, A2, I2.gens, {
            k: v for k, v in I2.d1.items() if k != drop}, label="K")
        assert not K.strictly_unital
        F = identity_morphism(K)
        FG = self.check(F, I2)
        assert (len(FG.table), len(box_morphism_left(F, I2).table)) == \
            (15, 16)


class TestPairingSanity:
    def test_identity_box_identity_homology(self):
        assert homology(box_bimodules(I, I)) == homology(I)

    def test_canonical_comparison_is_naive_quasi_iso(self):
        # I.I -> I sending (i, i) to i with unit output: an isomorphism
        # of tables, hence a naive quasi-isomorphism
        from strandcalc.morphisms import is_naive_quasi_iso, make_morphism
        B = box_bimodules(I, I)
        table = {(x, ()): [(B.gens[x].left, x)] for x in range(B.size)}
        F = make_morphism(B, I, table)
        assert is_closed(F)
        assert is_naive_quasi_iso(F)


class TestPrunedWalk:
    """The walks follow only prefixes of the fed table's input sequences;
    every walked box table equals the one fed by the unpruned walk (every
    chain up to the arity bound), key order included.  The public
    functions walk unless a factor is a unit: then their tables equal the
    oracle's as mappings, and a right-unit table is the factor's own."""

    @staticmethod
    def random_bimodule(rng, cap, label):
        # I's generators with a random chained table of arity <= cap; the
        # box never reads the structure relation
        return TypeDABimodule(A, A, I.gens, random_chained_table(
            rng, I, I, cap, 6).table, label=label)

    @staticmethod
    def assert_same(box, reference, ordered=True):
        """Equal to the oracle's table, key order included when ordered;
        and, though built without make_bimodule's or make_morphism's
        screen, a table that the screen returns unchanged, frozen values
        included."""
        assert box.table == reference
        if ordered:
            assert list(box.table.items()) == list(reference.items())
        assert list(rescreened(box).items()) == list(box.table.items())
        assert all(type(v) is frozenset for v in box.table.values())

    def check(self, F, G):
        """Every box of F : N -> N2 and G : M -> M2 against the oracle:
        the walks themselves, then the public functions."""
        N, N2, M, M2 = F.source, F.target, G.source, G.target
        unit = N.is_unit or M.is_unit
        for P, Q in ((N, M), (N2, M), (N2, M2)):
            reference = unpruned_box_left(P, P, P, Q)
            PQ = box_bimodules(P, Q)
            self.assert_same(DAMorphism(PQ, PQ, boxes._walk_left(P, Q)),
                             reference)
            self.assert_same(PQ, reference, ordered=not unit)
            assert (PQ.table is P.table) == Q.is_unit
        left = unpruned_box_left(F, N, N2, M)
        right = unpruned_box_right(N2, G)
        FM, N2G = box_morphism_left(F, M), box_morphism_right(N2, G)
        self.assert_same(DAMorphism(FM.source, FM.target,
                                    boxes._walk_left(F, M)), left)
        self.assert_same(DAMorphism(N2G.source, N2G.target,
                                    walk_right(N2, G)), right)
        self.assert_same(FM, left, ordered=not unit)
        self.assert_same(N2G, right, ordered=not unit)
        assert (FM.table is F.table) == M.is_unit
        NM, N2M = box_bimodules(N, M), box_bimodules(N2, M)
        reference = compose(
            DAMorphism(N2M, box_bimodules(N2, M2), right),
            DAMorphism(NM, N2M, left))
        self.assert_same(box_morphisms(F, G), reference.table,
                         ordered=not unit)

    @pytest.mark.parametrize("cap", [0, 1, 2, 3])
    def test_torus_morphisms_match_unpruned(self, cap):
        rng = Random(50 + cap)
        R, S = (self.random_bimodule(rng, cap, lab) for lab in "RS")
        for _ in range(4):
            for P, Q in ((I, I), (R, I), (I, S), (R, S), (S, M2)):
                self.check(random_chained_table(rng, P, P, cap, 10),
                           random_chained_table(rng, Q, Q, cap, 10))

    def test_genus_two_arity_two_matches_unpruned(self):
        A2 = build_dga(split_circle(2), label="A2")
        I2 = identity_bimodule(A2, label="I2")
        rng = Random(51)
        F = identity_morphism(I2) + sampled_chained_table(rng, I2, I2, 2, 8)
        G = identity_morphism(I2) + sampled_chained_table(rng, I2, I2, 1, 8)
        assert any(len(seq) == 2 for _, seq in box_morphisms(F, G).table)
        self.check(F, G)
        self.check(G, F)

    @pytest.mark.parametrize("cap", [0, 1, 2, 3])
    def test_states_are_the_unpruned_states_on_prefixes(self, cap):
        # the exact visit list: the unpruned walk's states whose chain is
        # an input prefix of T, in the same order, and nothing else
        rng = Random(60 + cap)
        R = self.random_bimodule(rng, cap, "R")
        T = random_chained_table(rng, I, I, cap, 8)
        G = random_chained_table(rng, I, R, max(cap - 1, 0), 8)
        prefixes = T.input_prefixes
        for M in (I, R, M2):
            for j in range(M.size):
                states = boxes._chain_states(M, j, prefixes)
                assert all(chain in prefixes for _, _, chain in states)
                kept = [s for s in unpruned_chain_states(M, j, T.arity_bound)
                        if s[2] in prefixes]
                assert len(states) == len(kept) and states == kept
        for j in range(I.size):
            states = list(boxes._morphism_chain_states(G, j, prefixes))
            kept = [s for s in unpruned_morphism_chain_states(
                G, j, T.arity_bound) if s[2] in prefixes]
            assert len(states) == len(kept) and states == kept

    def test_input_prefixes(self):
        rng = Random(61)
        T = random_chained_table(rng, I, I, 3, 8)
        expected = {}
        for _, seq in T.table:
            for k in range(len(seq) + 1):
                expected[seq[:k]] = expected.get(seq[:k], False) or \
                    k < len(seq)
        assert T.input_prefixes == expected
        assert zero_morphism(I, I).input_prefixes == {}


@lru_cache(maxsize=None)
def genus_two():
    A2 = build_dga(split_circle(2), label="A2")
    return A2, identity_bimodule(A2, label="I2")


@pytest.fixture
def walks(monkeypatch):
    """The walks made from now on: ("left", T) for each walked T . I and
    ("right", G) for each walked I . G."""
    seen = []
    walk_left, states = boxes._walk_left, boxes._morphism_chain_states

    def left(T, M):
        seen.append(("left", T))
        return walk_left(T, M)

    def right(G, *args):  # called once per generator of I . G's source
        if ("right", G) not in seen:
            seen.append(("right", G))
        return states(G, *args)
    monkeypatch.setattr(boxes, "_walk_left", left)
    monkeypatch.setattr(boxes, "_morphism_chain_states", right)
    return seen


class TestUnitLaws:
    """N . I(A) and I(A) . M are read off the other factor, and equal the
    unpruned walk as mappings, with the walk's names and labels; a factor
    that is not exactly I(A) takes the walk."""

    @staticmethod
    def assert_product(P, N, M):
        assert P.table == unpruned_box_left(N, N, N, M)
        assert [(g.name, g.left, g.right) for g in P.gens] == [
            (f"{N.gens[i].name}|{M.gens[j].name}", N.gens[i].left,
             M.gens[j].right) for i, j in boxes._matched_pairs(N, M)]
        assert P.label == f"{N.label}.{M.label}"

    @staticmethod
    def unscreened(I, table, label):
        """I's generators with a table, built without make_bimodule's
        screen (no structure relation is needed)."""
        return TypeDABimodule(I.left_algebra, I.right_algebra, I.gens,
                              table, label=label)

    def check_bimodules(self, I, others, walks):
        """Each N in others against the unit I from both sides."""
        for N in others:
            del walks[:]
            right, left = box_bimodules(N, I), box_bimodules(I, N)
            self.assert_product(right, N, I)
            self.assert_product(left, I, N)
            assert right.table is N.table and walks == []
            assert right.is_unit == N.is_unit

    def check_morphisms(self, I, tables, walks):
        """F . I and I . F for each F in tables."""
        for F in tables:
            del walks[:]
            FI, IF = box_morphism_left(F, I), box_morphism_right(I, F)
            assert FI.table == unpruned_box_left(F, F.source, F.target, I)
            assert IF.table == unpruned_box_right(I, F)
            assert FI.table is F.table and walks == []
            assert (FI.label, IF.label) == (f"{F.label}.id", f"id.{F.label}")

    def test_torus(self, walks):
        rng = Random(80)
        chained = [TestPrunedWalk.random_bimodule(rng, cap, f"R{cap}")
                   for cap in range(4)]
        assert any(not seq for N in chained for _, seq in N.table)
        self.check_bimodules(I, chained + [M2, I], walks)
        tables = [DAMorphism(P, P, random_chained_table(
            rng, P, P, cap, 8).table, label="F")
            for P in (I, M2) for cap in range(3)]
        self.check_morphisms(I, tables, walks)

    def test_genus_two(self, walks):
        A2, I2 = genus_two()
        rng = Random(81)
        chained = [self.unscreened(I2, sampled_chained_table(
            rng, I2, I2, cap, 12).table, f"R{cap}") for cap in (0, 1, 2)]
        assert any(not seq for N in chained for _, seq in N.table)
        self.check_bimodules(I2, chained + [I2], walks)
        tables = [DAMorphism(I2, I2, (identity_morphism(I2)
                                      + sampled_chained_table(
                                          rng, I2, I2, cap, 12)).table,
                             label="F") for cap in (0, 1, 2)]
        self.check_morphisms(I2, tables, walks)

    def test_near_identities_take_the_walk(self, walks):
        # I2 less D1 e [e] = e : e, and I less one non-idempotent entry,
        # are not I(A): boxing with them walks from both sides
        A2, I2 = genus_two()
        a = next(a for a in range(A.size) if not A.is_idempotent(a))
        x = next(x for x, g in enumerate(I.gens) if g.left == A.left_idem[a])
        rng = Random(82)
        for unit, drop in ((I2, min(I2.d1)), (I, (x, (a,)))):
            assert drop in unit.d1
            K = self.unscreened(unit, {k: v for k, v in unit.d1.items()
                                       if k != drop}, "K")
            R = self.unscreened(unit, sampled_chained_table(
                rng, unit, unit, 2, 8).table, "R")
            assert unit.is_unit and not K.is_unit
            del walks[:]
            RK, KR = box_bimodules(R, K), box_bimodules(K, R)
            self.assert_product(RK, R, K)
            self.assert_product(KR, K, R)
            F, G = (DAMorphism(P, P, sampled_chained_table(
                rng, P, P, 1, 8).table) for P in (R, K))
            assert box_morphism_left(F, K).table == \
                unpruned_box_left(F, R, R, K)
            assert box_morphism_right(K, G).table == \
                unpruned_box_right(K, G)
            # I . G walks K . K too
            assert walks == [("left", R), ("left", K), ("left", F),
                             ("right", G), ("left", K)]

    def test_recognised_once_per_object(self, monkeypatch):
        # identity_bimodule's results are units as built; a copy of I is
        # one by comparison, once; a product read off a unit by the right
        # unit takes its verdict without comparing tables
        compared = []
        real = morphisms.same_shape
        monkeypatch.setattr(morphisms, "same_shape",
                            lambda P, Q: compared.append(P) or real(P, Q))
        assert identity_bimodule(A).is_unit and compared == []
        J = copy_of(I)
        assert J.is_unit and J.table is not I.table and compared == [J]
        JJ = box_bimodules(J, J)
        assert JJ.table is J.table and compared == [J]
        assert [JJ.__dict__[verdict] for verdict in (
            "is_unit", "strictly_unital")] == [True] * 2
        assert not copy_of(M2).is_unit
