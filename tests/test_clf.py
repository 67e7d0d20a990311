"""The decomposition calculus: words, rewrites, evaluation."""

import time
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from strandcalc.bimodules import identity_bimodule
from strandcalc.boxes import box_morphisms
from strandcalc.circles import torus_circle
from strandcalc.errors import (AssignmentIncomplete, BoundaryMismatch,
                               IncompatibleCycle, NotInTwistForm,
                               ParseError)
from strandcalc.morphisms import (compose, identity_morphism, is_closed,
                                  is_homotopic, morphism_differential)
from strandcalc.strands import build_dga
from strandcalc import clf
from strandcalc.clf import (AbstractCLF, CLFAssignment, CritLeaf, CycleLabel,
                            EMPTY_WORD, HComp, IdentityLeaf, VComp, Word,
                            compose_h, compose_v, concat, evaluate,
                            expression_str, flatten, hurwitz,
                            initial_word, inverse, letter, normalize_horizontal,
                            parse_cycle_label, parse_expression, parse_word,
                            resulting_word, same_boundaries, standard_form,
                            twist, vcomp_count, word_str, words_equal)

from helpers import random_chained_table

A_LET = letter("a")
B_LET = letter("b")
ZETA = CycleLabel(EMPTY_WORD, "z")
ETA = CycleLabel(EMPTY_WORD, "y")


# --- words -------------------------------------------------------------------

letters_strategy = st.lists(
    st.tuples(st.sampled_from("abcd"), st.booleans()), max_size=8)


@given(letters_strategy)
def test_reduction_is_idempotent(letters):
    w = Word(tuple(letters))
    assert Word(w.letters) == w


@given(letters_strategy)
def test_inverse_cancels(letters):
    w = Word(tuple(letters))
    assert not concat(w, inverse(w))
    assert not concat(inverse(w), w)


@given(letters_strategy, letters_strategy, letters_strategy)
def test_concat_associative(a, b, c):
    u, v, w = Word(tuple(a)), Word(tuple(b)), Word(tuple(c))
    assert concat(concat(u, v), w) == concat(u, concat(v, w))


def test_twist_expansion_is_conjugation():
    label = CycleLabel(concat(A_LET, B_LET), "z")
    expect = concat(A_LET, B_LET, twist(ZETA),
                    inverse(concat(A_LET, B_LET)))
    assert words_equal(twist(label), expect)


def test_word_round_trip():
    for text in ("e", "a", "ab'c", "T[e@z]", "T[ab@z]'a",
                 "T[T[e@z]b@y]"):
        assert word_str(parse_word(text)) == text


# --- construction and boundary data ------------------------------------------

class TestMakeCLF:
    def test_pure_twist(self):
        w = AbstractCLF(EMPTY_WORD, EMPTY_WORD, ETA)
        assert not w.initial_word
        assert words_equal(w.resulting_word, twist(ETA))

    def test_defining_relation(self):
        w = AbstractCLF(A_LET, B_LET, ZETA)
        assert word_str(w.initial_word) == "ab"
        assert word_str(w.resulting_word) == "aT[e@z]b"

    def test_factoring_pure_twist_trivial(self):
        leaf = CritLeaf(AbstractCLF(EMPTY_WORD, EMPTY_WORD, ZETA))
        empty = IdentityLeaf(EMPTY_WORD)
        assert clf.prune_empty_identities([empty, leaf, empty]) == [leaf]


class TestCompose:
    def test_vertical_legal_iff_words_match(self):
        w = CritLeaf(AbstractCLF(EMPTY_WORD, EMPTY_WORD, ZETA))
        compose_v(w, IdentityLeaf(twist(ZETA)))
        with pytest.raises(BoundaryMismatch):
            compose_v(w, IdentityLeaf(A_LET))

    def test_horizontal_words_multiply(self):
        h = compose_h(IdentityLeaf(A_LET), IdentityLeaf(B_LET))
        assert word_str(initial_word(h)) == "ab"
        assert word_str(resulting_word(h)) == "ab"

    def test_nodes_carry_boundary_words(self):
        a, b = IdentityLeaf(A_LET), IdentityLeaf(B_LET)
        crit = CritLeaf(AbstractCLF(A_LET, EMPTY_WORD, ZETA))
        v = compose_v(crit, compose_h(a, IdentityLeaf(twist(ZETA))))
        assert (v.initial, v.resulting) == (A_LET, concat(A_LET, twist(ZETA)))
        h = compose_h(a, compose_h(b, v))
        assert word_str(h.initial) == "aba"
        assert word_str(h.resulting) == "abaT[e@z]"

    def test_equality_is_structural(self):
        # nodes compare and hash by kinds, part counts and leaves, so the
        # two associations of one chain are the same tree
        a, b = IdentityLeaf(A_LET), IdentityLeaf(B_LET)
        h = compose_h(compose_h(a, b), a)
        assert h == compose_h(a, compose_h(b, a))
        assert hash(h) == hash(compose_h(a, compose_h(b, a)))
        top = compose_h(a, IdentityLeaf(EMPTY_WORD))
        v = compose_v(compose_v(a, a), top)
        assert v == compose_v(a, compose_v(a, top))
        assert hash(v) == hash(compose_v(a, compose_v(a, top)))
        assert h != compose_h(a, compose_h(a, b))
        assert v != compose_v(a, top)
        assert compose_h(a, a) != compose_v(a, a)
        assert repr(v) == "V(V(ID(a), ID(a)), H(ID(a), ID(e)))"


# --- rewrites ------------------------------------------------------------------

def random_expression(rng: Random, leaves: int):
    """A random well-formed tree with the given number of leaves."""
    symbols = "ab"
    cycles = [ZETA, ETA, CycleLabel(letter("a"), "z")]

    def leaf():
        if rng.random() < 0.4:
            w = EMPTY_WORD
            for _ in range(rng.randrange(3)):
                w = concat(w, letter(rng.choice(symbols),
                                     rng.random() < 0.3))
            return IdentityLeaf(w)
        f_l = (letter(rng.choice(symbols)) if rng.random() < 0.5
               else EMPTY_WORD)
        f_r = (letter(rng.choice(symbols)) if rng.random() < 0.5
               else EMPTY_WORD)
        return CritLeaf(AbstractCLF(f_l, f_r, rng.choice(cycles)))

    def build(n):
        if n == 1:
            return leaf()
        k = rng.randrange(1, n)
        left = build(k)
        right = build(n - k)
        if rng.random() < 0.5:
            return compose_h(left, right)
        # force a legal vertical composition: identity on the middle word
        return compose_v(left, IdentityLeaf(resulting_word(left)))

    return build(leaves)


words_strategy = letters_strategy.map(lambda letters: Word(tuple(letters)))
leaf_strategy = st.one_of(
    st.builds(IdentityLeaf, words_strategy),
    st.builds(lambda f_l, f_r, cycle: CritLeaf(AbstractCLF(f_l, f_r, cycle)),
              words_strategy, words_strategy,
              st.builds(CycleLabel, words_strategy, st.sampled_from("yz"))))


def compose_strategy(children):
    """H of two trees, or V of a tree with an identity on its free edge."""
    def build(args):
        how, a, b = args
        if how == "H":
            return compose_h(a, b)
        if how == "V":
            return compose_v(a, IdentityLeaf(resulting_word(a)))
        return compose_v(IdentityLeaf(initial_word(b)), b)
    return st.tuples(st.sampled_from("HVW"), children, children).map(build)


class TestNormalize:
    def test_already_horizontal_unchanged(self):
        e = compose_h(IdentityLeaf(A_LET),
                      CritLeaf(AbstractCLF(EMPTY_WORD, EMPTY_WORD, ZETA)))
        assert normalize_horizontal(e) == e

    def test_single_vertical(self):
        bottom = CritLeaf(AbstractCLF(EMPTY_WORD, EMPTY_WORD, ZETA))
        top = CritLeaf(AbstractCLF(twist(ZETA), EMPTY_WORD, ETA))
        v = compose_v(bottom, top)
        n = normalize_horizontal(v)
        assert vcomp_count(n) == 0
        leaves = flatten(n)
        assert isinstance(leaves[1], IdentityLeaf)
        assert words_equal(leaves[1].word, inverse(twist(ZETA)))
        assert words_equal(initial_word(v), initial_word(n))
        assert words_equal(resulting_word(v), resulting_word(n))

    def test_random_trees(self):
        rng = Random(31)
        for _ in range(100):
            e = random_expression(rng, rng.randrange(1, 9))
            n = normalize_horizontal(e)
            assert vcomp_count(n) == 0
            assert words_equal(initial_word(e), initial_word(n))
            assert words_equal(resulting_word(e), resulting_word(n))


class TestHurwitz:
    def test_label_rewrite(self):
        e = compose_h(CritLeaf(AbstractCLF(EMPTY_WORD, EMPTY_WORD, ZETA)),
                      CritLeaf(AbstractCLF(EMPTY_WORD, EMPTY_WORD, ETA)))
        h = hurwitz(e, 0)
        leaves = flatten(h)
        assert leaves[0].clf.cycle == CycleLabel(twist(ZETA), "y")
        assert leaves[1].clf.cycle == ZETA
        assert words_equal(resulting_word(e), resulting_word(h))

    def test_not_an_involution_on_labels(self):
        e = compose_h(CritLeaf(AbstractCLF(EMPTY_WORD, EMPTY_WORD, ZETA)),
                      CritLeaf(AbstractCLF(EMPTY_WORD, EMPTY_WORD, ETA)))
        twice = hurwitz(hurwitz(e, 0), 0)
        assert expression_str(twice) != expression_str(e)
        assert words_equal(resulting_word(twice), resulting_word(e))

    def test_leaf_count_preserved(self):
        e = compose_h(compose_h(
            IdentityLeaf(A_LET),
            CritLeaf(AbstractCLF(EMPTY_WORD, EMPTY_WORD, ZETA))),
            CritLeaf(AbstractCLF(EMPTY_WORD, EMPTY_WORD, ETA)))
        h = hurwitz(e, 1)
        crit = [l for l in flatten(h) if isinstance(l, CritLeaf)]
        assert len(crit) == 2

    def test_rejects_non_twist_positions(self):
        e = compose_h(CritLeaf(AbstractCLF(A_LET, EMPTY_WORD, ZETA)),
                      CritLeaf(AbstractCLF(EMPTY_WORD, EMPTY_WORD, ETA)))
        with pytest.raises(NotInTwistForm):
            hurwitz(e, 0)


class TestStandardForm:
    def test_single_pure_twist(self):
        wg = AbstractCLF(EMPTY_WORD, EMPTY_WORD, ZETA)
        e = CritLeaf(AbstractCLF(EMPTY_WORD, EMPTY_WORD, ZETA))
        s, conj = standard_form(e, wg)
        leaves = flatten(s)
        assert [type(l).__name__ for l in leaves] == \
            ["IdentityLeaf", "CritLeaf", "IdentityLeaf"]
        assert conj == [EMPTY_WORD]
        assert words_equal(resulting_word(s), resulting_word(e))

    def test_conjugated_cycle(self):
        wg = AbstractCLF(EMPTY_WORD, EMPTY_WORD, ETA)
        e = CritLeaf(AbstractCLF(EMPTY_WORD, EMPTY_WORD,
                                 CycleLabel(A_LET, "y")))
        s, conj = standard_form(e, wg)
        assert conj == [A_LET]
        assert words_equal(initial_word(s), initial_word(e))
        assert words_equal(resulting_word(s), resulting_word(e))

    def test_foreign_base_rejected(self):
        wg = AbstractCLF(EMPTY_WORD, EMPTY_WORD, ZETA)
        e = CritLeaf(AbstractCLF(EMPTY_WORD, EMPTY_WORD, ETA))
        with pytest.raises(IncompatibleCycle):
            standard_form(e, wg)

    def test_alternating_shape(self):
        rng = Random(33)
        wg = AbstractCLF(EMPTY_WORD, EMPTY_WORD, ZETA)
        for _ in range(20):
            e = normalize_horizontal(random_expression(rng,
                                                       rng.randrange(1, 7)))
            leaves = flatten(e)
            if any(isinstance(l, CritLeaf)
                   and l.clf.cycle.base != "z" for l in leaves):
                with pytest.raises(IncompatibleCycle):
                    standard_form(e, wg)
                continue
            s, _ = standard_form(e, wg)
            out = flatten(s)
            kinds = [type(l).__name__ for l in out]
            assert kinds[::2] == ["IdentityLeaf"] * ((len(out) + 1) // 2)
            assert all(k == "CritLeaf" for k in kinds[1::2])
            assert words_equal(initial_word(s), initial_word(e))
            assert words_equal(resulting_word(s), resulting_word(e))


# --- parsing --------------------------------------------------------------------

class TestExpressionText:
    def test_round_trip(self):
        texts = [
            "ID(e)",
            "ID(ab')",
            "CRIT(fl=a, fr=b, vc=ab@z)",
            "H(ID(a), CRIT(fl=e, fr=e, vc=e@z))",
            "V(CRIT(fl=e, fr=e, vc=e@z), ID(T[e@z]))",
        ]
        for text in texts:
            assert expression_str(parse_expression(text)) == text

    def test_boundary_checked_at_parse(self):
        # a V whose middle words differ is a parse error at that V
        for text, column in (("V(CRIT(fl=e, fr=e, vc=e@z), ID(a))", 0),
                             ("H(ID(a), V(ID(a), ID(b)))", 9)):
            with pytest.raises(ParseError) as info:
                parse_expression(text, 3, 8)
            assert (info.value.line, info.value.column) == (3, 8 + column)
            assert "does not match" in str(info.value)

    @given(st.recursive(leaf_strategy, compose_strategy, max_leaves=12))
    def test_round_trip_random_trees(self, expr):
        assert parse_expression(expression_str(expr)) == expr

    def test_right_nested_input_prints_left_nested(self):
        for head in "HV":
            expr = parse_expression(
                f"{head}(ID(a), {head}(ID(a), ID(a)))")
            assert len(expr.parts) == 3
            assert expression_str(expr) == \
                f"{head}({head}(ID(a), ID(a)), ID(a))"

    @pytest.mark.parametrize("head,kind,vcomps", [("H", HComp, 0),
                                                  ("V", VComp, 2000)])
    def test_long_chains(self, head, kind, vcomps):
        # 2,000 binary compositions nest 2,000 deep in the text; the flat
        # node, the parser and every walk stay free of recursion per link
        text = "ID(a)"
        for _ in range(2000):
            text = f"{head}({text}, ID(a))"
        expr = parse_expression(text)
        assert isinstance(expr, kind) and len(expr.parts) == 2001
        assert expression_str(expr) == text
        assert vcomp_count(expr) == vcomps
        flat = normalize_horizontal(expr)
        assert vcomp_count(flat) == 0
        assert words_equal(initial_word(flat), initial_word(expr))
        assert words_equal(resulting_word(flat), resulting_word(expr))
        F = evaluate(expr, toy_assignment())
        assert F.table == identity_morphism(F.source).table

    @staticmethod
    def _alternating(layers, inner="CRIT(fl=e, fr=e, vc=e@z)"):
        # each V(H(.., ID(e)), ID(T[e@z])) wraps two alternating nodes
        text = inner
        for _ in range(layers):
            text = f"V(H({text}, ID(e)), ID(T[e@z]))"
        return text

    def test_deep_alternation(self):
        # 600 layers alternate 1,200 deep; every walk is one iterative fold
        # and equality, hashing and repr walk the tree without recursion
        text = self._alternating(600)
        crit = CritLeaf(AbstractCLF(EMPTY_WORD, EMPTY_WORD, ZETA))
        built = crit
        for _ in range(600):
            built = compose_v(compose_h(built, IdentityLeaf(EMPTY_WORD)),
                              IdentityLeaf(twist(ZETA)))
        first, second = parse_expression(text), parse_expression(text)
        assert first is not second
        assert first == second == built and hash(first) == hash(second)
        assert repr(first) == repr(second) == text
        deep_change = "H(ID(a), CRIT(fl=a', fr=e, vc=e@z))"
        assert first != parse_expression(self._alternating(600, deep_change))
        for expr in (first, built):
            assert vcomp_count(expr) == 600
            assert expression_str(expr) == text
            flat = normalize_horizontal(expr)
            assert vcomp_count(flat) == 0
            assert same_boundaries(expr, flat)
        assert is_closed(evaluate(first, toy_assignment())).closed

    def test_alternation_work_is_linear(self, monkeypatch):
        # nodes store their boundary words, so building a node multiplies
        # its parts' words once instead of re-walking its subtree
        calls = [0]
        counted = clf.concat

        def concat(*words):
            calls[0] += 1
            return counted(*words)

        monkeypatch.setattr(clf, "concat", concat)
        work = {}
        for layers in (300, 600, 1200):
            text = self._alternating(layers)
            calls[0] = 0
            normalize_horizontal(parse_expression(text))
            work[layers] = calls[0]
        assert work[1200] - work[600] == 2 * (work[600] - work[300]) > 0

    def test_normalizing_a_chain_multiplies_words_once(self, monkeypatch):
        # a 2,000-part H node is rebuilt as one node: one concat per
        # boundary word, not two per link
        parts = ["ID(a)", "ID(b)", "ID(b')"]
        text = parts[0]
        for i in range(1, 2000):
            text = f"H({text}, {parts[i % 3]})"
        expr = parse_expression(text)
        assert len(expr.parts) == 2000
        calls = [0]
        counted = clf.concat

        def concat(*words):
            calls[0] += 1
            return counted(*words)

        monkeypatch.setattr(clf, "concat", concat)
        flat = normalize_horizontal(expr)
        assert calls[0] <= 2
        assert flat == expr
        assert (flat.initial, flat.resulting) == (expr.initial,
                                                  expr.resulting)
        assert flat.initial.letters == (("a", False),) * 667 + (("b", False),)

    def test_chain_of_none_or_one(self):
        assert clf.chain([]) == IdentityLeaf(EMPTY_WORD)
        leaf = IdentityLeaf(A_LET)
        assert clf.chain([leaf]) is leaf

    def test_twist_nesting_limit(self):
        # T[..] letters nest MAX_TWIST_NESTING deep; one more is a parse
        # error at the first bracket past the limit
        def nested(n):
            return "T[" * n + "e@z" + "]@z" * (n - 1) + "]"

        limit = clf.MAX_TWIST_NESTING
        assert word_str(parse_word(nested(limit))) == nested(limit)
        with pytest.raises(ParseError) as info:
            parse_expression(f"ID(a{nested(limit + 1)})", 4, 10)
        assert (info.value.line, info.value.column) == (4, 10 + 5 + 2 * limit)

    def test_vertical_chain_parses_as_fast_as_horizontal(self):
        # compose_v reads the stored words of its two sides instead of
        # scanning every part, so building a chain link by link is linear
        texts = {}
        for head in "HV":
            texts[head] = "ID(a)"
            for _ in range(2000):
                texts[head] = f"{head}({texts[head]}, ID(a))"
        best = {"H": float("inf"), "V": float("inf")}
        for _ in range(3):
            for head, text in texts.items():
                start = time.perf_counter()
                parse_expression(text)
                best[head] = min(best[head], time.perf_counter() - start)
        assert best["V"] <= 2 * best["H"]

    @pytest.mark.parametrize("text,column", [
        ("H(ID(a), ID(q?))", 13),
        ("H(ID(a), ID( q?))", 14),
        ("CRIT(fl=a, fr= b?, vc=e@z)", 16),
        ("H(ID(a) ID(b))", 8),
        ("H(ID(a), ID(b), ID(c))", 14),
        ("V(ID(a))", 7),
        ("H(ID(a), ID(b)", 14),
        ("H(ID(a), ID(b)) x", 16),
        ("H(ID(a), Q(b))", 9),
        ("CRIT(fl=a, fr=b, vc=ab)", 20),
        ("CRIT(fl=a, fx=b, vc=e@z)", 11),
    ])
    def test_parse_errors_located(self, text, column):
        with pytest.raises(ParseError) as info:
            parse_expression(text, 7, 100)
        assert (info.value.line, info.value.column) == (7, 100 + column)

    def test_cycle_label_round_trip(self):
        for text in ("e@z", "ab'@y", "T[e@z]a@y"):
            assert str(parse_cycle_label(text)) == text


# --- evaluation -------------------------------------------------------------------

A_ALG = build_dga(torus_circle(), label="A")
I_BIM = identity_bimodule(A_ALG, label="I")


def toy_assignment(rng=None, noise_cap=0):
    crit = identity_morphism(I_BIM)
    if rng is not None:
        crit = crit + morphism_differential(
            random_chained_table(rng, I_BIM, I_BIM, noise_cap, 3))
    return CLFAssignment(A_ALG, default_letter=I_BIM, default_crit=crit)


class TestEvaluate:
    def test_identity_leaf_empty_word(self):
        F = evaluate(IdentityLeaf(EMPTY_WORD), toy_assignment())
        assert F.table == identity_morphism(F.source).table

    def test_vertical_is_composition(self):
        bottom = CritLeaf(AbstractCLF(EMPTY_WORD, EMPTY_WORD, ZETA))
        top = IdentityLeaf(twist(ZETA))
        v = compose_v(bottom, top)
        assign = toy_assignment()
        from strandcalc.morphisms import compose as mcompose
        expect = mcompose(evaluate(top, assign), evaluate(bottom, assign))
        assert evaluate(v, assign) == expect

    def test_missing_letter_reported(self):
        assign = CLFAssignment(A_ALG, default_crit=identity_morphism(I_BIM))
        with pytest.raises(AssignmentIncomplete):
            evaluate(IdentityLeaf(A_LET), assign)

    def test_evaluation_closed_and_matches_normalized(self):
        rng = Random(35)
        for trial in range(5):
            e = random_expression(rng, rng.randrange(1, 5))
            n = normalize_horizontal(e)
            assign = toy_assignment(rng, noise_cap=0)
            f1 = evaluate(e, assign)
            f2 = evaluate(n, assign)
            assert is_closed(f1) and is_closed(f2)
            assert is_homotopic(f1, f2, 4)

    def test_hurwitz_rewrite_evaluates_homotopically(self):
        # transposing adjacent critical points leaves the induced
        # morphism's homotopy class unchanged on toy assignments
        rng = Random(36)
        e = compose_h(CritLeaf(AbstractCLF(EMPTY_WORD, EMPTY_WORD, ZETA)),
                      CritLeaf(AbstractCLF(EMPTY_WORD, EMPTY_WORD, ETA)))
        h = hurwitz(e, 0)
        assign = toy_assignment(rng, noise_cap=0)
        f1 = evaluate(e, assign)
        f2 = evaluate(h, assign)
        assert is_closed(f1) and is_closed(f2)
        assert is_homotopic(f1, f2, 4)


class TestAssociativity:
    """A chain of one kind evaluates as a left fold over its flat parts;
    the right-nested binary reading must give the same morphism."""

    # three critical leaves whose words chain vertically: e -> T[z] ->
    # T[z]T[y] -> T[z]T[y]T[z]
    TEXTS = ("CRIT(fl=e, fr=e, vc=e@z)",
             "CRIT(fl=T[e@z], fr=e, vc=e@y)",
             "CRIT(fl=T[e@z]T[e@y], fr=e, vc=e@z)")

    def setup_method(self):
        rng = Random(37)
        self.leaves = [parse_expression(t) for t in self.TEXTS]
        crits = {leaf.clf: identity_morphism(I_BIM) + morphism_differential(
                     random_chained_table(rng, I_BIM, I_BIM, 1, 3))
                 for leaf in self.leaves}
        self.assign = CLFAssignment(A_ALG, crits=crits,
                                    default_letter=I_BIM)
        self.values = [evaluate(leaf, self.assign) for leaf in self.leaves]

    def _both_nestings(self, head):
        a, b, c = self.TEXTS
        return [evaluate(parse_expression(text), self.assign) for text in
                (f"{head}({a}, {head}({b}, {c}))",
                 f"{head}({head}({a}, {b}), {c})")]

    def test_horizontal(self):
        Fa, Fb, Fc = self.values
        right_nested = box_morphisms(Fa, box_morphisms(Fb, Fc))
        assert right_nested.table
        assert self._both_nestings("H") == [right_nested] * 2

    def test_vertical(self):
        Fa, Fb, Fc = self.values
        right_nested = compose(compose(Fc, Fb), Fa)
        assert right_nested.table
        assert self._both_nestings("V") == [right_nested] * 2


class TestTwoFunctorAxioms:
    def test_identity_leaves_to_identity_morphisms(self):
        assign = toy_assignment()
        for word in (EMPTY_WORD, A_LET, concat(A_LET, B_LET)):
            F = evaluate(IdentityLeaf(word), assign)
            assert F == identity_morphism(assign.word_bimodule(word))

    def test_horizontal_composition_of_identities(self):
        # I(u) o_h I(v) evaluates to the identity of the box chain
        assign = toy_assignment()
        e = compose_h(IdentityLeaf(A_LET), IdentityLeaf(B_LET))
        F = evaluate(e, assign)
        assert F.table == identity_morphism(F.source).table

    def test_vertical_composition_of_identities(self):
        assign = toy_assignment()
        e = compose_v(IdentityLeaf(A_LET), IdentityLeaf(A_LET))
        F = evaluate(e, assign)
        assert F == identity_morphism(assign.word_bimodule(A_LET))
