"""The morphism complex: differential, closedness, composition, homotopy."""

from functools import lru_cache
from random import Random

import pytest

from strandcalc import f2, morphisms
from strandcalc.bimodules import identity_bimodule, make_bimodule
from strandcalc.circles import torus_circle
from strandcalc.errors import BimoduleMismatch, IdempotentMismatch, NotClosed
from strandcalc.morphisms import (DAMorphism, _candidate_unknowns, compose,
                                  identity_morphism, is_closed,
                                  is_homotopic, is_naive_quasi_iso,
                                  make_morphism,
                                  morphism_differential, zero_morphism)
from strandcalc.strands import build_dga

from helpers import (chained_coords, random_chained_table,
                     random_unchained_table, ref_solve)

A = build_dga(torus_circle(), label="A")
I = identity_bimodule(A, label="I")
ID = identity_morphism(I)
ZERO = zero_morphism(I, I)

I0 = A.index("h(1 3)")
GI0 = I.gen_index("h(1 3)")
R12 = A.index("r[1-3]")


class TestDifferential:
    def test_zero_table(self):
        assert not morphism_differential(ZERO).table

    def test_d_squared_zero_randomized(self):
        rng = Random(2)
        for _ in range(100):
            H = random_chained_table(rng, I, I, 3, 6)
            assert not morphism_differential(morphism_differential(H)).table

    def test_d_squared_zero_unchained(self):
        rng = Random(3)
        for _ in range(100):
            H = random_unchained_table(rng, I, I, 3, 6)
            assert not morphism_differential(morphism_differential(H)).table

    def test_identity_is_a_cycle(self):
        assert not morphism_differential(ID).table

    def test_known_boundary(self):
        # d of the single arity-zero entry H(i0, []) = r[1-3] : i0
        H = DAMorphism(I, I, {(GI0, ()): frozenset(((R12, GI0),))})
        dH = morphism_differential(H)
        r34 = A.index("r[3-4]")
        r14 = A.index("r[1-4]")
        gi1 = I.gen_index("h(2 4)")
        assert dH.table == {(GI0, (r34,)): frozenset(((r14, gi1),))}


class TestIsClosed:
    def test_identity_closed(self):
        assert is_closed(ID)

    def test_boundaries_closed(self):
        rng = Random(4)
        for _ in range(20):
            H = random_chained_table(rng, I, I, 2, 5)
            assert is_closed(morphism_differential(H))

    def test_unmatched_entry_with_witness(self):
        F = DAMorphism(I, I, {(GI0, ()): frozenset(((R12, GI0),))})
        closed = is_closed(F)
        assert not closed
        assert closed.witness is not None

    def test_proved_once_per_morphism(self, monkeypatch):
        # the answer is kept on the morphism, and is_homotopic's closedness
        # precondition reads it instead of proving it again
        calls = [0]
        counted = morphisms.morphism_differential

        def differential(H):
            calls[0] += 1
            return counted(H)

        monkeypatch.setattr(morphisms, "morphism_differential", differential)
        F = identity_morphism(I) + ZERO
        assert is_closed(F) and is_closed(F)
        assert is_homotopic(F, F, 0)
        assert calls[0] == 1
        G = DAMorphism(I, I, {(GI0, ()): frozenset(((R12, GI0),))})
        for _ in range(2):
            with pytest.raises(NotClosed):
                is_homotopic(G, F, 0)
        assert calls[0] == 2


class TestCompose:
    def test_identity_is_a_unit(self):
        rng = Random(5)
        for _ in range(20):
            F = random_chained_table(rng, I, I, 2, 5)
            assert compose(ID, F) == F
            assert compose(F, ID) == F

    def test_zero_absorbs(self):
        rng = Random(6)
        F = random_chained_table(rng, I, I, 2, 5)
        assert compose(ZERO, F) == ZERO
        assert compose(F, ZERO) == ZERO

    def test_strictly_associative(self):
        rng = Random(7)
        for _ in range(20):
            F = random_chained_table(rng, I, I, 2, 4)
            G = random_chained_table(rng, I, I, 2, 4)
            H = random_chained_table(rng, I, I, 2, 4)
            assert compose(H, compose(G, F)) == compose(compose(H, G), F)

    def test_closedness_preserved(self):
        rng = Random(8)
        for _ in range(10):
            F = ID + morphism_differential(
                random_chained_table(rng, I, I, 1, 4))
            G = ID + morphism_differential(
                random_chained_table(rng, I, I, 1, 4))
            assert is_closed(compose(G, F))

    def test_mismatch_rejected(self):
        M = make_bimodule(A, A, [("x", I0, I0)], {})
        other = identity_morphism(M)
        with pytest.raises(BimoduleMismatch):
            compose(other, ID)


class TestMakeMorphism:
    def test_incompatible_output_rejected(self):
        r2 = A.index("r[2-3]")
        with pytest.raises(IdempotentMismatch):
            make_morphism(I, I, {(GI0, ()): [(r2, GI0)]})


class TestIsHomotopic:
    def test_reflexive_with_zero_witness(self):
        result = is_homotopic(ID, ID, 0)
        assert result
        assert not result.h.table

    def test_certificate_found(self):
        rng = Random(9)
        for _ in range(10):
            H = random_chained_table(rng, I, I, 2, 5)
            F = ID + morphism_differential(H)
            result = is_homotopic(F, ID, 2)
            assert result
            assert morphism_differential(result.h).table == \
                morphism_differential(H).table

    def test_identity_not_null_homotopic(self):
        # the arity-zero homology is 10-dimensional, so the identity is
        # not a boundary; the solver proves inconsistency within the cap
        result = is_homotopic(ID, ZERO, 2)
        assert not result
        assert result.cap == 2

    def test_requires_closed(self):
        F = DAMorphism(I, I, {(GI0, ()): frozenset(((R12, GI0),))})
        with pytest.raises(NotClosed):
            is_homotopic(F, ID, 1)

    def test_requires_same_shape(self):
        M = make_bimodule(A, A, [("x", I0, I0)], {})
        with pytest.raises(BimoduleMismatch):
            is_homotopic(identity_morphism(M), ID, 1)

    @pytest.mark.parametrize("G", [ID, ZERO], ids=["equal", "different"])
    def test_negative_cap_rejected(self, G):
        # checked before the shortcut for equal morphisms
        with pytest.raises(ValueError):
            is_homotopic(ID, G, -1)


@lru_cache(maxsize=None)
def unrestricted_system(cap):
    """Every chained coordinate of arity <= cap in sorted order, the rows
    of the equations their images touch, and the (row, column) entries."""
    columns = sorted(chained_coords(I, I, cap))
    rows, entries = {}, set()
    for col, (x, seq, out) in enumerate(columns):
        image = morphism_differential(
            DAMorphism(I, I, {(x, seq): frozenset((out,))})).table
        for (x2, seq2), outs in image.items():
            for out2 in outs:
                entries.add((rows.setdefault((x2, seq2, out2), len(rows)),
                             col))
    return columns, rows, frozenset(entries)


def unrestricted_witness(F, G, cap):
    """The canonical solution of dH = F + G over every chained coordinate
    of arity <= cap, as a table, or None when there is none."""
    columns, rows, entries = unrestricted_system(cap)
    rows = dict(rows)
    # a seed that no image touches still needs its row
    target = frozenset(rows.setdefault((x, seq, out), len(rows))
                       for (x, seq), outs in (F + G).table.items()
                       for out in outs)
    solution = ref_solve(f2.F2Matrix(len(rows), len(columns), entries),
                         f2.F2Vector(target))
    if solution is None:
        return None
    table = {}
    for col in solution.support:
        x, seq, out = columns[col]
        table.setdefault((x, seq), set()).add(out)
    return {k: frozenset(v) for k, v in table.items()}


class TestUnrestrictedOracle:
    """The search restricts the system to the components meeting F + G and
    prunes its candidate unknowns; neither may change the verdict or the
    witness, which must be the unrestricted system's canonical solution."""

    def test_matches_unrestricted_system(self):
        outcomes = {"witness": 0, "not within cap": 0}
        for seed in range(30):
            rng = Random(seed)
            cap = seed % 3
            H = random_chained_table(rng, I, I, rng.randrange(3),
                                     rng.randrange(1, 6))
            G = ID + morphism_differential(H)
            for other in (ID, ZERO):
                result = is_homotopic(G, other, cap)
                expect = unrestricted_witness(G, other, cap)
                if expect is None:
                    assert not result
                    outcomes["not within cap"] += 1
                else:
                    assert result and result.h.table == expect
                    outcomes["witness"] += 1
        assert min(outcomes.values()) >= 20, outcomes

    @pytest.mark.parametrize("cap", [0, 1, 2])
    def test_candidates_cover_every_incidence(self, cap):
        # every unknown of arity <= cap is a candidate of every equation
        # in its image
        columns, rows, entries = unrestricted_system(cap)
        equations = list(rows)
        candidates = {}
        for r, col in entries:
            e = equations[r]
            if e not in candidates:
                candidates[e] = set(_candidate_unknowns(I, I, e, cap))
            assert columns[col] in candidates[e]


class TestNaiveQuasiIso:
    def test_identity(self):
        assert is_naive_quasi_iso(ID)

    def test_zero_morphism_is_not(self):
        assert not is_naive_quasi_iso(ZERO)

    def test_identity_plus_boundary_is(self):
        rng = Random(12)
        F = ID + morphism_differential(random_chained_table(rng, I, I, 1, 5))
        assert is_naive_quasi_iso(F)

    def test_null_homotopic_is_not(self):
        # dH induces zero on the 10-dimensional torus homology; some of
        # the draws have a nonzero arity-zero part
        rng = Random(10)
        input_free = 0
        for _ in range(20):
            dH = morphism_differential(random_chained_table(rng, I, I, 1, 6))
            assert not is_naive_quasi_iso(dH)
            input_free += any(not seq for _, seq in dH.table)
        assert input_free

    def test_compositions_of_equivalences_are(self):
        rng = Random(11)
        for _ in range(5):
            F = ID + morphism_differential(
                random_chained_table(rng, I, I, 1, 3))
            G = ID + morphism_differential(
                random_chained_table(rng, I, I, 1, 3))
            assert is_naive_quasi_iso(compose(G, F))

    def test_requires_closed(self):
        F = DAMorphism(I, I, {(GI0, ()): frozenset(((R12, GI0),))})
        with pytest.raises(NotClosed):
            is_naive_quasi_iso(F)

    def test_mismatched_homology_shapes(self):
        # the target's arity-zero homology vanishes while the source's is
        # 10-dimensional, so no morphism between them can qualify
        M2 = make_bimodule(A, A, [("u", I0, I0), ("v", I0, I0)],
                           {(0, ()): [(I0, 1)]})
        F = zero_morphism(I, M2)
        assert not is_naive_quasi_iso(F)


class TestLemmaOneShadow:
    def test_compose_with_boundary_is_null_homotopic(self):
        rng = Random(13)
        for _ in range(20):
            F = ID + morphism_differential(
                random_chained_table(rng, I, I, 1, 4))
            H = random_chained_table(rng, I, I, 1, 4)
            C = compose(F, morphism_differential(H))
            result = is_homotopic(C, zero_morphism(I, I), 4)
            assert result
            # the witness is exact at every arity
            assert morphism_differential(result.h).table == C.table
