"""GF(2) linear algebra against a dense numpy oracle."""

from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strandcalc import f2
from strandcalc.errors import NotAComplex

from helpers import dense, dense_rank, dense_solvable, random_complex, \
    random_matrix, ref_kernel_basis, ref_solve


def mat(rows, cols, entries):
    return f2.F2Matrix(rows, cols, frozenset(entries))


def vec(*indices):
    return f2.F2Vector(frozenset(indices))


KINDS = ["entries", "rows"]


def built(kind, m, b=None):
    """m itself, or its twin built by from_rows from row lists read off
    m.entries, after checking that the two agree on every query."""
    if kind == "entries":
        return m
    lines = [[] for _ in range(m.rows)]
    for r, c in sorted(m.entries):
        lines[r].append(c)
    twin = f2.F2Matrix.from_rows(m.cols, lines)
    assert twin == m and hash(twin) == hash(m)
    assert (twin.rows, twin.cols, twin.entries) == (m.rows, m.cols, m.entries)
    assert f2.rank(twin) == f2.rank(m)
    assert f2.kernel_basis(twin) == f2.kernel_basis(m)
    # the homology of 0 -> m's columns -> m's rows -> 0 at both ends
    into, out_of = f2.F2Matrix.zero(m.cols, 0), f2.F2Matrix.zero(0, m.rows)
    assert f2.homology_dim(into, twin) == f2.homology_dim(into, m)
    assert f2.homology_dim(twin, out_of) == f2.homology_dim(m, out_of)
    if b is not None:
        assert f2.solve(twin, b) == f2.solve(m, b)
    return twin


class TestRank:
    def test_identity(self):
        assert f2.rank(f2.F2Matrix.identity(2)) == 2

    def test_zero(self):
        assert f2.rank(f2.F2Matrix.zero(3, 5)) == 0

    def test_dependent_rows(self):
        # both rows are (1, 1): rank 1, frozen from the dense oracle
        m = mat(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        assert dense_rank(dense(m)) == 1
        assert f2.rank(m) == 1


class TestKernel:
    def test_identity_trivial(self):
        assert f2.kernel_basis(f2.F2Matrix.identity(2)) == []

    def test_zero_full(self):
        basis = f2.kernel_basis(f2.F2Matrix.zero(2, 3))
        assert len(basis) == 3

    def test_sum_equation(self):
        # x0 + x1 = 0 has kernel {0, 1}; checked against all 4 vectors
        m = mat(1, 2, [(0, 0), (0, 1)])
        solutions = [v for v in [frozenset(), {0}, {1}, {0, 1}]
                     if not m.apply(f2.F2Vector(frozenset(v)))]
        assert frozenset({0, 1}) in [frozenset(s) for s in solutions]
        basis = f2.kernel_basis(m)
        assert basis == [vec(0, 1)]

    def test_kernel_vectors_annihilated(self):
        rng = Random(3)
        for _ in range(25):
            m = random_matrix(rng, rng.randrange(1, 9), rng.randrange(1, 9))
            basis = f2.kernel_basis(m)
            assert f2.rank(m) + len(basis) == m.cols
            for v in basis:
                assert not m.apply(v)

    def test_order_by_free_column(self):
        m = mat(1, 3, [(0, 1)])  # pivot col 1; free cols 0, 2
        basis = f2.kernel_basis(m)
        assert [min(v.support) for v in basis] == [0, 2]


class TestSolve:
    def test_identity(self):
        assert f2.solve(f2.F2Matrix.identity(1), vec(0)) == vec(0)

    def test_inconsistent(self):
        assert f2.solve(f2.F2Matrix.zero(2, 2), vec(0)) is None

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("rows, target", [
        # 0 = 1 in the first row
        ([[], [0, 1], [1]], vec(0)),
        # x0 + x1 = 0 and x1 = 0, then x0 = 1: 0 = 1 only in the last row
        ([[0, 1], [1], [0]], vec(2)),
    ], ids=["first", "last"])
    def test_inconsistent_row_anywhere(self, kind, rows, target):
        m = built(kind, mat(len(rows), 2, [(r, c) for r, line in
                                           enumerate(rows) for c in line]),
                  target)
        assert f2.solve(m, target) is None
        assert ref_solve(m, target) is None

    @pytest.mark.parametrize("line", [(2,), (-1,), (0, 5)])
    def test_row_lists_out_of_bounds_rejected(self, line):
        # from_rows takes its rows as given; elimination checks them
        m = f2.F2Matrix.from_rows(2, [(0,), line])
        for run in (f2.rank, f2.kernel_basis, lambda m: f2.solve(m, vec())):
            with pytest.raises(ValueError):
                run(m)

    def test_underdetermined(self):
        # x0 + x1 = 1: any valid solution accepted, then checked exactly
        m = mat(1, 2, [(0, 0), (0, 1)])
        x = f2.solve(m, vec(0))
        assert x is not None
        assert m.apply(x) == vec(0)

    @pytest.mark.parametrize("kind", KINDS)
    def test_against_oracle(self, kind):
        rng = Random(4)
        for _ in range(50):
            rows, cols = rng.randrange(1, 10), rng.randrange(1, 10)
            m = random_matrix(rng, rows, cols)
            b = f2.F2Vector(frozenset(
                r for r in range(rows) if rng.random() < 0.5))
            m = built(kind, m, b)
            x = f2.solve(m, b)
            bd = np.zeros(rows, dtype=np.uint8)
            for r in b.support:
                bd[r] = 1
            assert (x is not None) == dense_solvable(dense(m), bd)
            if x is not None:
                assert m.apply(x) == b


class TestReferenceIdentity:
    """solve and kernel_basis return exactly the reduced echelon form's
    vectors, not merely some solution: witnesses depend on it."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_reduced_echelon(self, kind):
        rng = Random(6)
        seen = {"no rows": 0, "no cols": 0, "inconsistent": 0,
                "rank-deficient": 0, "wide": 0}
        for i in range(1200):
            # every tenth system is wider than one machine word
            cols = rng.randrange(65, 90) if i % 10 == 0 else rng.randrange(10)
            rows = rng.randrange(90 if i % 10 == 0 else 10)
            m = random_matrix(rng, rows, cols, rng.choice((0.1, 0.3, 0.6)))
            if rng.random() < 0.5:
                b = m.apply(f2.F2Vector(frozenset(
                    c for c in range(cols) if rng.random() < 0.5)))
            else:
                b = f2.F2Vector(frozenset(
                    r for r in range(rows) if rng.random() < 0.5))
            m = built(kind, m, b)
            x, expect = f2.solve(m, b), ref_solve(m, b)
            if expect is None:
                assert x is None
            else:
                assert x is not None and x.support == expect.support
            basis = f2.kernel_basis(m)
            assert ([v.support for v in basis]
                    == [v.support for v in ref_kernel_basis(m)])
            seen["no rows"] += rows == 0
            seen["no cols"] += cols == 0
            seen["inconsistent"] += expect is None
            seen["rank-deficient"] += 0 < len(basis) < cols
            seen["wide"] += cols > 64
        assert min(seen.values()) >= 20, seen

    @pytest.mark.parametrize("kind", KINDS)
    def test_row_order_and_repeats_do_not_matter(self, kind):
        # the homotopy search numbers its equations as it meets them, so
        # its witness relies on solve ignoring row order and repeated rows
        rng = Random(8)
        seen = {"consistent": 0, "inconsistent": 0}
        for i in range(400):
            cols = rng.randrange(65, 80) if i % 10 == 0 else rng.randrange(12)
            rows = rng.randrange(1, 80 if i % 10 == 0 else 12)
            m = random_matrix(rng, rows, cols, rng.choice((0.1, 0.3, 0.6)))
            if rng.random() < 0.5:
                b = m.apply(f2.F2Vector(frozenset(
                    c for c in range(cols) if rng.random() < 0.5)))
            else:
                b = f2.F2Vector(frozenset(
                    r for r in range(rows) if rng.random() < 0.5))
            m = built(kind, m, b)
            expect = f2.solve(m, b)
            assert expect == ref_solve(m, b)
            seen["inconsistent" if expect is None else "consistent"] += 1
            for repeats in (0, rng.randrange(1, 5)):
                order = list(range(rows)) + [rng.randrange(rows)
                                             for _ in range(repeats)]
                rng.shuffle(order)
                moved = built(kind, mat(len(order), cols,
                                        [(i, c) for i, r in enumerate(order)
                                         for r2, c in m.entries if r2 == r]))
                target = f2.F2Vector(frozenset(
                    i for i, r in enumerate(order) if r in b.support))
                assert f2.solve(moved, target) == expect
        assert min(seen.values()) >= 100, seen


class TestHomology:
    def test_zero_complex(self):
        z = f2.F2Matrix.zero(4, 4)
        assert f2.homology_dim(z, z) == 4

    def test_exact(self):
        n = 3
        assert f2.homology_dim(f2.F2Matrix.identity(n),
                               f2.F2Matrix.zero(n, n)) == 0

    def test_not_a_complex(self):
        i2 = f2.F2Matrix.identity(2)
        with pytest.raises(NotAComplex):
            f2.homology_dim(i2, i2)

    def test_against_oracle(self):
        rng = Random(5)
        for _ in range(25):
            d_in, d_out = random_complex(rng, 6)
            expect = ((d_out.cols - dense_rank(dense(d_out)))
                      - dense_rank(dense(d_in)))
            assert f2.homology_dim(d_in, d_out) == expect


@given(st.frozensets(st.integers(0, 30)), st.frozensets(st.integers(0, 30)))
def test_vector_addition_is_symmetric_difference(a, b):
    assert (f2.F2Vector(a) + f2.F2Vector(b)).support == a ^ b


@given(st.frozensets(st.integers(0, 30)))
def test_vector_self_inverse(a):
    v = f2.F2Vector(a)
    assert not (v + v)


@settings(max_examples=30)
@given(st.integers(0, 6), st.integers(1, 6), st.integers(0, 2 ** 12))
def test_rank_matches_oracle(rows, cols, seed):
    rng = Random(seed)
    m = random_matrix(rng, rows, cols)
    assert f2.rank(m) == dense_rank(dense(m))
