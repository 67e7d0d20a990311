"""Sparse linear algebra over the two-element field.

Vectors are finite sets of basis indices and addition is symmetric
difference; matrices are sets of (row, col) positions.  For elimination,
rows are packed into Python integers used as bit vectors (column j sits at
bit ``cols - j`` so that scanning leading bits visits columns left to
right, and bit 0 stays free for an augmented column), which keeps
Gaussian elimination on machine words without any numeric dependency.

All values are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .errors import NotAComplex


@dataclass(frozen=True)
class F2Vector:
    """A GF(2) vector, stored as its support."""

    support: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if any(i < 0 for i in self.support):
            raise ValueError("vector support contains a negative index")

    def __add__(self, other: "F2Vector") -> "F2Vector":
        return F2Vector(self.support ^ other.support)

    def __bool__(self) -> bool:
        return bool(self.support)


@dataclass(frozen=True)
class F2Matrix:
    """A GF(2) matrix, stored as its set of nonzero positions."""

    rows: int
    cols: int
    entries: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("negative matrix dimension")
        for r, c in self.entries:
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValueError(f"entry {(r, c)} out of bounds "
                                 f"for {self.rows}x{self.cols} matrix")

    @classmethod
    def zero(cls, rows: int, cols: int) -> "F2Matrix":
        return cls(rows, cols, frozenset())

    @classmethod
    def identity(cls, n: int) -> "F2Matrix":
        return cls(n, n, frozenset((i, i) for i in range(n)))

    def apply(self, v: F2Vector) -> F2Vector:
        """Matrix-vector product m.v; v indexes columns."""
        rows: set[int] = set()
        for r, c in self.entries:
            if c in v.support:
                rows ^= {r}
        return F2Vector(frozenset(rows))

    def __matmul__(self, other: "F2Matrix") -> "F2Matrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions disagree")
        by_row: dict[int, set[int]] = {}
        for r, c in other.entries:
            by_row.setdefault(r, set()).add(c)
        out: set[tuple[int, int]] = set()
        for r, k in self.entries:
            for c in by_row.get(k, ()):
                out ^= {(r, c)}
        return F2Matrix(self.rows, other.cols, frozenset(out))

    def __bool__(self) -> bool:
        return bool(self.entries)


# --- elimination internals ---------------------------------------------

def _row_masks(m: F2Matrix) -> list[int]:
    masks = [0] * m.rows
    w = m.cols
    for r, c in m.entries:
        masks[r] |= 1 << (w - c)
    return masks


def _insert(pivots: dict[int, int], row: int) -> int:
    """Reduce row against the pivots and store what remains under its
    leading bit; returns that remainder, 0 when row was dependent."""
    while row:
        lead = row.bit_length() - 1
        if lead not in pivots:
            pivots[lead] = row
            return row
        row ^= pivots[lead]
    return 0


def _eliminate(masks: Iterable[int]) -> dict[int, int]:
    """Reduce rows into a dict keyed by leading bit position."""
    pivots: dict[int, int] = {}
    for row in masks:
        _insert(pivots, row)
    return pivots


def _back_substitute(pivots: dict[int, int], x: int) -> int:
    """Set the bit of each pivot in x, lowest leading bit first, so that
    every pivot row meets x in an even number of bits.

    A row's bits below its leading bit belong to pivots already settled or
    to columns fixed by the caller, so one linear pass settles them all.
    """
    for lead in sorted(pivots):
        if (pivots[lead] & x).bit_count() & 1:
            x |= 1 << lead
    return x


def rank(m: F2Matrix) -> int:
    """GF(2) rank; 0 <= rank <= min(rows, cols)."""
    return len(_eliminate(_row_masks(m)))


def kernel_basis(m: F2Matrix) -> list[F2Vector]:
    """A basis of the right kernel, one vector per pivot-free column.

    The output is deterministic: vectors are listed by increasing free
    column index.  Each vector sets its own free column, keeps the other
    free columns zero and back-substitutes the pivot columns in one linear
    pass over the echelon rows; that is the unique such kernel vector, so
    it equals the one read off the reduced echelon form.
    """
    w = m.cols
    pivots = _eliminate(_row_masks(m))
    basis = []
    for c in range(w):
        if w - c in pivots:
            continue
        x = _back_substitute(pivots, 1 << (w - c))
        basis.append(F2Vector(frozenset(
            [c] + [w - lead for lead in pivots if x >> lead & 1])))
    return basis


def independent_modulo(m: F2Matrix,
                       vectors: Iterable[F2Vector]) -> list[F2Vector]:
    """Greedy choice: the vectors, in order, that lie outside the span of
    m's columns and of the vectors kept before them."""
    columns = [0] * m.cols
    for r, c in m.entries:
        columns[c] |= 1 << r
    pivots = _eliminate(columns)
    return [v for v in vectors
            if _insert(pivots, sum(1 << i for i in v.support))]


def solve(m: F2Matrix, target: F2Vector) -> F2Vector | None:
    """One solution of m.x = target, or None when the system is inconsistent.

    Inconsistency is decided exactly (a row reducing to the bare augmented
    bit); it is an outcome, not a fault.  Free variables are set to zero
    and the pivot variables are back-substituted in one linear pass over
    the echelon rows, so the returned solution is the unique one with zero
    free variables: deterministic, and equal to the reduced echelon form's.
    """
    if any(i >= m.rows for i in target.support):
        raise ValueError("target support exceeds row count")
    w = m.cols
    # the augmented bit lives at position 0, below every column bit
    aug = _row_masks(m)
    for r in target.support:
        aug[r] |= 1
    pivots: dict[int, int] = {}
    for row in aug:
        if _insert(pivots, row) == 1:
            return None  # 0 = 1
    x = _back_substitute(pivots, 1)
    return F2Vector(frozenset(w - lead for lead in pivots if x >> lead & 1))


def homology_dim(d_in: F2Matrix, d_out: F2Matrix) -> int:
    """dim ker(d_out) - rank(d_in) for a two-step complex.

    d_in maps into the middle space (middle dimension = d_in.rows) and
    d_out maps out of it.  Raises NotAComplex unless d_out . d_in = 0.
    """
    if d_in.rows != d_out.cols:
        raise NotAComplex(
            f"middle dimensions disagree: d_in has {d_in.rows} rows, "
            f"d_out has {d_out.cols} cols")
    if d_out @ d_in:
        raise NotAComplex("d_out . d_in is nonzero")
    return (d_out.cols - rank(d_out)) - rank(d_in)
