"""Sparse linear algebra over the two-element field.

Vectors are finite sets of basis indices and addition is symmetric
difference.  A matrix stores each row as the increasing tuple of its
nonzero columns; its set of (row, col) positions is derived from those.
Elimination packs one row at a time into a Python integer used as a bit
vector (column j sits at bit ``cols - j`` so that scanning leading bits
visits columns left to right, and bit 0 stays free for an augmented
column) and reduces it against the pivots at once, so only the echelon
rows are ever held packed; Gaussian elimination stays on machine words
without any numeric dependency.

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


@dataclass(frozen=True, init=False)
class F2Matrix:
    """A GF(2) matrix: row r is nonzero exactly in the columns lines[r],
    listed in increasing order.

    F2Matrix(rows, cols, entries) builds one from its set of nonzero
    (row, col) positions, checking their bounds; from_rows(cols, lines)
    takes the row lists as given.  `entries` is derived from the rows.
    """

    rows: int
    cols: int
    lines: tuple[tuple[int, ...], ...]

    def __init__(self, rows: int, cols: int,
                 entries: Iterable[tuple[int, int]] = frozenset()):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimension")
        lines: list[list[int]] = [[] for _ in range(rows)]
        for r, c in entries:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry {(r, c)} out of bounds "
                                 f"for {rows}x{cols} matrix")
            lines[r].append(c)
        vars(self).update(rows=rows, cols=cols, lines=tuple(
            tuple(sorted(set(line))) for line in lines))

    @classmethod
    def from_rows(cls, cols: int,
                  lines: Iterable[Iterable[int]]) -> "F2Matrix":
        """The matrix whose row r is nonzero in the columns lines[r], each
        list distinct and increasing (not checked here: elimination
        rejects a column outside 0..cols-1 when it packs the row)."""
        if cols < 0:
            raise ValueError("negative matrix dimension")
        m, lines = cls.__new__(cls), tuple(map(tuple, lines))
        vars(m).update(rows=len(lines), cols=cols, lines=lines)
        return m

    @classmethod
    def zero(cls, rows: int, cols: int) -> "F2Matrix":
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> "F2Matrix":
        return cls.from_rows(n, ((i,) for i in range(n)))

    @property
    def entries(self) -> frozenset[tuple[int, int]]:
        """The set of nonzero (row, col) positions."""
        return frozenset((r, c) for r, line in enumerate(self.lines)
                         for c in line)

    def apply(self, v: F2Vector) -> F2Vector:
        """Matrix-vector product m.v; v indexes columns."""
        return F2Vector(frozenset(
            r for r, line in enumerate(self.lines)
            if len(v.support.intersection(line)) & 1))

    def __matmul__(self, other: "F2Matrix") -> "F2Matrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions disagree")
        out = []
        for line in self.lines:
            acc: set[int] = set()
            for k in line:
                acc.symmetric_difference_update(other.lines[k])
            out.append(sorted(acc))
        return F2Matrix.from_rows(other.cols, out)

    def __bool__(self) -> bool:
        return any(self.lines)


# --- elimination internals ---------------------------------------------

def _packed(m: F2Matrix):
    """m's rows as bit vectors, one at a time, each checked against the
    column count (bits 1..cols hold columns cols-1..0)."""
    w = m.cols
    for line in m.lines:
        mask = 0
        for c in line:
            mask |= 1 << (w - c)
        if mask & 1 or mask >> (w + 1):
            raise ValueError(f"a row has a column outside 0..{w - 1}")
        yield mask


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
    return len(_eliminate(_packed(m)))


def kernel_basis(m: F2Matrix) -> list[F2Vector]:
    """A basis of the right kernel, one vector per pivot-free column.

    The output is deterministic: vectors are listed by increasing free
    column index.  Each vector sets its own free column, keeps the other
    free columns zero and back-substitutes the pivot columns in one linear
    pass over the echelon rows; that is the unique such kernel vector, so
    it equals the one read off the reduced echelon form.
    """
    w = m.cols
    pivots = _eliminate(_packed(m))
    basis = []
    for c in range(w):
        if w - c in pivots:
            continue
        x = _back_substitute(pivots, 1 << (w - c))
        basis.append(F2Vector(frozenset(
            [c] + [w - lead for lead in pivots if x >> lead & 1])))
    return basis


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
    ones = target.support
    pivots: dict[int, int] = {}
    for r, row in enumerate(_packed(m)):
        if _insert(pivots, row | (r in ones)) == 1:
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
