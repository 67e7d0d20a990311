"""Symbolic calculus of cornered Lefschetz fibration decompositions.

Mapping classes are formal words: tuples of letters, each a plain symbol
or a Dehn-twist letter about a labelled cycle, with an inversion flag.
Words are stored freely reduced and written in application order, so the
word [x, y] means "x then y" (function composition y o x).  No surface
relations are imposed; word equality is sound but not complete for
mapping-class equality.

A cycle label is (prefix word, base symbol): the image of the base curve
under the prefix.  A twist letter about a labelled cycle expands as a
conjugate,

    T[w @ c]  =  w . T[c] . w^-1   (in application order),

and boundary comparisons happen on these expansions, which is exactly the
structure needed for the Hurwitz rewrite: transposing adjacent pure
twists replaces (T_z, T_z') by (T_{T_z(z')}, T_z) with outer boundary
words unchanged as reduced expanded words.

A decomposition is a tree with leaves Identity(word) or Crit(f_l, f_r,
cycle) and nodes for horizontal and vertical composition.  A critical
leaf derives its initial word f_l . f_r and resulting word
f_l . T[cycle] . f_r; horizontal composition concatenates words and
vertical composition requires the middle words to agree.  Both
compositions are associative, so a node holds the flat tuple of its
parts (left to right, bottom to top) and a chain of one kind is never
nested.  Each node also holds the initial and resulting words of the
whole, set once when it is built, so reading them costs no walk.

evaluate maps a tree to a bimodule morphism: identity leaves to identity
morphisms of box-chains of letter bimodules, critical leaves to assigned
morphisms, horizontal composition to the box of morphisms and vertical
composition to composition.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from functools import reduce
from itertools import chain as _chained

from .bimodules import TypeDABimodule, identity_bimodule
from .boxes import box_bimodules, box_morphisms
from .errors import (AssignmentIncomplete, BoundaryMismatch,
                     IncompatibleCycle, NotInTwistForm, ParseError)
from .morphisms import DAMorphism, compose, identity_morphism, same_shape

# --- words ----------------------------------------------------------------

def _reduce_letters(letters) -> tuple:
    """Cancel adjacent inverse pairs, keeping the other letter tuples."""
    stack: list = []
    for lt in letters:
        if stack and stack[-1] == (lt[0], not lt[1]):
            stack.pop()
        else:
            stack.append(lt)
    return tuple(stack)


@dataclass(frozen=True)
class Word:
    """A freely reduced formal word; () is the identity e."""

    letters: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "letters", _reduce_letters(self.letters))

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __str__(self) -> str:
        return word_str(self)


EMPTY_WORD = Word()


@dataclass(frozen=True)
class CycleLabel:
    """A marked curve: the image of a base curve under a prefix word."""

    prefix: Word
    base: str

    def __str__(self) -> str:
        return f"{word_str(self.prefix)}@{self.base}"


@dataclass(frozen=True)
class Twist:
    """The formal (negative) Dehn twist letter about a labelled cycle."""

    cycle: CycleLabel


def concat(*words: Word) -> Word:
    """The reduced product."""
    return Word(tuple(_chained.from_iterable(w.letters for w in words)))


def inverse(w: Word) -> Word:
    return Word(tuple((sym, not inv) for sym, inv in reversed(w.letters)))


def letter(symbol: str, inverted: bool = False) -> Word:
    return Word(((symbol, inverted),))


def twist(cycle: CycleLabel, inverted: bool = False) -> Word:
    return Word(((Twist(cycle), inverted),))


def expanded(w: Word) -> tuple:
    """Expand every twist letter to conjugated base twists, then reduce."""
    out: tuple = ()
    for sym, inv in w.letters:
        out += _expand_letter(sym, inv)
    return _reduce_letters(out)


def _expand_letter(sym, inv) -> tuple:
    if isinstance(sym, Twist) and sym.cycle.prefix.letters:
        pre = expanded(sym.cycle.prefix)
        core = (Twist(CycleLabel(EMPTY_WORD, sym.cycle.base)), inv)
        back = tuple((s, not i) for s, i in reversed(pre))
        return pre + (core,) + back
    return ((sym, inv),)


def words_equal(v: Word, w: Word) -> bool:
    """Equality of freely reduced expanded words."""
    return expanded(v) == expanded(w)


def word_str(w: Word) -> str:
    if not w.letters:
        return "e"
    parts = []
    for sym, inv in w.letters:
        if isinstance(sym, Twist):
            parts.append(f"T[{sym.cycle}]")
        else:
            parts.append(sym)
        if inv:
            parts.append("'")
    return "".join(parts)


# --- text cursor, word and label parsing -------------------------------------

class _Cursor:
    """A read position in one line of text.  Errors carry the line and
    the column of the offending character (`base` is the text's column);
    every read skips spaces and tabs first."""

    def __init__(self, text: str, line: int | None, col: int = 0):
        self.text = text
        self.line = line
        self.base = col
        self.pos = 0

    def error(self, message: str, at: int | None = None) -> ParseError:
        """A ParseError at offset `at` of the text, by default here."""
        return ParseError(message, self.line,
                          self.base + (self.pos if at is None else at))

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def done(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def end(self, what: str) -> None:
        if not self.done():
            raise self.error(f"trailing input after {what}")

    def literal(self, token: str) -> None:
        if not self.try_literal(token):
            raise self.error(f"expected {token!r}")

    def try_literal(self, token: str) -> bool:
        self.skip_ws()
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def regex(self, pattern: re.Pattern, what: str) -> re.Match:
        self.skip_ws()
        m = pattern.match(self.text, self.pos)
        if m is None:
            raise self.error(f"expected {what}")
        self.pos = m.end()
        return m

    def word(self) -> str:
        """The next whitespace-delimited token."""
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and not self.text[self.pos].isspace():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a token")
        return self.text[start:self.pos]


_SYMBOL = re.compile(r"\w+")
MAX_TWIST_NESTING = 64  # word equality and hashing recurse per level


def _word(cur: _Cursor, depth: int = 0) -> Word:
    """Read letters up to the first character that cannot continue a
    word; `depth` counts the twist brackets already open."""
    cur.skip_ws()
    text, letters = cur.text, []
    while cur.pos < len(text):
        start, ch = cur.pos, text[cur.pos]
        if text.startswith("T[", start):
            if depth == MAX_TWIST_NESTING:
                raise cur.error("twist letters nested deeper than "
                                f"{MAX_TWIST_NESTING}", start + 1)
            cur.pos += 2
            try:
                sym: object = Twist(_label(cur, depth + 1))
                cur.literal("]")
            except ParseError:
                if cur.pos < len(text):
                    raise
                raise cur.error("unterminated twist letter", start) from None
        elif ch == "e":
            cur.pos += 1
            continue
        elif ch.isalnum() or ch == "_":
            sym = ch
            cur.pos += 1
        else:
            break
        inv = text.startswith("'", cur.pos)
        cur.pos += inv
        letters.append((sym, inv))
    return Word(tuple(letters))


def _label(cur: _Cursor, depth: int = 0) -> CycleLabel:
    """Read `word@symbol`.  A word stopping at a stray character is
    located there; one running to `,`, `)`, `]` or the end lacks its @
    and is located at the label's start."""
    cur.skip_ws()
    start = cur.pos
    prefix = _word(cur, depth)
    if not cur.try_literal("@"):
        if not cur.done() and cur.text[cur.pos] not in ",)]":
            raise cur.error(f"unexpected character {cur.text[cur.pos]!r} "
                            "in cycle label")
        raise cur.error(f"cycle label {cur.text[start:cur.pos].rstrip()!r} "
                        "lacks '@'", start)
    return CycleLabel(prefix, cur.regex(_SYMBOL, "a cycle base symbol")[0])


def parse_word(text: str, line: int | None = None, col: int = 0) -> Word:
    """Parse juxtaposed letters with ' for inverses; `e` is the identity.

    Twist letters parse back from their printed form T[word@symbol].
    """
    cur = _Cursor(text, line, col)
    w = _word(cur)
    if not cur.done():
        raise cur.error(f"unexpected character {text[cur.pos]!r} in word")
    return w


def parse_cycle_label(text: str, line: int | None = None,
                      col: int = 0) -> CycleLabel:
    """Parse `word@symbol`."""
    cur = _Cursor(text, line, col)
    label = _label(cur)
    cur.end("cycle label")
    return label


# --- abstract CLFs and expression trees -------------------------------------

@dataclass(frozen=True)
class AbstractCLF:
    """Single-critical-point data {f_l, f_r, cycle}.

    Initial and resulting words are derived, never stored: the defining
    relation g = f_r o T_cycle o f_l holds by construction.
    """

    f_l: Word
    f_r: Word
    cycle: CycleLabel

    @property
    def initial_word(self) -> Word:
        return concat(self.f_l, self.f_r)

    @property
    def resulting_word(self) -> Word:
        return concat(self.f_l, twist(self.cycle), self.f_r)

    @property
    def is_pure_twist(self) -> bool:
        return not self.f_l and not self.f_r


class CLFExpression:
    """Base class for decomposition trees."""


@dataclass(frozen=True)
class IdentityLeaf(CLFExpression):
    word: Word

    initial = resulting = property(lambda self: self.word)


@dataclass(frozen=True)
class CritLeaf(CLFExpression):
    clf: AbstractCLF

    initial = property(lambda self: self.clf.initial_word)
    resulting = property(lambda self: self.clf.resulting_word)


@dataclass(frozen=True, eq=False, repr=False)
class _Composition(CLFExpression):
    """Two or more parts and the boundary words of the whole, which
    _node sets (every leaf has .initial and .resulting too).  Equality
    and hashing compare the flat preorder of node kinds, part counts and
    leaves, built without recursion, so trees of any depth compare
    exactly."""

    parts: tuple
    initial: Word
    resulting: Word

    def _key(self) -> tuple:
        key, todo = [], [self]
        while todo:
            x = todo.pop()
            if isinstance(x, _Composition):
                key.append((type(x), len(x.parts)))
                todo += reversed(x.parts)
            else:
                key.append(x)
        return tuple(key)

    def __eq__(self, other) -> bool:
        return isinstance(other, _Composition) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return expression_str(self)


class HComp(_Composition):
    """Horizontal composition, left to right; the words are the products
    of the parts' words."""


class VComp(_Composition):
    """Vertical composition, bottom to top; the initial word is the first
    part's and the resulting word the last part's."""


def _parts(expr: CLFExpression, kind: type) -> tuple:
    return expr.parts if isinstance(expr, kind) else (expr,)


def fold(expr: CLFExpression, leaf, node):
    """Post-order fold without recursion: leaf(x) at each leaf, node(x,
    values) at each composition, with its parts' values in order."""
    todo, values = [(expr, False)], []
    while todo:
        x, ready = todo.pop()
        if ready:
            values[-len(x.parts):] = [node(x, values[-len(x.parts):])]
        elif isinstance(x, _Composition):
            todo += [(x, True)] + [(p, False) for p in reversed(x.parts)]
        else:
            values.append(leaf(x))
    return values[0]


def initial_word(expr: CLFExpression) -> Word:
    return expr.initial


def resulting_word(expr: CLFExpression) -> Word:
    return expr.resulting


def _junction(below: CLFExpression, above: CLFExpression) -> None:
    if not words_equal(below.resulting, above.initial):
        raise BoundaryMismatch(
            f"resulting word {word_str(below.resulting)} does not match "
            f"initial word {word_str(above.initial)}")


def _node(kind: type, parts: list) -> CLFExpression:
    """One node of the kind over the parts, with parts of the same kind
    spliced in; one part gives itself.  An H node multiplies the parts'
    words; a V node's junctions are checked by compose_v or the parser."""
    if len(parts) == 1:
        return parts[0]
    flat: list = []
    for e in parts:
        flat += _parts(e, kind)
    if kind is HComp:
        words = (concat(*(e.initial for e in parts)),
                 concat(*(e.resulting for e in parts)))
    else:
        words = parts[0].initial, parts[-1].resulting
    return kind(tuple(flat), *words)


def chain(parts: list[CLFExpression]) -> CLFExpression:
    """One horizontal node over the parts; no part gives ID(e)."""
    return _node(HComp, parts) if parts else IdentityLeaf(EMPTY_WORD)


def compose_h(e1: CLFExpression, e2: CLFExpression) -> HComp:
    """Horizontal composition; the words multiply."""
    return _node(HComp, [e1, e2])


def compose_v(bottom: CLFExpression, top: CLFExpression) -> VComp:
    """Vertical composition; the middle words must agree when reduced."""
    _junction(bottom, top)
    return _node(VComp, [bottom, top])


def same_boundaries(e1: CLFExpression, e2: CLFExpression) -> bool:
    """Equal initial and resulting words, as reduced expanded words."""
    return (words_equal(initial_word(e1), initial_word(e2))
            and words_equal(resulting_word(e1), resulting_word(e2)))


# --- rewrites ---------------------------------------------------------------

def vcomp_count(expr: CLFExpression) -> int:
    """The number of binary vertical compositions: n - 1 per n-part V."""
    return fold(expr, lambda x: 0, lambda x, counts: sum(counts) + (
        len(counts) - 1 if isinstance(x, VComp) else 0))


def normalize_horizontal(expr: CLFExpression) -> CLFExpression:
    """Eliminate vertical compositions.

    Each joint of a vertical node, with middle word f' between parts
    below and above, becomes below o_h Identity(f'^-1) o_h above; the
    inverse cancels against the neighbours' words, so the outer boundary
    words are unchanged as reduced words, and each rewrite removes
    exactly one binary vertical composition.
    """
    def node(x: CLFExpression, parts: list) -> CLFExpression:
        out = parts[:1]
        for below, above in zip(parts, parts[1:]):
            if isinstance(x, VComp):
                out.append(IdentityLeaf(inverse(resulting_word(below))))
            out.append(above)
        return chain(out)

    return fold(expr, lambda x: x, node)


def flatten(expr: CLFExpression) -> list[CLFExpression]:
    """Leaves of a horizontal chain, left to right."""
    leaves = list(_parts(expr, HComp))
    if any(isinstance(leaf, VComp) for leaf in leaves):
        raise NotInTwistForm("expression is not a horizontal chain")
    return leaves


def prune_empty_identities(leaves: list[CLFExpression]) -> list[CLFExpression]:
    kept = [l for l in leaves
            if not (isinstance(l, IdentityLeaf) and not l.word)]
    return kept or [IdentityLeaf(EMPTY_WORD)]


def hurwitz(expr: CLFExpression, i: int) -> CLFExpression:
    """Transpose the pure-twist critical leaves at positions i, i+1.

    After pruning empty identities, positions i and i+1 must hold
    Crit(e, e, z) and Crit(e, e, z'); they become
    Crit(e, e, T[z].prefix(z') @ base(z')) o_h Crit(e, e, z).  The first
    cycle's twist joins the second cycle's prefix, so the expanded outer
    boundary words are unchanged.
    """
    leaves = prune_empty_identities(flatten(expr))
    if not (0 <= i and i + 1 < len(leaves)):
        raise NotInTwistForm(f"no adjacent leaves at position {i}")
    first, second = leaves[i], leaves[i + 1]
    for leaf in (first, second):
        if not (isinstance(leaf, CritLeaf) and leaf.clf.is_pure_twist):
            raise NotInTwistForm(
                "positions must hold critical leaves in pure-twist form; "
                "factor and merge identities first")
    z1, z2 = first.clf.cycle, second.clf.cycle
    twisted = CycleLabel(concat(twist(z1), z2.prefix), z2.base)
    new_first = CritLeaf(replace(first.clf, cycle=twisted))
    new_second = CritLeaf(replace(second.clf, cycle=z1))
    return chain(leaves[:i] + [new_first, new_second] + leaves[i + 2:])


def standard_form(expr: CLFExpression,
                  wg: AbstractCLF) -> tuple[CLFExpression, list[Word]]:
    """Rewrite a horizontal chain as I(f_1) o_h Wg o_h I(f_2) o_h ... .

    Wg must be a pure twist.  Every critical leaf's cycle must share Wg's
    base symbol; the leaf Crit(e, e, w@c) is replaced by
    I(u) o_h Wg o_h I(u^-1) with conjugator u = w . prefix(Wg)^-1, and
    identities merge into their neighbours.  Raises IncompatibleCycle for
    a foreign base symbol: word-level conjugation cannot decide
    mapping-class equality, so this is conservative.  Returns the
    alternating chain and the conjugators used.
    """
    if not wg.is_pure_twist:
        raise NotInTwistForm("the designated leaf must be a pure twist")
    leaves = flatten(expr)
    out: list[CLFExpression] = []
    conjugators: list[Word] = []
    pending = EMPTY_WORD
    for leaf in leaves:
        if isinstance(leaf, IdentityLeaf):
            pending = concat(pending, leaf.word)
            continue
        clf = leaf.clf
        pending = concat(pending, clf.f_l)
        if clf.cycle.base != wg.cycle.base:
            raise IncompatibleCycle(
                f"cycle base {clf.cycle.base!r} differs from "
                f"{wg.cycle.base!r}")
        u = concat(clf.cycle.prefix, inverse(wg.cycle.prefix))
        conjugators.append(u)
        out.append(IdentityLeaf(concat(pending, u)))
        out.append(CritLeaf(wg))
        pending = concat(inverse(u), clf.f_r)
    out.append(IdentityLeaf(pending))
    return chain(out), conjugators


# --- evaluation --------------------------------------------------------------

class CLFAssignment:
    """Maps letters to bimodules and critical leaves to morphisms.

    Letters are (symbol, inverted) pairs; a twist letter's symbol is its
    Twist value.  default_letter / default_crit serve as fallbacks, which
    keeps toy assignments (everything to one bimodule, all critical
    leaves to one morphism) small.  Box-chains are cached per reduced
    word, so equal words evaluate to identical bimodule objects; and
    box_bimodules returns a product of two such objects again while it
    is alive, so an evaluation builds each live box product once.  A
    letter assigned the identity bimodule costs no walk: its products
    are read off the other factor by a unit law, and a chain of such
    letters shares one table object.  The assignment holds its word
    chains only: every other box product lives as long as the
    morphisms built on it.
    """

    def __init__(self, base_algebra, letters=None, crits=None,
                 default_letter: TypeDABimodule | None = None,
                 default_crit: DAMorphism | None = None):
        self.base_algebra = base_algebra
        self.letters = dict(letters or {})
        self.crits = dict(crits or {})
        self.default_letter = default_letter
        self.default_crit = default_crit
        self._cache: dict[tuple, TypeDABimodule] = {}

    def letter_bimodule(self, lt) -> TypeDABimodule:
        got = self.letters.get(lt, self.default_letter)
        if got is None:
            raise AssignmentIncomplete(
                f"no bimodule assigned to letter "
                f"{word_str(Word((lt,)))!r}")
        return got

    def word_bimodule(self, w: Word) -> TypeDABimodule:
        key = w.letters
        if key not in self._cache:
            self._cache[key] = (
                reduce(box_bimodules, map(self.letter_bimodule, key)) if key
                else identity_bimodule(self.base_algebra))
        return self._cache[key]

    def crit_morphism(self, clf: AbstractCLF) -> DAMorphism:
        got = self.crits.get(clf, self.default_crit)
        if got is None:
            raise AssignmentIncomplete(
                f"no morphism assigned to critical leaf with cycle "
                f"{clf.cycle}")
        src, tgt = map(self.word_bimodule,
                       (clf.initial_word, clf.resulting_word))
        if not (same_shape(got.source, src) and same_shape(got.target, tgt)):
            raise BoundaryMismatch(
                "assigned morphism does not match the leaf's boundary words")
        return got


def evaluate(expr: CLFExpression, assignment: CLFAssignment) -> DAMorphism:
    """Map a decomposition tree to a bimodule morphism.

    Identity leaves become identity morphisms of their word's box-chain;
    critical leaves take their assigned morphism, whose source and target
    must match the chains of the leaf's initial and resulting words;
    horizontal composition becomes the box of morphisms and vertical
    composition becomes composition, each folded over the parts from the
    left (both are associative).
    """
    return fold(
        expr,
        lambda x: (identity_morphism(assignment.word_bimodule(x.word))
                   if isinstance(x, IdentityLeaf)
                   else assignment.crit_morphism(x.clf)),
        lambda x, parts: (
            reduce(box_morphisms, parts) if isinstance(x, HComp)
            else reduce(lambda below, above: compose(above, below), parts)))


# --- expression text form -----------------------------------------------------

def expression_str(expr: CLFExpression) -> str:
    """The text form; an n-part node prints left-nested, as n - 1 binary
    H(.., ..) or V(.., ..) around its parts."""
    return fold(
        expr,
        lambda x: (f"ID({word_str(x.word)})" if isinstance(x, IdentityLeaf)
                   else f"CRIT(fl={word_str(x.clf.f_l)}, "
                        f"fr={word_str(x.clf.f_r)}, vc={x.clf.cycle})"),
        lambda x, texts: (("H(" if isinstance(x, HComp) else "V(")
                          * (len(texts) - 1) + texts[0]
                          + "".join(f", {t})" for t in texts[1:])))


_HEAD = re.compile(r"(ID|CRIT|H|V)\(")


def parse_expression(text: str, line: int | None = None,
                     col: int = 0) -> CLFExpression:
    """Parse ID(word) | CRIT(fl=.., fr=.., vc=..) | H(e1, e2) | V(e1, e2).

    One left-to-right pass keeps the open H( and V( frames on a stack, so
    nesting depth costs no recursion: a ',' stores a frame's first
    argument and its ')' joins the two.  A value is a kind and its
    pending parts (a leaf has no kind); a frame splices in the parts of
    its own kind and builds any other value into one node, so a chain of
    one kind is built once.  Errors carry col plus the offset of the
    offending character; a V whose middle words differ is located at its
    head, since each junction is checked when its V closes.
    """
    cur = _Cursor(text, line, col)
    frames: list[list] = []  # [kind, head offset, first argument or None]
    while True:
        cur.skip_ws()
        start = cur.pos
        head = cur.regex(_HEAD, "ID/CRIT/H/V")[1]
        if head in ("H", "V"):
            frames.append([HComp if head == "H" else VComp, start, None])
            continue
        if head == "ID":
            leaf: CLFExpression = IdentityLeaf(_word(cur))
            cur.literal(")")
        else:
            leaf = _crit(cur)
        value = (None, [leaf])
        while frames:
            kind, at, first = frames[-1]
            if first is None and cur.try_literal(","):
                frames[-1][2] = value
                break
            if first is None or not cur.try_literal(")"):
                raise cur.error("unbalanced parentheses" if cur.done()
                                else f"{text[at]} takes two arguments")
            frames.pop()
            parts, top = _pending(first, kind), _pending(value, kind)
            if kind is VComp:
                try:
                    _junction(parts[-1], top[0])
                except BoundaryMismatch as exc:
                    raise cur.error(str(exc), at) from None
            parts += top
            value = (kind, parts)
        else:
            cur.end("expression")
            return _node(*value)


def _pending(value: tuple, kind: type) -> list:
    """A value's parts as parts of a node of the kind."""
    return value[1] if value[0] is kind else [_node(*value)]


def _crit(cur: _Cursor) -> CritLeaf:
    """The `key = value` fields of a CRIT leaf, up to its ')'."""
    fields: dict = {"fl": EMPTY_WORD, "fr": EMPTY_WORD, "vc": None}
    while True:
        key = cur.regex(_SYMBOL, "a CRIT field")
        if key[0] not in fields:
            raise cur.error(f"unknown CRIT field {key[0]!r}", key.start())
        cur.literal("=")
        fields[key[0]] = (_label if key[0] == "vc" else _word)(cur)
        if not cur.try_literal(","):
            break
    cur.literal(")")
    if fields["vc"] is None:
        raise cur.error("CRIT needs vc=word@symbol", cur.pos - 1)
    return CritLeaf(AbstractCLF(fields["fl"], fields["fr"], fields["vc"]))
