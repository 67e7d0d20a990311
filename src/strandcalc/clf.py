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

from .bimodules import TypeDABimodule, identity_bimodule
from .boxes import box_bimodules, box_morphisms
from .errors import (AssignmentIncomplete, BoundaryMismatch,
                     IncompatibleCycle, NotInTwistForm, ParseError)
from .morphisms import DAMorphism, compose, identity_morphism, same_shape

# --- words ----------------------------------------------------------------

def _reduce_letters(letters) -> tuple:
    stack: list = []
    for sym, inv in letters:
        if stack and stack[-1] == (sym, not inv):
            stack.pop()
        else:
            stack.append((sym, inv))
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
    """The reduced product.  The factors are reduced, so letters cancel
    only across each junction and the result needs no second pass."""
    out: list = []
    for w in words:
        k, n = 0, min(len(out), len(w.letters))
        while k < n and out[-1 - k] == (w.letters[k][0], not w.letters[k][1]):
            k += 1
        del out[len(out) - k:]
        out += w.letters[k:]
    word = object.__new__(Word)
    object.__setattr__(word, "letters", tuple(out))
    return word


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


# --- word and label parsing ------------------------------------------------

def parse_word(text: str, line: int | None = None, col: int = 0) -> Word:
    """Parse juxtaposed letters with ' for inverses; `e` is the identity.

    Twist letters parse back from their printed form T[word@symbol].
    """
    text = text.strip()
    if text == "e" or text == "":
        return EMPTY_WORD
    letters = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "e":
            i += 1
            continue
        if ch == "T" and i + 1 < len(text) and text[i + 1] == "[":
            j = i + 2
            depth = 1
            while j < len(text) and depth:
                if text[j] == "[":
                    depth += 1
                    if depth > MAX_TWIST_NESTING:
                        raise ParseError("twist letters nested deeper than "
                                         f"{MAX_TWIST_NESTING}", line, col + j)
                elif text[j] == "]":
                    depth -= 1
                j += 1
            if depth:
                raise ParseError("unterminated twist letter", line, col + i)
            label = parse_cycle_label(text[i + 2:j - 1], line, col + i + 2)
            sym: object = Twist(label)
            i = j
        elif ch.isalnum() or ch == "_":
            sym = ch
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r} in word",
                             line, col + i)
        inv = False
        if i < len(text) and text[i] == "'":
            inv = True
            i += 1
        letters.append((sym, inv))
    return Word(tuple(letters))


def parse_cycle_label(text: str, line: int | None = None,
                      col: int = 0) -> CycleLabel:
    """Parse `word@symbol` (the @ is sought outside twist brackets)."""
    depth = 0
    split = -1
    for i, ch in enumerate(text):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == "@" and depth == 0:
            split = i
    if split < 0:
        raise ParseError(f"cycle label {text!r} lacks '@'", line, col)
    base = text[split + 1:].strip()
    if not base or not all(c.isalnum() or c == "_" for c in base):
        raise ParseError(f"bad cycle base symbol {base!r}", line, col + split)
    return CycleLabel(parse_word(text[:split], line, col), base)


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
    compose_h and compose_v set (every leaf has .initial and .resulting
    too).  Equality and hashing compare the flat preorder of node kinds,
    part counts and leaves, built without recursion, so trees of any
    depth compare exactly."""

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


def chain(parts: list[CLFExpression]) -> CLFExpression:
    """One horizontal node over the parts, H parts flattened in; the
    words multiply.  No part gives ID(e) and one part gives itself."""
    if len(parts) < 2:
        return parts[0] if parts else IdentityLeaf(EMPTY_WORD)
    flat: list = []
    for e in parts:
        flat += _parts(e, HComp)
    return HComp(tuple(flat), concat(*(e.initial for e in parts)),
                 concat(*(e.resulting for e in parts)))


def compose_h(e1: CLFExpression, e2: CLFExpression) -> HComp:
    """Horizontal composition; the words multiply."""
    return chain([e1, e2])


def compose_v(bottom: CLFExpression, top: CLFExpression) -> VComp:
    """Vertical composition; the middle words must agree when reduced."""
    if not words_equal(bottom.resulting, top.initial):
        raise BoundaryMismatch(
            f"resulting word {word_str(bottom.resulting)} does not match "
            f"initial word {word_str(top.initial)}")
    return VComp(_parts(bottom, VComp) + _parts(top, VComp),
                 bottom.initial, top.resulting)


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
    word, so equal words evaluate to identical bimodule objects.
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


_OPEN = re.compile(r"\s*(ID|CRIT|H|V)\(")
_NEXT = re.compile(r"\s*(.?)")
MAX_TWIST_NESTING = 64  # word equality and hashing recurse per level


def parse_expression(text: str, line: int | None = None,
                     col: int = 0) -> CLFExpression:
    """Parse ID(word) | CRIT(fl=.., fr=.., vc=..) | H(e1, e2) | V(e1, e2).

    One left-to-right pass keeps the open H( and V( frames on a stack, so
    nesting depth costs no recursion: a ',' stores a frame's first
    argument and its ')' composes the two.  Values are lists of pending H
    parts that an H splices; a V or the end makes one `chain` of each.  A
    leaf ends at its first ')', since words bracket only with [...].  Errors
    carry col plus the offset of the offending character; a V whose middle
    words differ is located at its head.
    """
    frames: list[list] = []  # [head, its offset, first argument or None]
    i = 0
    while True:
        m = _OPEN.match(text, i)
        if m is None:
            i = _NEXT.match(text, i).start(1)
            raise ParseError(f"expected ID/CRIT/H/V at {text[i:i + 20]!r}",
                             line, col + i)
        head, i = m.group(1), m.end()
        if head in ("H", "V"):
            frames.append([head, m.start(1), None])
            continue
        close = text.find(")", i)
        if close < 0:
            raise ParseError("unbalanced parentheses", line, col + m.start(1))
        expr = [_parse_leaf(head, text[i:close], line, col + i)]
        i = close + 1
        while True:
            m = _NEXT.match(text, i)
            sep, at, i = m.group(1), m.start(1), m.end()
            if not frames:
                if sep:
                    raise ParseError(f"trailing input {text[at:].strip()!r}",
                                     line, col + at)
                return chain(expr)
            head, start, first = frames[-1]
            if sep == "," and first is None:
                frames[-1][2] = expr
                break
            if sep == ")" and first is not None:
                frames.pop()
                if head == "H":
                    first += expr
                    expr = first
                    continue
                try:
                    expr = [compose_v(chain(first), chain(expr))]
                except BoundaryMismatch as exc:
                    raise ParseError(str(exc), line, col + start) from None
                continue
            raise ParseError(f"{head} takes two arguments" if sep
                             else "unbalanced parentheses", line, col + at)


def _indent(text: str) -> int:
    return len(text) - len(text.lstrip())


def _parse_leaf(head: str, body: str, line, col) -> CLFExpression:
    if head == "ID":
        return IdentityLeaf(parse_word(body, line, col + _indent(body)))
    fields = {"fl": EMPTY_WORD, "fr": EMPTY_WORD}
    cycle = None
    for part in body.split(","):
        key, eq, value = part.partition("=")
        at = col + _indent(key)
        if not eq:
            raise ParseError(f"bad CRIT field {part!r}", line, at)
        vcol = col + len(key) + 1 + _indent(value)
        key = key.strip()
        if key in ("fl", "fr"):
            fields[key] = parse_word(value, line, vcol)
        elif key == "vc":
            cycle = parse_cycle_label(value.strip(), line, vcol)
        else:
            raise ParseError(f"unknown CRIT field {key!r}", line, at)
        col += len(part) + 1
    if cycle is None:
        raise ParseError("CRIT needs vc=word@symbol", line, col - 1)
    return CritLeaf(AbstractCLF(fields["fl"], fields["fr"], cycle))
