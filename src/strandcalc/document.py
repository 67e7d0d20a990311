"""The line-oriented text format for circles, algebras, bimodules,
morphisms, decomposition expressions and evaluation assignments.

Grammar sketch (see docs/format.md for the full reference):

    # comment to end of line
    PMC <name> GENUS <g> PAIRS (a b) (c d) ...
    ALGEBRA <name> FROM <pmc>
    BIMODULE <name> OVER <A1> <A2> {
      GEN <gen> L=<elem> R=<elem>
      D1 <gen> [<elem> <elem> ...] = <elem> : <gen> + ... | 0
    }
    MORPHISM <name> FROM <M> TO <N> {
      F <gen> [<elem> ...] = <elem> : <gen> + ... | 0
    }
    CLF <name> = H(ID(word), CRIT(fl=word, fr=word, vc=word@symbol)) ...
    ASSIGN <name> BASE <algebra> {
      LETTER <letter> = <bimodule>
      CRIT DEFAULT = <morphism>
    }

Names are unique across kinds and must be declared before use.  Algebra
elements are written in their canonical strand form (`e`, `r[1-2]`,
`h(1 3)`, juxtaposed); generator names may embed bracketed groups, so box
generator names like `h(1 3)|h(1 3)` parse.  Trailing `;` is tolerated.
Every parse error carries a (line, column) location.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from . import clf as clfmod
from .clf import _Cursor
from .bimodules import DATable, TypeDABimodule, make_bimodule
from .circles import make_pmc, validation_report
from .errors import (DocumentError, DuplicateName, ParseError,
                     StrandCalcError, UnresolvedReference)
from .morphisms import DAMorphism, make_morphism, same_shape
from .strands import DGAlgebra, build_dga

_ELEM = re.compile(r"(?:r\[\d+-\d+\]|h\(\d+ \d+\))+|e")
_NAME = re.compile(r"(?:[A-Za-z0-9_.|-]|\[[^\]]*\]|\([^)]*\))+")
_PAIR = re.compile(r"\(\s*(\d+)\s+(\d+)\s*\)")


@dataclass
class Document:
    """Each declared name's (kind, value), in declaration order; every
    algebra, bimodule and morphism carries its name as its label."""

    decls: dict[str, tuple[str, object]] = field(default_factory=dict)

    def add(self, kind: str, name: str, line: int, value) -> None:
        if name in self.decls:
            raise DuplicateName(f"name {name!r} already declared", line, 0)
        self.decls[name] = (kind, value)

    def get(self, name: str, kind: str, line=None, col=None):
        got = self.decls.get(name)
        if got is None or got[0] != kind:
            raise UnresolvedReference(
                f"no {kind} named {name!r}", line, col)
        return got[1]

    def find_bimodule_name(self, M: TypeDABimodule) -> str | None:
        """First declared bimodule with the same index tables, if any."""
        return next((n for n, (kind, N) in self.decls.items()
                     if kind == "bimodule" and same_shape(N, M)), None)


def _element(cur: _Cursor, algebra: DGAlgebra) -> int:
    m = cur.regex(_ELEM, "an algebra element")
    try:
        return algebra.index(m[0])
    except KeyError:
        raise cur.error(f"element {m[0]!r} is not in the algebra's basis",
                        m.start()) from None


def _gen_name(cur: _Cursor) -> str:
    return cur.regex(_NAME, "a generator name").group(0)


def parse_document(text: str) -> Document:
    """Parse a full document; every error carries its location."""
    doc = Document()
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        raw = lines[i]
        lineno = i + 1
        stripped = raw.split("#", 1)[0].rstrip()
        i += 1
        if not stripped.strip():
            continue
        cur = _Cursor(stripped, lineno)
        keyword = cur.word()
        handler = _HANDLERS.get(keyword)
        if handler is None:
            raise ParseError(f"unknown declaration {keyword!r}", lineno, 0)
        block = None
        if keyword in _BLOCK_KEYWORDS and stripped.endswith("{"):
            cur.text = stripped[:-1]
            block = []
            while True:
                if i >= len(lines):
                    raise ParseError("unterminated block", lineno, 0)
                body = lines[i].split("#", 1)[0].rstrip()
                blockno = i + 1
                i += 1
                if body.strip() == "}":
                    break
                if body.strip():
                    block.append((blockno, body))
        handler(doc, cur, block)
        cur.end("declaration")
    return doc


def _parse_pmc(doc: Document, cur: _Cursor, block) -> None:
    name = cur.word()
    cur.literal("GENUS")
    genus_text = cur.word()
    if not genus_text.isdigit():
        raise cur.error("GENUS expects a number")
    genus = int(genus_text)
    cur.literal("PAIRS")
    pairs = []
    while not cur.done():
        m = cur.regex(_PAIR, "a pair like (1 3)")
        pairs.append((int(m.group(1)), int(m.group(2))))
    try:
        report = validation_report(genus, pairs)
    except StrandCalcError as exc:
        raise ParseError(str(exc), cur.line, 0) from None
    doc.add("pmc", name, cur.line, report)


def _parse_algebra(doc: Document, cur: _Cursor, block) -> None:
    name = cur.word()
    cur.literal("FROM")
    pmc_name = cur.word()
    report = doc.get(pmc_name, "pmc", cur.line, 0)
    if not report.valid:
        raise ParseError(
            f"circle {pmc_name!r} is degenerate (surgery yields "
            f"{report.surgery_components} circles)", cur.line, 0)
    A = build_dga(make_pmc(report.genus, report.matching), label=name)
    doc.add("algebra", name, cur.line, A)


def _parse_bimodule(doc: Document, cur: _Cursor, block) -> None:
    name = cur.word()
    cur.literal("OVER")
    a1_name = cur.word()
    a2_name = cur.word()
    A1 = doc.get(a1_name, "algebra", cur.line, 0)
    A2 = doc.get(a2_name, "algebra", cur.line, 0)
    gens: list[tuple[str, int, int]] = []
    gen_pos: dict[str, int] = {}
    entries: dict = {}
    for lineno, body in block or []:
        line = _Cursor(body.rstrip(";"), lineno)
        if line.try_literal("GEN"):
            gname = _gen_name(line)
            line.literal("L=")
            left = _element(line, A1)
            line.literal("R=")
            right = _element(line, A2)
            line.end("GEN line")
            if gname in gen_pos:
                raise DuplicateName(f"generator {gname!r} repeated",
                                    lineno, 0)
            gen_pos[gname] = len(gens)
            gens.append((gname, left, right))
        elif line.try_literal("D1"):
            _parse_entry(line, A1, A2, gen_pos, gen_pos, entries)
        else:
            raise line.error("expected GEN or D1")
    try:
        M = make_bimodule(A1, A2, gens, entries, label=name)
    except StrandCalcError as exc:
        raise DocumentError(str(exc), cur.line, 0) from None
    doc.add("bimodule", name, cur.line, M)


def _parse_entry(line: _Cursor, A1: DGAlgebra, A2: DGAlgebra,
                 source_pos: dict[str, int], target_pos: dict[str, int],
                 entries: dict) -> None:
    """Parse `<gen> [<elem> ...] = <elem> : <gen> + ... | 0`, the body of
    a D1 or F line, and add it to entries (repeats cancel mod 2)."""
    xname = _gen_name(line)
    if xname not in source_pos:
        raise line.error(f"unknown source generator {xname!r}")
    line.literal("[")
    seq = []
    while not line.try_literal("]"):
        seq.append(_element(line, A2))
    line.literal("=")
    outs = set()
    if not line.try_literal("0"):
        while True:
            b = _element(line, A1)
            line.literal(":")
            gname = _gen_name(line)
            if gname not in target_pos:
                raise line.error(f"unknown target generator {gname!r}")
            outs ^= {(b, target_pos[gname])}
            if not line.try_literal("+"):
                break
    line.end("entry")
    key = (source_pos[xname], tuple(seq))
    entries[key] = entries.get(key, frozenset()) ^ outs


def _parse_morphism(doc: Document, cur: _Cursor, block) -> None:
    name = cur.word()
    cur.literal("FROM")
    m_name = cur.word()
    cur.literal("TO")
    n_name = cur.word()
    M = doc.get(m_name, "bimodule", cur.line, 0)
    N = doc.get(n_name, "bimodule", cur.line, 0)
    gen_pos_m = {g.name: i for i, g in enumerate(M.gens)}
    gen_pos_n = {g.name: i for i, g in enumerate(N.gens)}
    entries: dict = {}
    for lineno, body in block or []:
        line = _Cursor(body.rstrip(";"), lineno)
        line.literal("F")
        _parse_entry(line, M.left_algebra, M.right_algebra, gen_pos_m,
                     gen_pos_n, entries)
    try:
        F = make_morphism(M, N, entries, label=name)
    except StrandCalcError as exc:
        raise DocumentError(str(exc), cur.line, 0) from None
    doc.add("morphism", name, cur.line, F)


def _parse_clf(doc: Document, cur: _Cursor, block) -> None:
    name = cur.word()
    cur.literal("=")
    expr = clfmod.parse_expression(cur.text[cur.pos:], cur.line,
                                   cur.base + cur.pos)
    cur.pos = len(cur.text)
    doc.add("clf", name, cur.line, expr)


def _parse_assign(doc: Document, cur: _Cursor, block) -> None:
    name = cur.word()
    cur.literal("BASE")
    algebra_name = cur.word()
    A = doc.get(algebra_name, "algebra", cur.line, 0)
    letters = {}
    default_letter = None
    default_crit = None
    for lineno, body in block or []:
        line = _Cursor(body.rstrip(";"), lineno)
        if line.try_literal("LETTER"):
            token = line.word()
            at = line.pos - len(token)
            line.literal("=")
            bname = line.word()
            bimod = doc.get(bname, "bimodule", lineno, 0)
            line.end("LETTER line")
            if token == "DEFAULT":
                default_letter = bimod
                continue
            w = clfmod.parse_word(token, lineno, at)
            if len(w.letters) != 1:
                raise line.error("LETTER expects a single letter", at)
            letters[w.letters[0]] = bimod
        elif line.try_literal("CRIT"):
            line.literal("DEFAULT")
            line.literal("=")
            fname = line.word()
            default_crit = doc.get(fname, "morphism", lineno, 0)
            line.end("CRIT line")
        else:
            raise line.error("expected LETTER or CRIT")
    assign = clfmod.CLFAssignment(A, letters=letters,
                                  default_letter=default_letter,
                                  default_crit=default_crit)
    doc.add("assign", name, cur.line, assign)


_HANDLERS = {
    "PMC": _parse_pmc,
    "ALGEBRA": _parse_algebra,
    "BIMODULE": _parse_bimodule,
    "MORPHISM": _parse_morphism,
    "CLF": _parse_clf,
    "ASSIGN": _parse_assign,
}
_BLOCK_KEYWORDS = {"BIMODULE", "MORPHISM", "ASSIGN"}


# --- serialization -----------------------------------------------------------

def _entry_lines(keyword: str, T: DATable) -> list[str]:
    """The D1 or F lines of a table, in (generator, arity, inputs) order."""
    A1, A2 = T.source.left_algebra, T.source.right_algebra
    source_gens, target_gens, lines = T.source.gens, T.target.gens, []
    for (x, seq), outs in sorted(T.table.items(),
                                 key=lambda kv: (kv[0][0], len(kv[0][1]),
                                                 kv[0][1])):
        inputs = " ".join(A2.name(a) for a in seq)
        rhs = " + ".join(f"{A1.name(b)} : {target_gens[y].name}"
                         for b, y in sorted(outs))
        lines.append(f"  {keyword} {source_gens[x].name} [{inputs}] = {rhs}")
    return lines


def bimodule_text(name: str, M: TypeDABimodule,
                  a1_name: str, a2_name: str) -> str:
    """Emit a bimodule in its declaration form (round-trips exactly)."""
    A1, A2 = M.left_algebra, M.right_algebra
    lines = [f"BIMODULE {name} OVER {a1_name} {a2_name} {{"]
    for g in M.gens:
        lines.append(f"  GEN {g.name} L={A1.name(g.left)} R={A2.name(g.right)}")
    lines += _entry_lines("D1", M)
    lines.append("}")
    return "\n".join(lines)


def morphism_text(name: str, F: DAMorphism,
                  m_name: str, n_name: str) -> str:
    """Emit a morphism in its declaration form (round-trips exactly)."""
    lines = [f"MORPHISM {name} FROM {m_name} TO {n_name} {{"]
    lines += _entry_lines("F", F)
    lines.append("}")
    return "\n".join(lines)
