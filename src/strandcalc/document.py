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
from .bimodules import DATable, TypeDABimodule, make_bimodule
from .circles import validation_report
from .errors import (DocumentError, DuplicateName, ParseError,
                     StrandCalcError, UnresolvedReference)
from .morphisms import DAMorphism, make_morphism
from .strands import DGAlgebra, build_dga

_ELEM = re.compile(r"(?:r\[\d+-\d+\]|h\(\d+ \d+\))+|e")
_NAME = re.compile(r"(?:[A-Za-z0-9_.|-]|\[[^\]]*\]|\([^)]*\))+")
_PAIR = re.compile(r"\(\s*(\d+)\s+(\d+)\s*\)")


@dataclass
class Declaration:
    kind: str
    name: str
    line: int
    column: int
    value: object
    raw: object = None


@dataclass
class Document:
    decls: dict[str, Declaration] = field(default_factory=dict)
    order: list[str] = field(default_factory=list)

    def add(self, decl: Declaration) -> None:
        if decl.name in self.decls:
            raise DuplicateName(f"name {decl.name!r} already declared",
                                decl.line, decl.column)
        self.decls[decl.name] = decl
        self.order.append(decl.name)

    def get(self, name: str, kind: str, line=None, col=None):
        decl = self.decls.get(name)
        if decl is None or decl.kind != kind:
            raise UnresolvedReference(
                f"no {kind} named {name!r}", line, col)
        return decl.value

    def names(self, kind: str) -> list[str]:
        return [n for n in self.order if self.decls[n].kind == kind]

    def find_bimodule_name(self, M: TypeDABimodule) -> str | None:
        """First declared bimodule with the same index tables, if any."""
        from .morphisms import same_shape
        for n in self.names("bimodule"):
            if same_shape(self.decls[n].value, M):
                return n
        return None


class _Cursor:
    def __init__(self, text: str, line: int, col: int = 0):
        self.text = text
        self.line = line
        self.base = col
        self.pos = 0

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.line, self.base + self.pos)

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
        self.skip_ws()
        if not self.text.startswith(token, self.pos):
            raise self.error(f"expected {token!r}")
        self.pos += len(token)

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
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and not self.text[self.pos].isspace():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected a token")
        return self.text[start:self.pos]

    def rest(self) -> str:
        self.skip_ws()
        out = self.text[self.pos:]
        self.pos = len(self.text)
        return out


def _element(cur: _Cursor, algebra: DGAlgebra) -> int:
    m = cur.regex(_ELEM, "an algebra element")
    name = m.group(0)
    try:
        return algebra.index(name)
    except KeyError:
        raise ParseError(f"element {name!r} is not in the algebra's basis",
                         cur.line, cur.base + m.start()) from None


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
    doc.add(Declaration("pmc", name, cur.line, 0, report,
                        raw=(genus, tuple(pairs))))


def _parse_algebra(doc: Document, cur: _Cursor, block) -> None:
    name = cur.word()
    cur.literal("FROM")
    pmc_name = cur.word()
    report = doc.get(pmc_name, "pmc", cur.line, 0)
    if not report.valid:
        raise ParseError(
            f"circle {pmc_name!r} is degenerate (surgery yields "
            f"{report.surgery_components} circles)", cur.line, 0)
    genus, pairs = doc.decls[pmc_name].raw
    from .circles import make_pmc
    A = build_dga(make_pmc(genus, pairs), label=name)
    doc.add(Declaration("algebra", name, cur.line, 0, A, raw=pmc_name))


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
    doc.add(Declaration("bimodule", name, cur.line, 0, M,
                        raw=(a1_name, a2_name)))


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
    doc.add(Declaration("morphism", name, cur.line, 0, F,
                        raw=(m_name, n_name)))


def _parse_clf(doc: Document, cur: _Cursor, block) -> None:
    name = cur.word()
    cur.literal("=")
    cur.skip_ws()
    start = cur.base + cur.pos
    expr = clfmod.parse_expression(cur.rest(), cur.line, start)
    doc.add(Declaration("clf", name, cur.line, 0, expr))


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
            line.literal("=")
            bname = line.word()
            bimod = doc.get(bname, "bimodule", lineno, 0)
            line.end("LETTER line")
            if token == "DEFAULT":
                default_letter = bimod
                continue
            w = clfmod.parse_word(token, lineno, 0)
            if len(w.letters) != 1:
                raise line.error("LETTER expects a single letter")
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
    doc.add(Declaration("assign", name, cur.line, 0, assign,
                        raw=algebra_name))


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

def _entry_lines(keyword: str, T: DATable, A1: DGAlgebra, A2: DGAlgebra,
                 source_gens, target_gens) -> list[str]:
    """The D1 or F lines of a table, in (generator, arity, inputs) order."""
    lines = []
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
    lines += _entry_lines("D1", M, A1, A2, M.gens, M.gens)
    lines.append("}")
    return "\n".join(lines)


def morphism_text(name: str, F: DAMorphism,
                  m_name: str, n_name: str) -> str:
    """Emit a morphism in its declaration form (round-trips exactly)."""
    lines = [f"MORPHISM {name} FROM {m_name} TO {n_name} {{"]
    lines += _entry_lines("F", F, F.source.left_algebra,
                          F.source.right_algebra, F.source.gens,
                          F.target.gens)
    lines.append("}")
    return "\n".join(lines)
