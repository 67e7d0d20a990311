"""The text format: parsing, diagnostics, serialization round-trips."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strandcalc.bimodules import identity_bimodule, make_bimodule
from strandcalc.circles import torus_circle
from strandcalc.document import (bimodule_text, morphism_text,
                                 parse_document)
from strandcalc.errors import (DocumentError, DuplicateName, ParseError,
                               UnresolvedReference)
from strandcalc.morphisms import compose, same_shape
from strandcalc.boxes import box_bimodules
from strandcalc.strands import build_dga

from helpers import random_chained_table

MINIMAL = """\
# the torus circle and its algebra
PMC T GENUS 1 PAIRS (1 3) (2 4)
ALGEBRA A FROM T
"""

BIMODULE = MINIMAL + """
BIMODULE M OVER A A {
  GEN u L=h(1 3) R=h(1 3)
  GEN v L=h(1 3) R=h(1 3)
  D1 u [] = h(1 3) : v
}
"""

MORPHISM = BIMODULE + """
MORPHISM F FROM M TO M {
  F u [] = h(1 3) : v
}
"""

# (document, one entry line in it) for each kind of table block
ENTRY_BLOCKS = {
    "D1": (BIMODULE, "  D1 u [] = h(1 3) : v"),
    "F": (MORPHISM, "  F u [] = h(1 3) : v"),
}

# (fault, text to replace in the entry line, replacement)
BAD_ENTRIES = [
    ("unknown source generator", "u [", "w ["),
    ("unknown target generator", ": v", ": w"),
    ("unknown element", "h(1 3) :", "h(1 5) :"),
    ("trailing input", ": v", ": v extra"),
]

# every declaration line and block line that ends in a name or element
EVERY_LINE = MORPHISM + """
ASSIGN S BASE A {
  LETTER a = M
  CRIT DEFAULT = F
}
"""

# (a line of EVERY_LINE, the same line with trailing input, that input)
TRAILING = [
    ("ALGEBRA A FROM T", "ALGEBRA A FROM T junk here", "junk"),
    ("ALGEBRA A FROM T", "ALGEBRA A FROM T {", "{"),
    ("BIMODULE M OVER A A {", "BIMODULE M OVER A A junk {", "junk"),
    ("MORPHISM F FROM M TO M {", "MORPHISM F FROM M TO M extra {",
     "extra"),
    ("ASSIGN S BASE A {", "ASSIGN S BASE A more {", "more"),
    ("  GEN u L=h(1 3) R=h(1 3)", "  GEN u L=h(1 3) R=h(1 3) junk", "junk"),
    ("  LETTER a = M", "  LETTER a = M trailing", "trailing"),
    ("  CRIT DEFAULT = F", "  CRIT DEFAULT = F trailing", "trailing"),
]

# (the LETTER line of EVERY_LINE made malformed, the column of its fault)
BAD_LETTERS = [
    ("  LETTER a? = M", 10),
    ("  LETTER T[a@ = M", 9),
    ("  LETTER ab = M", 9),
]


def _line_of(text: str, line: str) -> int:
    return text.splitlines().index(line) + 1


class TestParse:
    def test_pmc_line(self):
        doc = parse_document("PMC T GENUS 1 PAIRS (1 3) (2 4)\n")
        report = doc.get("T", "pmc")
        assert report.valid

    def test_invalid_circle_parses_with_report(self):
        doc = parse_document("PMC BAD GENUS 1 PAIRS (1 2) (3 4)\n")
        assert not doc.get("BAD", "pmc").valid

    def test_malformed_pairs_located(self):
        with pytest.raises(ParseError) as info:
            parse_document("PMC T GENUS 1 PAIRS (1 3) (2 5)\n")
        assert info.value.line == 1

    def test_clf_error_located_in_expression(self):
        # columns are 0-based; the '?' inside ID(q?) is at column 31
        with pytest.raises(ParseError) as info:
            parse_document("CLF D = H(H(ID(a), ID(b)), ID(q?))\n")
        assert str(info.value).startswith("line 1, col 31:")

    def test_algebra_from_invalid_circle_rejected(self):
        text = ("PMC BAD GENUS 1 PAIRS (1 2) (3 4)\n"
                "ALGEBRA A FROM BAD\n")
        with pytest.raises(ParseError) as info:
            parse_document(text)
        assert info.value.line == 2

    def test_duplicate_name(self):
        with pytest.raises(DuplicateName):
            parse_document("PMC T GENUS 1 PAIRS (1 3) (2 4)\n"
                           "PMC T GENUS 1 PAIRS (1 3) (2 4)\n")

    def test_unresolved_reference(self):
        with pytest.raises(UnresolvedReference) as info:
            parse_document("ALGEBRA A FROM NOPE\n")
        assert info.value.line == 1

    def test_bimodule_block(self):
        doc = parse_document(BIMODULE)
        M = doc.get("M", "bimodule")
        assert M.size == 2
        assert M.arity_bound == 0

    def test_unknown_element_located(self):
        bad = MINIMAL + """
BIMODULE M OVER A A {
  GEN u L=h(1 5) R=h(1 3)
}
"""
        with pytest.raises(ParseError) as info:
            parse_document(bad)
        assert info.value.line == 6

    def test_comments_and_blank_lines(self):
        text = "# leading comment\n\nPMC T GENUS 1 PAIRS (1 3) (2 4)  # tail\n"
        doc = parse_document(text)
        assert doc.get("T", "pmc").valid

    @pytest.mark.parametrize("keyword", sorted(ENTRY_BLOCKS))
    @pytest.mark.parametrize("fault,old,new", BAD_ENTRIES,
                             ids=[b[0] for b in BAD_ENTRIES])
    def test_bad_entry_located(self, keyword, fault, old, new):
        text, entry = ENTRY_BLOCKS[keyword]
        with pytest.raises(ParseError) as info:
            parse_document(text.replace(entry, entry.replace(old, new)))
        assert info.value.line == _line_of(text, entry)

    @pytest.mark.parametrize("line,junky,junk", TRAILING,
                             ids=[t[1].strip() for t in TRAILING])
    def test_trailing_input_located(self, line, junky, junk):
        parse_document(EVERY_LINE)
        with pytest.raises(ParseError) as info:
            parse_document(EVERY_LINE.replace(line, junky))
        assert "trailing input" in str(info.value)
        assert info.value.line == _line_of(EVERY_LINE, line)
        assert info.value.column == junky.index(" " + junk) + 1

    @pytest.mark.parametrize("bad,column", BAD_LETTERS,
                             ids=[b[0].strip() for b in BAD_LETTERS])
    def test_letter_error_located_at_token(self, bad, column):
        # a malformed letter is located inside its token, not at column 0
        # or at the end of the line
        with pytest.raises(ParseError) as info:
            parse_document(EVERY_LINE.replace("  LETTER a = M", bad))
        assert (info.value.line, info.value.column) == (
            _line_of(EVERY_LINE, "  LETTER a = M"), column)

    @pytest.mark.parametrize("keyword,kind", [("D1", "bimodule"),
                                              ("F", "morphism")])
    def test_repeated_entries_cancel(self, keyword, kind):
        text, entry = ENTRY_BLOCKS[keyword]
        doc = parse_document(text.replace(entry, entry + "\n" + entry))
        name = "M" if kind == "bimodule" else "F"
        assert not doc.get(name, kind).table

    @pytest.mark.parametrize("keyword,kind", [("D1", "bimodule"),
                                              ("F", "morphism")])
    @pytest.mark.parametrize("copies", [2, 3])
    def test_repeated_terms_on_one_line_cancel(self, keyword, kind, copies):
        text, entry = ENTRY_BLOCKS[keyword]
        doc = parse_document(text.replace(
            entry, entry + " + h(1 3) : v" * (copies - 1)))
        name = "M" if kind == "bimodule" else "F"
        single = parse_document(text).get(name, kind).table
        assert doc.get(name, kind).table == (single if copies % 2 else {})

    @pytest.mark.parametrize("keyword,header", [
        ("D1", "BIMODULE M OVER A A {"),
        ("F", "MORPHISM F FROM M TO M {")])
    def test_idempotent_mismatch_located_at_block(self, keyword, header):
        # h(1 3) . h(2 4) = 0, so h(2 4) is no output at u
        text, entry = ENTRY_BLOCKS[keyword]
        with pytest.raises(DocumentError) as info:
            parse_document(text.replace(entry,
                                        entry.replace("h(1 3) :",
                                                      "h(2 4) :")))
        assert type(info.value) is DocumentError
        assert "left-idempotent compatibility" in str(info.value)
        assert info.value.line == _line_of(text, header)

    def test_clf_and_assign(self):
        text = BIMODULE + """
MORPHISM F FROM M TO M {
  F u [] = h(1 3) : u
  F v [] = h(1 3) : v
}
CLF W = H(ID(a), CRIT(fl=e, fr=e, vc=e@z))
ASSIGN S BASE A {
  LETTER a = M
  CRIT DEFAULT = F
}
"""
        doc = parse_document(text)
        assert doc.get("W", "clf") is not None
        assign = doc.get("S", "assign")
        assert assign.letter_bimodule(("a", False)) is doc.get("M",
                                                               "bimodule")


TUTORIAL = open(__file__.replace("tests/test_document.py",
                                 "tutorial/torus.bhf")).read()


class TestTutorial:
    def test_parses(self):
        doc = parse_document(TUTORIAL)
        for name, kind in (("T", "pmc"), ("A", "algebra"),
                           ("I", "bimodule"), ("M2", "bimodule"),
                           ("IDF", "morphism"), ("W", "clf"),
                           ("S", "assign")):
            assert doc.get(name, kind) is not None

    def test_bimodule_round_trip(self):
        doc = parse_document(TUTORIAL)
        I = doc.get("I", "bimodule")
        M2 = doc.get("M2", "bimodule")
        block = bimodule_text("BOX", box_bimodules(I, M2), "A", "A")
        doc2 = parse_document(TUTORIAL + "\n" + block + "\n")
        reparsed = doc2.get("BOX", "bimodule")
        rebuilt = box_bimodules(doc2.get("I", "bimodule"),
                                doc2.get("M2", "bimodule"))
        assert same_shape(reparsed, rebuilt)
        assert [g.name for g in reparsed.gens] == \
            [g.name for g in rebuilt.gens]

    def test_morphism_round_trip(self):
        doc = parse_document(TUTORIAL)
        F = doc.get("IDF", "morphism")
        block = morphism_text("C", compose(F, F), "I", "I")
        doc2 = parse_document(TUTORIAL + "\n" + block + "\n")
        reparsed = doc2.get("C", "morphism")
        G = doc2.get("IDF", "morphism")
        assert reparsed == compose(G, G)

    def test_random_edits_parse_or_are_located(self):
        # 400 seeded edits, each inserting, deleting or replacing 1-3
        # characters: the edited document parses or raises a DocumentError
        # that names its line, never any other exception
        rng = Random(2024)
        alphabet = sorted(set(TUTORIAL) | set("?@'[]{}()=:+;,\t"))
        for _ in range(400):
            at, size = rng.randrange(len(TUTORIAL)), rng.randint(1, 3)
            new = "".join(rng.choice(alphabet) for _ in range(size))
            edit = rng.choice(["insert", "delete", "replace"])
            text = (TUTORIAL[:at] + ("" if edit == "delete" else new)
                    + TUTORIAL[at + (0 if edit == "insert" else size):])
            try:
                parse_document(text)
            except DocumentError as exc:
                assert exc.line is not None, (edit, at, new, str(exc))


class TestTableRoundTrip:
    A = build_dga(torus_circle())
    I = identity_bimodule(A)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), cap=st.integers(0, 3),
           density=st.integers(0, 12))
    def test_random_chained_tables(self, seed, cap, density):
        I = self.I
        F = random_chained_table(Random(seed), I, I, cap, density)
        M = make_bimodule(self.A, self.A,
                          [(g.name, g.left, g.right) for g in I.gens],
                          F.table)
        text = "\n".join([MINIMAL, bimodule_text("I", I, "A", "A"),
                          bimodule_text("R", M, "A", "A"),
                          morphism_text("G", F, "I", "I")]) + "\n"
        doc = parse_document(text)
        R, G = doc.get("R", "bimodule"), doc.get("G", "morphism")
        assert R.d1 == M.d1
        assert [(g.name, g.left, g.right) for g in R.gens] == \
            [(g.name, g.left, g.right) for g in M.gens]
        assert G.table == F.table
        assert [g.name for g in G.source.gens] == \
            [g.name for g in G.target.gens] == [g.name for g in I.gens]
