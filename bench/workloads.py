"""The four benchmark workloads.

A workload builds its inputs in `setup(seed)` and then offers `ops()`, the
fixed list of operations one round runs.  An operation is timed alone;
its `check` runs afterwards, untimed, and returns "ok", "failed" (the
operation did not produce a result) or "wrong" (it produced one the check
rejects).  An operation that raises is failed and is not checked.
An operation with `timed` false is run, counted and checked like the
others but left out of the round's time (the failing deep-nesting
operation of tutorial-cli, whose error path would otherwise be most of
its round).  strandcalc is imported in `setup`, so the import counts as
set-up time, and every call goes through the package's module attributes
so that the tracer's wrappers see it.
"""

from __future__ import annotations

import io
import os
import re
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable

import gen
import oracles

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
TUTORIAL = os.path.join(ROOT, "tutorial", "torus.bhf")
GOLDEN = os.path.join(ROOT, "tests", "golden", "tutorial.txt")

CAP = 2
VERIFY_BUDGET = 10 ** 4
CLF_TREES = 12

# The commands of tests/golden/tutorial.txt, in transcript order.
GOLDEN_COMMANDS = [
    ("pmc-check", ["pmc", "check", "T"]),
    ("algebra-build", ["algebra", "build", "A"]),
    ("algebra-verify", ["algebra", "verify", "A", "--budget", "100000"]),
    ("bimodule-verify-I", ["bimodule", "verify", "I"]),
    ("bimodule-verify-M2", ["bimodule", "verify", "M2"]),
    ("homology-I", ["homology", "I"]),
    ("homology-M2", ["homology", "M2"]),
    ("boxtensor", ["boxtensor", "I", "M2", "-o", "IM2"]),
    ("morphism-verify", ["morphism", "verify", "DH"]),
    ("morphism-compose", ["morphism", "compose", "IDF", "DHID",
                          "-o", "C"]),
    ("morphism-homotopic", ["morphism", "homotopic", "IDF", "DHID",
                            "--cap", "2"]),
    ("clf-normalize", ["clf", "normalize", "W"]),
    ("clf-hurwitz", ["clf", "hurwitz", "HW", "--pos", "0"]),
    ("clf-standard", ["clf", "standard", "SF", "--vc", "e@z"]),
    ("clf-evaluate", ["clf", "evaluate", "W", "--assign", "S"]),
]


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], str]
    timed: bool = True


def _sc():
    import strandcalc
    import strandcalc.clf
    import strandcalc.cli
    return strandcalc


def same_shape(P, Q) -> bool:
    """Same generators' idempotents and the same structure table (written
    here rather than taken from strandcalc, whose output it checks)."""
    return ([(g.left, g.right) for g in P.gens]
            == [(g.left, g.right) for g in Q.gens] and P.d1 == Q.d1)


def witness_ok(sc, F, G, result, cap: int) -> bool:
    """A witness W of F ~ G has arity <= cap and d(W) = F + G."""
    if not result:
        return False
    W = result.h
    return (W.arity_bound <= cap
            and sc.morphism_differential(W).table == (F + G).table)


def _g2_base(sc):
    A2 = sc.build_dga(sc.split_circle(2), label="A2")
    I2 = sc.identity_bimodule(A2, label="I2")
    ID = sc.identity_morphism(I2)
    if not sc.is_closed(ID):  # materializes every product of A2
        raise AssertionError("the identity morphism is not closed")
    return A2, I2, ID


def _arity0_morphism(sc, A2, I2, gen_name: str, elem_name: str):
    x = I2.gen_index(gen_name)
    return sc.make_morphism(I2, I2, {(x, ()): [(A2.index(elem_name), x)]})


class G2Homotopy:
    """is_homotopic(ID, ID + d(H), 2) for one arity-0 draw of H from each
    shape class, plus ID against 0 at caps 1 and 2."""

    name = "g2-homotopy"

    def setup(self, seed: int) -> None:
        sc = self.sc = _sc()
        self.A2, self.I2, self.ID = _g2_base(sc)
        self.draws = gen.homotopy_draws(seed)
        self.targets = []
        for g, b in self.draws:
            H = _arity0_morphism(sc, self.A2, self.I2, g, b)
            self.targets.append(self.ID + sc.morphism_differential(H))
        self.zero = sc.zero_morphism(self.I2, self.I2)

    def ops(self) -> list[Op]:
        sc, ID = self.sc, self.ID
        out = []
        for (g, b), G in zip(self.draws, self.targets):
            out.append(Op(
                f"H({g}, []) = {b}",
                lambda G=G: sc.is_homotopic(ID, G, CAP),
                lambda r, G=G: ("ok" if witness_ok(sc, ID, G, r, CAP)
                                else "wrong")))
        for cap in (1, 2):
            # ID induces the identity on a nonzero homology: never null
            out.append(Op(f"ID ~ 0 at cap {cap}",
                          lambda cap=cap: sc.is_homotopic(ID, self.zero, cap),
                          lambda r: "wrong" if r else "ok"))
        return out


class G2Algebra:
    """From a fresh genus-2 split circle: build, verify, identity
    bimodule, structure check, homology, I2 box I2, closedness of the
    identity, and the structure check of a mutant missing one D1 entry."""

    name = "g2-algebra"

    def setup(self, seed: int) -> None:
        self.sc = _sc()
        self.choices = gen.algebra_choices(seed)
        self.expected_size = None
        self.expected_homology = None

    def _run(self):
        sc = self.sc
        A = sc.build_dga(sc.split_circle(2), label="A2")
        report = sc.verify_dga(A, VERIFY_BUDGET,
                               seed=self.choices["verify_seed"])
        I = sc.identity_bimodule(A)
        structure = sc.check_structure(I)
        h = sc.homology(I)
        box = sc.box_bimodules(I, I)
        closed = sc.is_closed(sc.identity_morphism(I))
        keys = sorted(I.d1)
        drop = keys[self.choices["mutant_entry"] % len(keys)]
        mutant = sc.make_bimodule(
            A, A, [(g.name, g.left, g.right) for g in I.gens],
            {k: v for k, v in I.d1.items() if k != drop}, label="mutant")
        return {"A": A, "verify": report, "I": I, "structure": structure,
                "homology": h, "box": box, "closed": closed,
                "mutant": sc.check_structure(mutant)}

    def _check(self, r) -> str:
        A = r["A"]
        if self.expected_size is None:
            self.expected_size = oracles.count_basis_diagrams(
                oracles.split_matching(2))
            # the identity bimodule's arity-zero complex is (A, d)
            self.expected_homology = oracles.complex_homology(A.size, A.d)
        ok = (A.size == self.expected_size
              and r["verify"].passed
              and r["structure"].passed and r["structure"].complete
              and r["homology"] == self.expected_homology > 0
              and same_shape(r["box"], r["I"])
              and r["closed"].closed
              and not r["mutant"].passed)
        return "ok" if ok else "wrong"

    def ops(self) -> list[Op]:
        return [Op("genus-2 algebra checks", self._run, self._check)]


class G2Clf:
    """Normalize a random decomposition tree, evaluate it and its normal
    form over I2, check both closed and compare them by homotopy."""

    name = "g2-clf"

    def setup(self, seed: int) -> None:
        sc = self.sc = _sc()
        self.A2, self.I2, self.ID = _g2_base(sc)
        H = _arity0_morphism(sc, self.A2, self.I2, *gen.CLF_CRIT)
        self.crit = self.ID + sc.morphism_differential(H)
        if not sc.is_closed(self.crit):
            raise AssertionError("the critical morphism is not closed")
        self.trees = [self._build(t) for t in gen.clf_trees(seed, CLF_TREES)]

    def _word(self, text: str):
        clf = self.sc.clf
        w = clf.EMPTY_WORD
        for sym, inv in re.findall(r"([ab])('?)", text):
            w = clf.concat(w, clf.letter(sym, bool(inv)))
        return w

    def _cycle(self, cycle):
        return self.sc.clf.CycleLabel(self._word(cycle[0]), cycle[1])

    def _build(self, t):
        clf = self.sc.clf
        kind = t[0]
        if kind == "ID":
            return clf.IdentityLeaf(self._word(t[1]))
        if kind == "CRIT":
            return clf.CritLeaf(clf.AbstractCLF(
                self._word(t[1]), self._word(t[2]), self._cycle(t[3])))
        if kind == "H":
            return clf.compose_h(self._build(t[1]), self._build(t[2]))
        bottom = self._build(t[1])
        middle = clf.resulting_word(bottom)
        if t[2][0] == "ID-OVER":
            top = clf.IdentityLeaf(middle)
        else:
            top = clf.CritLeaf(clf.AbstractCLF(middle, clf.EMPTY_WORD,
                                               self._cycle(t[2][1])))
        return clf.compose_v(bottom, top)

    def _run(self, expr):
        sc, clf = self.sc, self.sc.clf
        normal = clf.normalize_horizontal(expr)
        assign = clf.CLFAssignment(self.A2, default_letter=self.I2,
                                   default_crit=self.crit)
        f1 = clf.evaluate(expr, assign)
        f2 = clf.evaluate(normal, assign)
        closed = (sc.is_closed(f1), sc.is_closed(f2))
        return {"expr": expr, "normal": normal, "f1": f1, "f2": f2,
                "closed": closed, "homotopy": sc.is_homotopic(f1, f2, CAP)}

    def _check(self, r) -> str:
        sc, clf = self.sc, self.sc.clf
        e, n, f1, f2 = r["expr"], r["normal"], r["f1"], r["f2"]
        ok = (all(c.closed for c in r["closed"])
              and clf.vcomp_count(n) == 0
              and clf.words_equal(clf.initial_word(e), clf.initial_word(n))
              and clf.words_equal(clf.resulting_word(e),
                                  clf.resulting_word(n))
              and same_shape(f1.source, f2.source)
              and same_shape(f1.target, f2.target)
              and witness_ok(sc, f1, f2, r["homotopy"], CAP))
        return "ok" if ok else "wrong"

    def ops(self) -> list[Op]:
        depths = gen.CLF_DEPTHS
        return [Op(f"tree {i} (depth {depths[i % len(depths)]})",
                   lambda e=e: self._run(e), self._check)
                for i, e in enumerate(self.trees)]


def golden_chunks(text: str) -> list[str]:
    """Split a transcript into its "## name (exit n)" sections."""
    return ["## " + part for part in text.split("## ")[1:]]


class TutorialCli:
    """The golden transcript's 15 commands through strandcalc.cli.main in
    this process, plus `clf normalize` on a 400-deep H(...) nesting."""

    name = "tutorial-cli"

    def setup(self, seed: int) -> None:
        self.sc = _sc()
        with open(GOLDEN, encoding="utf-8") as handle:
            self.golden = golden_chunks(handle.read())
        if len(self.golden) != len(GOLDEN_COMMANDS):
            raise AssertionError("golden transcript and command list differ")
        os.makedirs(OUT_DIR, exist_ok=True)
        self.deep_path = os.path.join(OUT_DIR, "deep-nesting.bhf")
        with open(self.deep_path, "w", encoding="utf-8") as handle:
            handle.write(gen.deep_nesting_document())

    def _main(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.sc.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def ops(self) -> list[Op]:
        out = []
        for (name, args), expected in zip(GOLDEN_COMMANDS, self.golden):
            out.append(Op(
                name, lambda args=args: self._main(["-f", TUTORIAL] + args),
                lambda r, name=name, expected=expected: (
                    "ok" if f"## {name} (exit {r[0]})\n{r[1]}" == expected
                    else "wrong")))
        out.append(Op("clf normalize, 400-deep nesting",
                      lambda: self._main(["-f", self.deep_path, "clf",
                                          "normalize", "D"]),
                      deep_nesting_status, timed=False))
        return out


def deep_nesting_status(r) -> str:
    """Accepted outcomes: exit 0 with the boundaries preserved, or exit 2
    with a located diagnostic.  Anything else is a failed operation (today
    the parser raises RecursionError, which the worker counts as failed)."""
    code, out, err = r
    if code == 0 and "boundaries_preserved: true" in out:
        return "ok"
    if code == 2 and re.search(r"line \d+, col \d+", err):
        return "ok"
    return "failed"


WORKLOADS = {w.name: w for w in (G2Homotopy, G2Algebra, G2Clf, TutorialCli)}
