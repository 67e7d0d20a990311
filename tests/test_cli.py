"""The command driver: exit codes, determinism, emission."""

import json
import os
import re
import subprocess
import sys

import pytest

from strandcalc import cli
from strandcalc.clf import MAX_TWIST_NESTING

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TUTORIAL = os.path.join(ROOT, "tutorial", "torus.bhf")


def run(*args, doc=TUTORIAL, env=None):
    env = dict(os.environ, **(env or {}))
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    proc = subprocess.run(
        [sys.executable, "-m", "strandcalc.cli", "-f", doc, *args],
        capture_output=True, text=True, env=env)
    return proc


def label(n):
    """A cycle label whose prefix nests twist letters n deep."""
    return "T[" * n + "e@z" + "]@z" * n


def twist_clfs(n):
    """CLF lines whose words nest twist letters n deep at most."""
    return (f"CLF DEEP = V(CRIT(fl=e, fr=e, vc={label(n - 1)}), "
            f"ID(T[{label(n - 1)}]))\n"
            f"CLF PAIR = H(CRIT(fl=e, fr=e, vc={label(n)}), "
            f"CRIT(fl=e, fr=e, vc={label(n)}))\n")


class TestExitCodes:
    def test_pass_is_zero(self):
        proc = run("pmc", "check", "T")
        assert proc.returncode == 0
        assert "status: pass" in proc.stdout

    def test_fail_is_one(self):
        proc = run("morphism", "homotopic", "IDF", "ZERO", "--cap", "2")
        assert proc.returncode == 1
        assert "status: fail" in proc.stdout

    def test_input_error_is_two(self, tmp_path):
        bad = tmp_path / "bad.bhf"
        bad.write_text("PMC T GENUS 1 PAIRS (1 3) (2 5)\n")
        proc = run("pmc", "check", "T", doc=str(bad))
        assert proc.returncode == 2
        assert "line 1" in proc.stderr

    def test_trailing_input_is_two(self, tmp_path):
        header = "MORPHISM IDF FROM I TO I {"
        text = open(TUTORIAL).read()
        bad = tmp_path / "trailing.bhf"
        bad.write_text(text.replace(header, header[:-1] + "extra {"))
        proc = run("morphism", "verify", "IDF", doc=str(bad))
        assert proc.returncode == 2 and not proc.stdout
        line = text.splitlines().index(header) + 1
        assert f"line {line}, col 25: trailing input" in proc.stderr

    @pytest.mark.parametrize("entry,message", [
        ("  D1 u [] = h(1 3) : w",
         "output h(1 3) : w at (u, arity 0) violates right-idempotent "
         "compatibility"),
        ("  D1 u [r[2-3]] = h(1 3) : u",
         "input r[2-3] at (u, arity 1) violates right-idempotent "
         "compatibility"),
        ("  F u [] = h(1 3) : w",
         "output h(1 3) : w at (u, arity 0) violates right-idempotent "
         "compatibility"),
        ("  F u [r[1-2]] = h(1 3) : u",
         "output h(1 3) : u at (u, arity 1) violates right-idempotent "
         "compatibility"),
    ], ids=["D1 output", "D1 inputs", "F output", "F inputs"])
    def test_right_idempotent_mismatch_is_two(self, tmp_path, capsys, entry,
                                              message):
        # w's right idempotent is h(2 4), u's h(1 3); r[1-2] ends at h(2 4)
        # and r[2-3] starts there; the error is located at the block
        d1, f = ((entry, "") if entry.startswith("  D1") else ("", entry))
        text = ("PMC T GENUS 1 PAIRS (1 3) (2 4)\nALGEBRA A FROM T\n"
                "BIMODULE M OVER A A {\n  GEN u L=h(1 3) R=h(1 3)\n"
                f"  GEN w L=h(1 3) R=h(2 4)\n{d1}\n}}\n"
                f"MORPHISM F FROM M TO M {{\n{f}\n}}\n")
        doc = tmp_path / "right.bhf"
        doc.write_text(text)
        assert cli.main(["-f", str(doc), "morphism", "verify", "F"]) == 2
        out, err = capsys.readouterr()
        header = "BIMODULE M OVER A A {" if d1 else "MORPHISM F FROM M TO M {"
        line = text.splitlines().index(header) + 1
        assert not out and err == f"error: line {line}, col 0: {message}\n"

    def test_unresolved_name_is_two(self):
        proc = run("pmc", "check", "NOPE")
        assert proc.returncode == 2

    def test_internal_error_is_not_one(self, monkeypatch, capsys):
        # a fault of strandcalc itself must not read as a failing property,
        # nor end in a traceback
        def crash(doc, args):
            raise RuntimeError("injected fault")

        monkeypatch.setattr(cli, "_cmd_pmc", crash)
        assert cli.main(["-f", TUTORIAL, "pmc", "check", "T"]) == 3
        out, err = capsys.readouterr()
        assert not out
        assert err == "error: internal: RuntimeError: injected fault\n"

    def test_vertical_mismatch_located_at_its_v(self, tmp_path, capsys):
        doc = tmp_path / "mismatch.bhf"
        doc.write_text("CLF Y = H(ID(a), V(ID(a), ID(b)))\n")
        assert cli.main(["-f", str(doc), "clf", "normalize", "Y"]) == 2
        out, err = capsys.readouterr()
        assert not out
        assert err == ("error: line 1, col 17: resulting word a does not "
                       "match initial word b\n")

    def test_twist_nesting_at_limit(self, tmp_path):
        # the rewrites and evaluation compare, hash and print words, which
        # recurse once per level; hurwitz nests one level deeper
        deep = tmp_path / "deep.bhf"
        deep.write_text(open(TUTORIAL).read() + twist_clfs(MAX_TWIST_NESTING))
        for args in (["normalize", "DEEP"], ["hurwitz", "PAIR"],
                     ["standard", "PAIR", "--vc", label(MAX_TWIST_NESTING)],
                     ["evaluate", "DEEP", "--assign", "S"],
                     ["evaluate", "PAIR", "--assign", "S"]):
            proc = run("clf", *args, doc=str(deep))
            assert proc.returncode == 0, (args, proc.stderr)

    def test_twist_nesting_past_limit_is_two(self, tmp_path):
        text = open(TUTORIAL).read()
        deep = tmp_path / "deep.bhf"
        deep.write_text(text + twist_clfs(MAX_TWIST_NESTING + 1))
        proc = run("clf", "normalize", "DEEP", doc=str(deep))
        assert proc.returncode == 2 and not proc.stdout
        line = twist_clfs(MAX_TWIST_NESTING + 1).splitlines()[0]
        col = line.index("T[" * (MAX_TWIST_NESTING + 1)) + \
            2 * MAX_TWIST_NESTING + 1
        assert proc.stderr == (
            f"error: line {text.count(chr(10)) + 1}, col {col}: twist "
            f"letters nested deeper than {MAX_TWIST_NESTING}\n")

    def test_alternating_nesting_ends_cleanly(self, tmp_path):
        expr = "ID(a)"
        for _ in range(600):
            expr = f"V(H({expr}, ID(e)), ID(a))"
        doc = tmp_path / "alternating.bhf"
        doc.write_text(f"CLF D = {expr}\n")
        proc = run("clf", "normalize", "D", doc=str(doc))
        if proc.returncode == 0:
            assert "boundaries_preserved: true" in proc.stdout
        else:
            assert proc.returncode == 2 and not proc.stdout
            assert re.search(r"line \d+, col \d+", proc.stderr)

    def test_deep_horizontal_nesting_normalizes(self, tmp_path):
        expr = "ID(a)"
        for _ in range(400):
            expr = f"H({expr}, ID(b))"
        doc = tmp_path / "deep.bhf"
        doc.write_text(f"CLF D = {expr}\n")
        proc = run("clf", "normalize", "D", doc=str(doc))
        assert proc.returncode == 0
        assert "boundaries_preserved: true" in proc.stdout

    def test_verify_takes_one_name(self):
        # a second name is an error, not silently ignored
        proc = run("morphism", "verify", "IDF", "NOPE")
        assert proc.returncode == 2 and not proc.stdout
        assert "verify takes one morphism name" in proc.stderr

    def test_negative_cap_is_two(self):
        proc = run("morphism", "homotopic", "IDF", "DHID", "--cap", "-1")
        assert proc.returncode == 2
        assert "--cap" in proc.stderr and not proc.stdout

    def test_budget_below_one_is_two(self):
        for budget in ("0", "-3"):
            proc = run("algebra", "verify", "A", "--budget", budget)
            assert proc.returncode == 2
            assert "--budget" in proc.stderr and not proc.stdout

    def test_invalid_circle_check_fails(self, tmp_path):
        doc = tmp_path / "degenerate.bhf"
        doc.write_text("PMC BAD GENUS 1 PAIRS (1 2) (3 4)\n")
        proc = run("pmc", "check", "BAD", doc=str(doc))
        assert proc.returncode == 1
        assert "status: fail" in proc.stdout

    def test_homology_of_a_non_complex_is_two(self, tmp_path):
        # D1 u [] = r[1-4]r[2-3] : v with d(r[1-4]r[2-3]) != 0: the
        # arity-zero boundary does not square to zero, first at the
        # coordinate h(1 3)h(2 4) : u, which the message names with B
        doc = tmp_path / "notacomplex.bhf"
        doc.write_text("PMC T GENUS 1 PAIRS (1 3) (2 4)\n"
                       "ALGEBRA A FROM T\n"
                       "BIMODULE B OVER A A {\n"
                       "  GEN u L=h(1 3)h(2 4) R=h(1 3)h(2 4)\n"
                       "  GEN v L=h(1 3)h(2 4) R=h(1 3)h(2 4)\n"
                       "  D1 u [] = r[1-4]r[2-3] : v\n"
                       "}\n")
        proc = run("homology", "B", doc=str(doc))
        assert proc.returncode == 2 and not proc.stdout
        [line] = proc.stderr.splitlines()
        assert line.startswith("error: NotAComplex: ")
        assert " B: " in line and line.endswith(" h(1 3)h(2 4) : u")


class TestReports:
    def test_json_format_sorted(self):
        proc = run("--format", "json", "algebra", "build", "A")
        data = json.loads(proc.stdout)
        assert data["status"] == "pass"
        assert data["payload"]["size"] == 16

    def test_homotopic_reports_cap(self):
        proc = run("--format", "json", "morphism", "homotopic",
                   "IDF", "DHID", "--cap", "2")
        data = json.loads(proc.stdout)
        assert data["payload"]["cap"] == 2
        assert data["payload"]["homotopic_within_cap"] is True

    def test_boxtensor_emits_parseable_block(self, tmp_path):
        proc = run("boxtensor", "I", "M2", "-o", "IM2")
        assert proc.returncode == 0
        block = proc.stdout.split("\n", 5)[5]
        assert block.startswith("BIMODULE IM2 OVER A A {")
        extended = tmp_path / "extended.bhf"
        extended.write_text(open(TUTORIAL).read() + "\n" + block)
        again = run("bimodule", "verify", "IM2", doc=str(extended))
        assert again.returncode == 0

    def test_clf_evaluate(self):
        proc = run("--format", "json", "clf", "evaluate", "W",
                   "--assign", "S")
        data = json.loads(proc.stdout)
        assert data["payload"]["closed"] is True

    def test_morphism_compose_emits_parseable_block(self, tmp_path):
        proc = run("morphism", "compose", "IDF", "DHID", "-o", "C")
        assert proc.returncode == 0
        block = proc.stdout[proc.stdout.index("MORPHISM C"):]
        extended = tmp_path / "extended.bhf"
        extended.write_text(open(TUTORIAL).read() + "\n" + block)
        again = run("morphism", "verify", "C", doc=str(extended))
        assert again.returncode == 0

    def test_morphism_box_emits_against_declared_shapes(self, tmp_path):
        # the box of identity-shaped morphisms matches the declared I
        proc = run("morphism", "box", "IDF", "IDF", "-o", "BF")
        assert proc.returncode == 0
        block = proc.stdout[proc.stdout.index("MORPHISM BF"):]
        assert "FROM I TO I" in block
        extended = tmp_path / "extended.bhf"
        extended.write_text(open(TUTORIAL).read() + "\n" + block)
        again = run("morphism", "verify", "BF", doc=str(extended))
        assert again.returncode == 0


class TestDeterminism:
    COMMANDS = [
        ("pmc", "check", "T"),
        ("algebra", "build", "A"),
        ("algebra", "verify", "A", "--budget", "100000"),
        ("bimodule", "verify", "I"),
        ("homology", "I"),
        ("boxtensor", "I", "I", "-o", "II"),
        ("morphism", "verify", "DH"),
        ("clf", "normalize", "W"),
        ("clf", "evaluate", "W", "--assign", "S"),
    ]

    def test_repeat_runs_byte_identical(self):
        for cmd in self.COMMANDS[:4]:
            first = run(*cmd)
            second = run(*cmd)
            assert first.stdout == second.stdout
            assert first.returncode == second.returncode

    def test_hash_seed_invariant(self):
        # set and dict order inside evaluation, boxing and the homotopy
        # search must not reach the output
        for cmd in (("clf", "evaluate", "W", "--assign", "S"),
                    ("boxtensor", "I", "M2", "-o", "IM2"),
                    ("morphism", "homotopic", "IDF", "DHID", "--cap", "2")):
            base = run(*cmd, env={"PYTHONHASHSEED": "0"})
            again = run(*cmd, env={"PYTHONHASHSEED": "12345"})
            assert base.stdout == again.stdout and base.stdout
            assert base.returncode == again.returncode == 0

    def test_threads_option_removed(self):
        # "--threads 2" before the command reads 2 as the command name
        for args in (("--threads", "2", "algebra", "build", "A"),
                     ("algebra", "build", "A", "--threads", "2")):
            proc = run(*args)
            assert proc.returncode == 2 and not proc.stdout
            assert "error:" in proc.stderr
        assert "unrecognized arguments: --threads 2" in proc.stderr


def test_library_needs_no_test_only_package():
    # numpy, hypothesis and pytest are test dependencies only: every
    # module imports, and a homotopy search runs, with all three blocked
    script = """
import importlib, pkgutil, sys
for name in ("numpy", "hypothesis", "pytest"):
    sys.modules[name] = None
import strandcalc
for info in pkgutil.iter_modules(strandcalc.__path__):
    importlib.import_module("strandcalc." + info.name)
from strandcalc import cli
sys.exit(cli.main(["-f", sys.argv[1], "morphism", "homotopic", "IDF",
                   "DHID", "--cap", "2"]))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    proc = subprocess.run([sys.executable, "-c", script, TUTORIAL],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "status: pass" in proc.stdout
