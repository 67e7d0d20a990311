"""Acceptance suite: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.  Every
tolerance is exact (GF(2) identities, table equalities, byte equality);
the only numeric limits are the two stated runtimes.
"""

import os
import subprocess
import sys
import time
from random import Random

from strandcalc import f2
from strandcalc.bimodules import (check_structure, homology,
                                  identity_bimodule, make_bimodule)
from strandcalc.circles import split_circle, torus_circle
from strandcalc.errors import IdempotentMismatch
from strandcalc.morphisms import (compose, identity_morphism, is_closed,
                                  is_homotopic, morphism_differential,
                                  same_shape, zero_morphism)
from strandcalc.boxes import box_bimodules, box_morphisms
from strandcalc.strands import build_dga, enumerate_basis, verify_dga
from strandcalc import clf as clfmod
from strandcalc.clf import (CLFAssignment, CritLeaf, IdentityLeaf, evaluate,
                            flatten, hurwitz, initial_word,
                            normalize_horizontal, resulting_word,
                            vcomp_count, words_equal)

from helpers import (brute_force_diagrams, chained_coords, dense, dense_rank,
                     dense_solvable, random_chained_table, random_complex,
                     random_matrix)
from test_clf import random_expression

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TUTORIAL = os.path.join(ROOT, "tutorial", "torus.bhf")
GOLDEN_DIR = os.path.join(ROOT, "tests", "golden")

A = build_dga(torus_circle(), label="A")
I = identity_bimodule(A, label="I")
ID = identity_morphism(I)
I0 = A.index("h(1 3)")
M2 = make_bimodule(A, A, [("u", I0, I0), ("v", I0, I0)],
                   {(0, ()): [(I0, 1)]}, label="M2")
SHIPPED_BIMODULES = {"I": I, "M2": M2}


def report(number, passed, detail):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def noisy_identity(rng, cap, density=4):
    return ID + morphism_differential(
        random_chained_table(rng, I, I, cap, density))


def test_criterion_01_genus1_algebra():
    start = time.perf_counter()
    circle = torus_circle()
    got = {(x.strands, x.horizontals) for x in enumerate_basis(circle)}
    enumeration_ok = got == brute_force_diagrams(circle)
    rep = verify_dga(build_dga(circle), 10 ** 6)
    exhaustive = all(c.exhaustive for c in rep.checks)
    elapsed = time.perf_counter() - start
    ok = enumeration_ok and rep.passed and exhaustive and elapsed < 10.0
    report(1, ok,
           f"genus-1 basis {len(got)} matches brute force, all axioms "
           f"exhaustive, {elapsed:.2f}s < 10s")


def test_criterion_02_genus2_algebra():
    start = time.perf_counter()
    circle = split_circle(2)
    rep = verify_dga(build_dga(circle), 10 ** 4)
    d2 = rep.check("d_squared")
    leibniz = rep.check("leibniz")
    assoc = rep.check("associativity")
    elapsed = time.perf_counter() - start
    ok = (rep.passed and d2.exhaustive
          and leibniz.tested >= 10 ** 4 and assoc.tested >= 10 ** 4
          and elapsed < 300.0)
    report(2, ok,
           f"genus-2: d^2 exhaustive on {d2.tested}, Leibniz/assoc on "
           f"{leibniz.tested}/{assoc.tested} tuples, {elapsed:.1f}s < 300s")


def test_criterion_03_structure_check_and_mutations():
    base = check_structure(I)
    gens = [(g.name, g.left, g.right) for g in I.gens]
    idem_pos = {i: k for k, i in enumerate(A.idempotents)}
    defining = {}
    for a in range(A.size):
        key = (idem_pos[A.left_idem[a]], (a,))
        defining.setdefault(key, set()).add((a, idem_pos[A.right_idem[a]]))
    defining = {k: frozenset(v) for k, v in defining.items()}

    def detect(M):
        """First detector that reports a witness for the mutant."""
        rep = check_structure(M)
        if not rep.passed:
            return "structure"
        B = box_bimodules(M, M)
        if not (B.d1 == M.d1 and
                [(g.left, g.right) for g in B.gens]
                == [(g.left, g.right) for g in M.gens]):
            return "self-box"
        if M.d1 != defining:
            return "defining-rule"
        return None

    universe = []
    for key in sorted(I.d1):
        for out in sorted(I.d1[key]):
            universe.append((key, out))
    for x, seq, out in chained_coords(I, I, 1):
        if out not in I.d1.get((x, seq), frozenset()):
            universe.append(((x, seq), out))

    detected = {}
    missed = 0
    for key, out in universe:
        table = {k: set(v) for k, v in I.d1.items()}
        table.setdefault(key, set())
        table[key] ^= {out}
        table = {k: frozenset(v) for k, v in table.items() if v}
        try:
            mutant = make_bimodule(A, A, gens, table)
        except IdempotentMismatch:
            detected["screening"] = detected.get("screening", 0) + 1
            continue
        kind = detect(mutant)
        if kind is None:
            missed += 1
        else:
            detected[kind] = detected.get(kind, 0) + 1

    ok = (base.passed and base.complete
          and base.max_arity == 2 * I.arity_bound
          and len(universe) >= 50 and missed == 0)
    breakdown = ", ".join(f"{k}={v}" for k, v in sorted(detected.items()))
    report(3, ok,
           f"identity passes at the complete 2K bound; {len(universe)} "
           f"single-bit mutants, 100% detected ({breakdown})")


def test_criterion_04_box_identity_and_units():
    B = box_bimodules(I, I)
    diagonal = same_shape(B, I) and \
        [g.name for g in B.gens] == [f"{g.name}|{g.name}" for g in I.gens]
    hom_ok = homology(B) == homology(I)
    units_ok = True
    for M in SHIPPED_BIMODULES.values():
        left = box_bimodules(identity_bimodule(A), M)
        right = box_bimodules(M, identity_bimodule(A))
        units_ok &= same_shape(left, M) and same_shape(right, M)
    ok = diagonal and hom_ok and units_ok
    report(4, ok,
           f"I.I equals I exactly, homology {homology(B)} preserved, "
           f"unit laws exact on {len(SHIPPED_BIMODULES)} shipped bimodules")


def test_criterion_05_morphism_complex():
    rng = Random(50)
    dd_ok = True
    for _ in range(100):
        H = random_chained_table(rng, I, I, 3, 6)
        if morphism_differential(morphism_differential(H)).table:
            dd_ok = False
            break
    id_closed = bool(is_closed(ID))
    closure_ok = True
    for _ in range(10):
        F = noisy_identity(rng, 1)
        G = noisy_identity(rng, 1)
        closure_ok &= bool(is_closed(compose(G, F)))
    shipped = [ID, zero_morphism(I, I),
               noisy_identity(Random(51), 1), noisy_identity(Random(52), 0)]
    assoc_ok = True
    for F in shipped:
        for G in shipped:
            for H in shipped:
                assoc_ok &= (compose(H, compose(G, F))
                             == compose(compose(H, G), F))
    ok = dd_ok and id_closed and closure_ok and assoc_ok
    report(5, ok,
           "d.d = 0 on 100 tables at cap 3, identities closed, composition "
           f"preserves closedness and is associative on {len(shipped)}^3 "
           "triples")


def test_criterion_06_lemma_one_shadow():
    rng = Random(60)
    trials = 100
    found = 0
    for t in range(trials):
        h_cap = t % 3  # caps 0, 1, 2 all exercised
        noise_cap = 0 if h_cap == 2 else 1
        F = noisy_identity(rng, noise_cap)
        H = random_chained_table(rng, I, I, h_cap, 4)
        C = compose(F, morphism_differential(H))
        result = is_homotopic(C, zero_morphism(I, I), 4)
        if result and morphism_differential(result.h).table == C.table:
            found += 1
    report(6, found == trials,
           f"compose(F', dH) null-homotopic with verified witness in "
           f"{found}/{trials} trials at cap 4")


def test_criterion_07_lemma_two_shadow():
    rng = Random(70)
    trials = 25
    found = 0
    for _ in range(trials):
        F = noisy_identity(rng, 0, 3)
        F2 = noisy_identity(rng, 0, 3)
        G = noisy_identity(rng, 0, 3)
        G2 = noisy_identity(rng, 0, 3)
        lhs = box_morphisms(compose(F2, F), compose(G2, G))
        rhs = compose(box_morphisms(F2, G2), box_morphisms(F, G))
        result = is_homotopic(lhs, rhs, 4)
        if result:
            found += 1
    report(7, found == trials,
           f"interchange up to verified homotopy in {found}/{trials} "
           "trials at cap 4")


def test_criterion_08_clf_calculus():
    rng = Random(80)
    norm_ok = 0
    for _ in range(200):
        e = random_expression(rng, rng.randrange(1, 9))
        n = normalize_horizontal(e)
        if (vcomp_count(n) == 0
                and words_equal(initial_word(e), initial_word(n))
                and words_equal(resulting_word(e), resulting_word(n))):
            norm_ok += 1

    hurwitz_ok = 0
    hurwitz_trials = 50
    zeta = clfmod.CycleLabel(clfmod.EMPTY_WORD, "z")
    eta = clfmod.CycleLabel(clfmod.EMPTY_WORD, "y")
    for _ in range(hurwitz_trials):
        prefix = (clfmod.letter(rng.choice("ab"))
                  if rng.random() < 0.5 else clfmod.EMPTY_WORD)
        e = clfmod.compose_h(
            clfmod.compose_h(
                IdentityLeaf(prefix),
                CritLeaf(clfmod.AbstractCLF(clfmod.EMPTY_WORD,
                                            clfmod.EMPTY_WORD,
                                            rng.choice([zeta, eta])))),
            CritLeaf(clfmod.AbstractCLF(clfmod.EMPTY_WORD,
                                        clfmod.EMPTY_WORD,
                                        rng.choice([zeta, eta]))))
        pos = 1 if prefix else 0
        h = hurwitz(e, pos)
        crits_before = sum(isinstance(l, CritLeaf) for l in flatten(e))
        crits_after = sum(isinstance(l, CritLeaf) for l in flatten(h))
        if (crits_before == crits_after
                and words_equal(initial_word(e), initial_word(h))
                and words_equal(resulting_word(e), resulting_word(h))):
            hurwitz_ok += 1

    eval_trials = 20
    eval_ok = 0
    for _ in range(eval_trials):
        e = random_expression(rng, rng.randrange(1, 5))
        n = normalize_horizontal(e)
        crit = ID + morphism_differential(
            random_chained_table(rng, I, I, 0, 3))
        assign = CLFAssignment(A, default_letter=I, default_crit=crit)
        f1 = evaluate(e, assign)
        f2 = evaluate(n, assign)
        if is_closed(f1) and is_closed(f2) and is_homotopic(f1, f2, 4):
            eval_ok += 1

    ok = (norm_ok == 200 and hurwitz_ok == hurwitz_trials
          and eval_ok == eval_trials)
    report(8, ok,
           f"normalize on {norm_ok}/200 trees, hurwitz on "
           f"{hurwitz_ok}/{hurwitz_trials}, evaluate-vs-normalized "
           f"homotopic in {eval_ok}/{eval_trials} trials at cap 4")


def test_criterion_09_f2_against_dense_oracle():
    import numpy as np
    rng = Random(90)
    matrices = 0
    for _ in range(500):
        rows = rng.randrange(1, 65)
        cols = rng.randrange(1, 65)
        m = random_matrix(rng, rows, cols, density=rng.choice(
            (0.05, 0.2, 0.5)))
        dm = dense(m)
        r = f2.rank(m)
        assert r == dense_rank(dm)
        kernel = f2.kernel_basis(m)
        assert len(kernel) == cols - dense_rank(dm)
        assert all(not m.apply(v) for v in kernel)
        target = f2.F2Vector(frozenset(
            i for i in range(rows) if rng.random() < 0.4))
        bd = np.zeros(rows, dtype=np.uint8)
        for i in target.support:
            bd[i] = 1
        x = f2.solve(m, target)
        assert (x is not None) == dense_solvable(dm, bd)
        if x is not None:
            assert m.apply(x) == target
        matrices += 1
    complexes = 0
    for _ in range(100):
        d_in, d_out = random_complex(rng, rng.randrange(1, 33))
        expect = ((d_out.cols - dense_rank(dense(d_out)))
                  - dense_rank(dense(d_in)))
        assert f2.homology_dim(d_in, d_out) == expect
        complexes += 1
    report(9, True,
           f"rank/kernel/solve bit-exact on {matrices} matrices up to "
           f"64x64, homology on {complexes} complexes")


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


def run_cli(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    argv = [sys.executable, "-m", "strandcalc.cli", "-f", TUTORIAL]
    proc = subprocess.run(argv + args, capture_output=True, text=True,
                          env=env)
    return proc


def test_criterion_10_cli_golden():
    def full_run():
        chunks = []
        for name, args in GOLDEN_COMMANDS:
            proc = run_cli(args)
            chunks.append(f"## {name} (exit {proc.returncode})\n"
                          + proc.stdout)
        return "".join(chunks)

    first = full_run()
    second = full_run()
    golden_path = os.path.join(GOLDEN_DIR, "tutorial.txt")
    with open(golden_path, encoding="utf-8") as handle:
        golden = handle.read()
    ok = first == second == golden
    report(10, ok,
           f"{len(GOLDEN_COMMANDS)} tutorial commands byte-identical "
           "across runs and the golden file")
