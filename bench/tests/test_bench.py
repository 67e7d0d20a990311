"""Tests of the benchmark itself: its oracles, generators, checks and
tracer.  Run from the repository root with

    python -m pytest -q bench/tests

The genus-2 fixtures take a few seconds each (product materialization).
"""

import os
import shutil
import subprocess
import sys
from random import Random

import pytest

import gen
import oracles
import tracing
import workloads
from conftest import BENCH_DIR

import strandcalc as sc
from strandcalc import f2

ROOT = os.path.dirname(BENCH_DIR)


# --- oracles ----------------------------------------------------------

@pytest.mark.parametrize("genus", [1, 2])
def test_split_matching_is_the_split_circle(genus):
    circle = sc.split_circle(genus)
    assert oracles.split_matching(genus) == list(circle.matching)


@pytest.mark.parametrize("genus, count", [(1, 16), (2, 688)])
def test_brute_force_basis_count(genus, count):
    assert oracles.count_basis_diagrams(oracles.split_matching(genus)) == count
    assert len(sc.enumerate_basis(sc.split_circle(genus))) == count


def test_gf2_rank_small_cases():
    assert oracles.gf2_rank([]) == 0
    assert oracles.gf2_rank([{0}, {0}]) == 1
    assert oracles.gf2_rank([{0, 1}, {1, 2}, {0, 2}]) == 2
    assert oracles.gf2_rank([{0}, {1}, {2}]) == 3


def test_gf2_rank_matches_strandcalc_on_random_matrices():
    rng = Random(7)
    for _ in range(50):
        rows, cols = rng.randrange(1, 12), rng.randrange(1, 12)
        columns = [{r for r in range(rows) if rng.random() < 0.4}
                   for _ in range(cols)]
        m = f2.F2Matrix(rows, cols, frozenset(
            (r, c) for c, col in enumerate(columns) for r in col))
        assert oracles.gf2_rank(columns) == f2.rank(m)


def test_complex_homology_of_the_genus1_identity_bimodule():
    A = sc.build_dga(sc.torus_circle())
    expected = oracles.complex_homology(A.size, A.d)
    assert expected == sc.homology(sc.identity_bimodule(A)) == 10


# --- generators -------------------------------------------------------

GENERATORS = [
    lambda seed: gen.homotopy_draws(seed),
    lambda seed: gen.algebra_choices(seed),
    lambda seed: gen.clf_trees(seed, 12),
]


@pytest.mark.parametrize("make", GENERATORS)
def test_generators_are_deterministic(make):
    for seed in (0, 1, 17):
        assert make(seed) == make(seed)
    assert len({repr(make(seed)) for seed in range(8)}) > 1


def test_deep_nesting_document_is_fixed():
    assert gen.deep_nesting_document() == gen.deep_nesting_document()
    assert gen.deep_nesting_document().count("H(") == gen.DEEP_NESTING


def test_homotopy_draws_take_one_coordinate_from_each_class():
    classes = gen.homotopy_classes()
    assert all(len(rows) >= 4 for rows in classes.values())
    shape = {(g, b): (r, c) for g, b, r, c, _ in gen.arity0_systems()}
    for seed in range(5):
        draws = gen.homotopy_draws(seed)
        assert sorted(shape[d] for d in draws) == sorted(gen.HOMOTOPY_CLASSES)


def test_clf_trees_have_the_stated_depths_and_crit_limit():
    def crits(t):
        if t[0] == "CRIT":
            return 1
        if t[0] == "H":
            return crits(t[1]) + crits(t[2])
        if t[0] == "V":
            return crits(t[1]) + (t[2][0] == "CRIT-OVER")
        return 0

    trees = gen.clf_trees(3, 40)
    assert [gen.tree_depth(t) for t in trees] == [1, 2, 3, 4] * 10
    assert workloads.CLF_TREES % len(gen.CLF_DEPTHS) == 0
    assert max(crits(t) for t in trees) <= gen.CLF_MAX_CRITS


# --- planted wrong outputs --------------------------------------------

def drop_one_entry(witness):
    """The same witness with one table entry removed."""
    h = witness.h
    key = min(h.table)
    table = {k: v for k, v in h.table.items() if k != key}
    return sc.HomotopyWitness(sc.morphisms.DAMorphism(h.source, h.target,
                                                      table), witness.cap)


@pytest.fixture(scope="module")
def homotopy():
    w = workloads.G2Homotopy()
    w.setup(1)
    return w


def test_g2_homotopy_rejects_planted_outputs(homotopy):
    ops = homotopy.ops()
    search = next(op for op in ops if op.label.startswith("H(")
                  and op.run().h.table)
    result = search.run()
    assert search.check(result) == "ok"
    assert search.check(drop_one_entry(result)) == "wrong"
    assert search.check(sc.NotWithinCap(2)) == "wrong"
    null = next(op for op in ops if op.label.startswith("ID ~ 0"))
    assert null.check(null.run()) == "ok"
    assert null.check(result) == "wrong"  # flipped verdict


def test_g2_algebra_rejects_planted_outputs():
    w = workloads.G2Algebra()
    w.setup(1)
    op, = w.ops()
    result = op.run()
    assert op.check(result) == "ok"
    assert op.check(dict(result, mutant=result["structure"])) == "wrong"
    assert op.check(dict(result, structure=result["mutant"])) == "wrong"
    assert op.check(dict(result, homology=result["homology"] + 1)) == "wrong"
    assert op.check(dict(result, closed=sc.morphisms.Closedness(False, None))
                    ) == "wrong"


def test_g2_clf_rejects_planted_outputs():
    w = workloads.G2Clf()
    w.setup(1)
    op = next(op for op in w.ops() if "depth 3" in op.label)
    result = op.run()
    assert op.check(result) == "ok"
    # A tree and its normal form evaluate to equal morphisms, so the
    # witness is empty and only the flipped verdict can be planted.
    assert op.check(dict(result, homotopy=sc.NotWithinCap(2))) == "wrong"


def test_tutorial_cli_rejects_a_changed_byte():
    w = workloads.TutorialCli()
    w.setup(1)
    ops = w.ops()
    assert len(ops) == len(workloads.GOLDEN_COMMANDS) + 1
    assert [op.timed for op in ops] == [True] * (len(ops) - 1) + [False]
    for op in ops[:-1]:
        code, out, err = op.run()
        assert op.check((code, out, err)) == "ok", op.label
        changed = out[:-2] + ("x" if out[-2] != "x" else "y") + out[-1]
        assert op.check((code, changed, err)) == "wrong", op.label
        assert op.check((code + 1, out, err)) == "wrong", op.label


def test_deep_nesting_outcomes():
    status = workloads.deep_nesting_status
    passed = "status: pass\nboundaries_preserved: true\n"
    assert status((0, passed, "")) == "ok"
    assert status((2, "", "error: line 1, col 8: nesting too deep\n")) == "ok"
    assert status((2, "", "error: too deep\n")) == "failed"
    assert status((1, "status: fail\n", "")) == "failed"


# --- tracing ----------------------------------------------------------

def test_tracer_wraps_every_binding_and_self_times_add_up():
    code = f"""
import sys
sys.path[:0] = [{os.path.join(ROOT, 'src')!r}, {BENCH_DIR!r}]
import tracing, workloads
tracer = tracing.Tracer()
tracing.install(tracer)
import strandcalc, strandcalc.cli, strandcalc.clf
for module, name in [(strandcalc.cli, "is_closed"),
                     (strandcalc.clf, "compose"),
                     (strandcalc.clf, "box_morphisms"),
                     (strandcalc, "is_homotopic"),
                     (strandcalc.morphisms, "is_closed"),
                     (strandcalc.f2, "solve")]:
    assert hasattr(getattr(module, name), "__wrapped__"), (module, name)
assert not hasattr(strandcalc.strands.DGAlgebra.product, "__wrapped__")
w = workloads.TutorialCli()
w.setup(0)
totals = []
for _ in range(2):
    tracer.clear()
    for op in w.ops():
        with tracer.root(op.label):
            try:
                op.run()
            except RecursionError:
                pass
    assert tracing.self_time_gap(tracer.spans) < 1e-9
    totals.append(tracing.layer_totals(tracer.spans))
counts = [k for k in totals[0] if not k.endswith("_s")]
assert all(totals[0][k] == totals[1][k] for k in counts), counts
assert totals[0]["f2.solve_calls"] == 1
assert totals[0]["document.parse_document_s"] > 0
print("ok")
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_run_fails_without_the_sources():
    bare = os.path.join(BENCH_DIR, "out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "tutorial-cli",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout == ""
