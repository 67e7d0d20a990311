"""Regenerate data/g2_arity0_systems.json, from which g2-homotopy takes
its shape classes.

    python3 bench/make_systems.py

For each of the 144 arity-0 idempotent-chained coordinates H(x, []) = b
of the genus-2 identity bimodule, it runs is_homotopic(ID, ID + d(H), 2)
with the tracer installed and records the size of the linear system the
search hands to f2.solve (0 x 0 when d(H) = 0 and no system is built).
Takes about a minute.  The file is data: the classes stay as recorded
when strandcalc's systems change later.
"""

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))
sys.path.insert(0, BENCH_DIR)

import gen  # noqa: E402
import tracing  # noqa: E402


def main() -> int:
    tracer = tracing.Tracer()
    tracing.install(tracer)
    import strandcalc as sc

    A2 = sc.build_dga(sc.split_circle(2))
    I2 = sc.identity_bimodule(A2)
    ID = sc.identity_morphism(I2)
    rows = []
    for x, g in enumerate(I2.gens):
        for b in range(A2.size):
            if A2.left_idem[b] != g.left or A2.right_idem[b] != g.right:
                continue
            H = sc.make_morphism(I2, I2, {(x, ()): [(b, x)]})
            G = ID + sc.morphism_differential(H)
            tracer.clear()
            with tracer.root("search"):
                sc.is_homotopic(ID, G, 2)
            solves = [s.counts for s in tracer.spans if s.name == "f2.solve"]
            size = [solves[0]["rows"], solves[0]["cols"],
                    solves[0]["nnz"]] if solves else [0, 0, 0]
            rows.append([g.name, A2.name(b)] + size)
    rows.sort(key=lambda r: (r[3], r[2], r[0], r[1]))
    path = os.path.join(gen.DATA_DIR, "g2_arity0_systems.json")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("[\n" + ",\n".join(json.dumps(r) for r in rows)
                     + "\n]\n")
    print(f"wrote {len(rows)} rows to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
