"""Layer-boundary tracing for the benchmark, installed from outside.

`install` wraps the public functions in LAYER_CALLS at every place the
strandcalc package binds them (`cli` and `clf`, for example, import
`compose`, `box_morphisms` and `is_closed` by name), plus the one method
`DGAlgebra.materialize`.  Per-element calls such as `DGAlgebra.product`
are never wrapped.  A wrapper records a span only while a root span (the
set-up, or one benchmark operation) is open, so the checks the benchmark
runs between operations stay out of the figures.

Each span keeps its parent; self time is its duration minus the
durations of its children, so within one root the self times add up to
the root's duration.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from contextlib import contextmanager

# (module, attribute, span name).  "strands.DGAlgebra.materialize" is a
# method and is wrapped on the class.
LAYER_CALLS = [
    ("f2", "solve", "f2.solve"),
    ("f2", "rank", "f2.rank"),
    ("f2", "kernel_basis", "f2.kernel_basis"),
    ("strands", "build_dga", "strands.build_dga"),
    ("strands", "verify_dga", "strands.verify_dga"),
    ("bimodules", "check_structure", "bimodules.check_structure"),
    ("bimodules", "homology", "bimodules.homology"),
    ("morphisms", "is_homotopic", "morphisms.is_homotopic"),
    ("morphisms", "morphism_differential", "morphisms.morphism_differential"),
    ("morphisms", "is_closed", "morphisms.is_closed"),
    ("morphisms", "compose", "morphisms.compose"),
    ("boxes", "box_morphisms", "boxes.box_morphisms"),
    ("boxes", "box_bimodules", "boxes.box_bimodules"),
    ("clf", "evaluate", "clf.evaluate"),
    ("clf", "normalize_horizontal", "clf.normalize_horizontal"),
    ("document", "parse_document", "document.parse_document"),
    ("cli", "main", "cli.main"),
    ("cli", "run_command", "cli.run_command"),
    ("cli", "render", "cli.render"),
]
MATERIALIZE = "strands.materialize"

# Per-layer metrics: (metric, span name, kind).  "self" sums self time,
# "incl" sums the durations of outermost spans of that name; the other
# kinds are counts gathered from arguments and results.
LAYER_METRICS = [
    ("f2.solve_s", "f2.solve", "incl"),
    ("f2.solve_calls", "f2.solve", "calls"),
    ("f2.solve_rows", "f2.solve", "rows"),
    ("f2.solve_cols", "f2.solve", "cols"),
    ("f2.solve_nnz", "f2.solve", "nnz"),
    ("f2.rank_s", "f2.rank", "incl"),
    ("f2.kernel_basis_s", "f2.kernel_basis", "incl"),
    ("strands.build_dga_s", "strands.build_dga", "incl"),
    ("strands.materialize_s", MATERIALIZE, "incl"),
    ("strands.verify_dga_s", "strands.verify_dga", "incl"),
    ("strands.verify_dga_tested", "strands.verify_dga", "tested"),
    ("bimodules.check_structure_s", "bimodules.check_structure", "incl"),
    ("bimodules.check_structure_tested", "bimodules.check_structure",
     "tested"),
    ("bimodules.homology_s", "bimodules.homology", "incl"),
    ("morphisms.is_homotopic_self_s", "morphisms.is_homotopic", "self"),
    ("morphisms.morphism_differential_s", "morphisms.morphism_differential",
     "incl"),
    ("morphisms.is_closed_s", "morphisms.is_closed", "incl"),
    ("morphisms.compose_s", "morphisms.compose", "incl"),
    ("morphisms.witness_entries", "morphisms.is_homotopic",
     "witness_entries"),
    ("boxes.box_morphisms_self_s", "boxes.box_morphisms", "self"),
    ("boxes.box_bimodules_s", "boxes.box_bimodules", "incl"),
    ("clf.evaluate_self_s", "clf.evaluate", "self"),
    ("clf.normalize_horizontal_s", "clf.normalize_horizontal", "incl"),
    ("document.parse_document_s", "document.parse_document", "incl"),
    ("cli.run_command_self_s", "cli.run_command", "self"),
    ("cli.render_s", "cli.render", "incl"),
    ("cli.main_self_s", "cli.main", "self"),
]


def _counts(name: str, args, result) -> dict[str, int]:
    if name == "f2.solve":
        m = args[0]
        return {"rows": m.rows, "cols": m.cols, "nnz": len(m.entries)}
    if name == "strands.verify_dga":
        return {"tested": sum(c.tested for c in result.checks)}
    if name == "bimodules.check_structure":
        return {"tested": result.tested}
    if name == "morphisms.is_homotopic":
        return {"witness_entries": len(result.h.table) if result else 0}
    return {}


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_time", "counts")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.child_time = 0.0
        self.counts: dict[str, int] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time

    def outermost(self) -> bool:
        """No ancestor has the same name (recursive calls count once)."""
        up = self.parent
        while up is not None:
            if up.name == self.name:
                return False
            up = up.parent
        return True


class Tracer:
    """Collects spans in memory; `roots` lists the closed root spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.roots: list[Span] = []
        self._stack: list[Span] = []

    @contextmanager
    def root(self, name: str):
        span = Span(name, None)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(span)
            self.roots.append(span)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            parent = self._stack[-1]
            span = Span(name, parent)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                parent.child_time += span.duration
                self.spans.append(span)
            span.counts = _counts(name, args, result)
            return result

        return traced

    def clear(self) -> None:
        self.spans.clear()
        self.roots.clear()


def install(tracer: Tracer) -> None:
    """Wrap every LAYER_CALLS function wherever strandcalc binds it, and
    DGAlgebra.materialize."""
    for mod in ("f2", "strands", "bimodules", "morphisms", "boxes", "clf",
                "document", "cli"):
        importlib.import_module(f"strandcalc.{mod}")
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "strandcalc"
                                     or n.startswith("strandcalc."))]
    for mod, attr, name in LAYER_CALLS:
        original = getattr(importlib.import_module(f"strandcalc.{mod}"), attr)
        wrapper = tracer.wrap(name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    strands = importlib.import_module("strandcalc.strands")
    strands.DGAlgebra.materialize = tracer.wrap(
        MATERIALIZE, strands.DGAlgebra.materialize)


def layer_totals(spans) -> dict[str, float]:
    """Every LAYER_METRICS value summed over the given spans."""
    out = {}
    for metric, name, kind in LAYER_METRICS:
        total = 0.0 if kind in ("self", "incl") else 0
        for span in spans:
            if span.name != name:
                continue
            if kind == "self":
                total += span.self_time
            elif kind == "incl":
                if span.outermost():
                    total += span.duration
            elif kind == "calls":
                total += 1
            else:
                total += span.counts.get(kind, 0)
        out[metric] = total
    return out


def per_round(fixed, total, rounds: int):
    """Set-up part plus one round's share.  Counts stay whole numbers when
    every round did the same work, which is what makes them repeat."""
    if isinstance(total, int) and total % rounds == 0:
        return fixed + total // rounds
    return fixed + total / rounds


def root_of(span: Span) -> Span:
    while span.parent is not None:
        span = span.parent
    return span


def self_time_gap(spans) -> float:
    """Largest |sum of self times - root duration| over the roots."""
    sums: dict[int, float] = {}
    roots: dict[int, Span] = {}
    for span in spans:
        root = root_of(span)
        roots[id(root)] = root
        sums[id(root)] = sums.get(id(root), 0.0) + span.self_time
    return max((abs(sums[k] - r.duration) for k, r in roots.items()),
               default=0.0)
