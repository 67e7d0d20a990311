"""Command-line driver.

Every command runs against a document file and produces a deterministic
report: identical inputs yield byte-identical output.  Exit codes follow
a fixed contract:

    0   the checked property holds (or the computation succeeded)
    1   the property fails, or no witness exists within the cap
    2   parse or validation errors in the input
    3   an internal error: a fault of strandcalc itself, reported as one
        `error: internal: <Type>: <message>` line on stderr

Reports print as sorted `key: value` lines, or as JSON with sorted keys
under --format json.  Commands that emit declarations (boxtensor,
morphism compose/box) print a block in the document grammar, which can be
pasted back into a document and re-parsed to an identical value.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from . import clf as clfmod
from . import document as docmod
from .bimodules import check_structure, homology, named_entry
from .errors import (DocumentError, IncompatibleCycle, StrandCalcError)
from .morphisms import DAMorphism, compose, is_closed, is_homotopic
from .boxes import box_bimodules, box_morphisms
from .strands import verify_dga


@dataclass
class CommandResult:
    status: str  # pass | fail
    payload: dict = field(default_factory=dict)
    diagnostics: list = field(default_factory=list)
    blocks: list = field(default_factory=list)  # verbatim document text

    @property
    def exit_code(self) -> int:
        return {"pass": 0, "fail": 1}[self.status]


def _fmt_value(value) -> str:
    return json.dumps(value, sort_keys=True)


def render(result: CommandResult, fmt: str) -> str:
    if fmt == "json":
        data = {
            "status": result.status,
            "payload": result.payload,
            "diagnostics": result.diagnostics,
        }
        if result.blocks:
            data["blocks"] = result.blocks
        return json.dumps(data, sort_keys=True, indent=2) + "\n"
    lines = [f"status: {result.status}"]
    for key in sorted(result.payload):
        lines.append(f"{key}: {_fmt_value(result.payload[key])}")
    for loc, message in result.diagnostics:
        lines.append(f"diagnostic: {loc}: {message}")
    out = "\n".join(lines) + "\n"
    for block in result.blocks:
        out += block + "\n"
    return out


# --- commands ---------------------------------------------------------------

def _cmd_pmc(doc, args) -> CommandResult:
    report = doc.get(args.name, "pmc")
    payload = {
        "name": args.name,
        "genus": report.genus,
        "surgery_components": report.surgery_components,
        "adjacent_pair_free": report.adjacent_pair_free,
        "valid": report.valid,
        "warnings": list(report.warnings),
    }
    return CommandResult("pass" if report.valid else "fail", payload)


def _cmd_algebra(doc, args) -> CommandResult:
    A = doc.get(args.name, "algebra")
    if args.action == "build":
        payload = {
            "name": args.name,
            "size": A.size,
            "idempotents": [A.name(i) for i in A.idempotents],
            "basis": list(A.basis_names),
        }
        return CommandResult("pass", payload)
    report = verify_dga(A, sample_budget=args.budget, seed=args.seed)
    payload = report.payload()
    payload["name"] = args.name
    return CommandResult("pass" if report.passed else "fail", payload)


def _cmd_bimodule(doc, args) -> CommandResult:
    M = doc.get(args.name, "bimodule")
    report = check_structure(M)
    payload = report.payload()
    payload["name"] = args.name
    payload["generators"] = M.size
    payload["arity_bound"] = M.arity_bound
    return CommandResult("pass" if report.passed else "fail", payload)


def _cmd_boxtensor(doc, args) -> CommandResult:
    N = doc.get(args.left, "bimodule")
    M = doc.get(args.right, "bimodule")
    B = box_bimodules(N, M)
    text = docmod.bimodule_text(args.output, B, N.left_algebra.label,
                                M.right_algebra.label)
    payload = {
        "name": args.output,
        "generators": B.size,
        "arity_bound": B.arity_bound,
        "entries": len(B.d1),
    }
    return CommandResult("pass", payload, blocks=[text])


def _cmd_morphism(doc, args) -> CommandResult:
    verify = args.action == "verify"
    if len(args.names) != (1 if verify else 2):
        raise DocumentError(f"{args.action} takes " + (
            "one morphism name" if verify else "two morphism names"))
    if verify:
        F = doc.get(args.names[0], "morphism")
        closed = is_closed(F)
        payload = {
            "name": args.names[0],
            "closed": closed.closed,
            "witness": list(closed.witness) if closed.witness else None,
        }
        return CommandResult("pass" if closed.closed else "fail", payload)
    if args.action == "compose":
        G = doc.get(args.names[0], "morphism")
        F = doc.get(args.names[1], "morphism")
        C = compose(G, F)
        text = docmod.morphism_text(args.output, C, F.source.label,
                                    G.target.label)
        payload = {"name": args.output, "entries": len(C.table)}
        return CommandResult("pass", payload, blocks=[text])
    if args.action == "box":
        F = doc.get(args.names[0], "morphism")
        G = doc.get(args.names[1], "morphism")
        B = box_morphisms(F, G)
        src = doc.find_bimodule_name(B.source)
        tgt = doc.find_bimodule_name(B.target)
        if src is None or tgt is None:
            raise DocumentError(
                "declare the source and target box bimodules first "
                "(boxtensor ... -o NAME)")
        # rebase onto the declared bimodules so the emitted block uses
        # their generator names (the index tables agree)
        rebased = DAMorphism(doc.get(src, "bimodule"),
                             doc.get(tgt, "bimodule"), B.table)
        text = docmod.morphism_text(args.output, rebased, src, tgt)
        payload = {"name": args.output, "entries": len(B.table)}
        return CommandResult("pass", payload, blocks=[text])
    if args.action == "homotopic":
        F = doc.get(args.names[0], "morphism")
        G = doc.get(args.names[1], "morphism")
        result = is_homotopic(F, G, args.cap)
        payload = {"cap": args.cap, "homotopic_within_cap": bool(result)}
        if result:
            payload["witness_entries"] = len(result.h.table)
            payload["witness_arity"] = result.h.arity_bound
        return CommandResult("pass" if result else "fail", payload)
    raise DocumentError(f"unknown morphism action {args.action!r}")


def _cmd_homology(doc, args) -> CommandResult:
    M = doc.get(args.name, "bimodule")
    payload = {"name": args.name, "dimension": homology(M)}
    return CommandResult("pass", payload)


def _cmd_clf(doc, args) -> CommandResult:
    expr = doc.get(args.name, "clf")
    if args.action == "normalize":
        after = clfmod.normalize_horizontal(expr)
        preserved = clfmod.same_boundaries(expr, after)
        payload = {
            "before": clfmod.expression_str(expr),
            "after": clfmod.expression_str(after),
            "vcomp_before": clfmod.vcomp_count(expr),
            "vcomp_after": clfmod.vcomp_count(after),
            "boundaries_preserved": preserved,
        }
        return CommandResult("pass" if preserved else "fail", payload)
    if args.action == "hurwitz":
        after = clfmod.hurwitz(expr, args.pos)
        preserved = clfmod.same_boundaries(expr, after)
        payload = {
            "position": args.pos,
            "before": clfmod.expression_str(expr),
            "after": clfmod.expression_str(after),
            "boundaries_preserved": preserved,
        }
        return CommandResult("pass" if preserved else "fail", payload)
    if args.action == "standard":
        label = clfmod.parse_cycle_label(args.vc)
        wg = clfmod.AbstractCLF(clfmod.EMPTY_WORD, clfmod.EMPTY_WORD, label)
        try:
            after, conjugators = clfmod.standard_form(expr, wg)
        except IncompatibleCycle as exc:
            return CommandResult("fail", {"reason": str(exc)})
        payload = {
            "after": clfmod.expression_str(after),
            "conjugators": [clfmod.word_str(u) for u in conjugators],
        }
        return CommandResult("pass", payload)
    if args.action == "evaluate":
        if args.assign is None:
            raise DocumentError("evaluate needs --assign NAME")
        assign = doc.get(args.assign, "assign")
        F = clfmod.evaluate(expr, assign)
        closed = is_closed(F)
        payload = {
            "entries": len(F.table),
            "arity_bound": F.arity_bound,
            "closed": closed.closed,
            "table": [named_entry(F.source, F.target, x, seq, outs)
                      for (x, seq), outs in sorted(F.table.items())],
        }
        return CommandResult("pass" if closed.closed else "fail", payload)
    raise DocumentError(f"unknown clf action {args.action!r}")


def _at_least(least: int):
    """An argparse type: an integer no smaller than `least`."""
    def count(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(
                f"must be at least {least}, got {value}")
        return value
    return count


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="strandcalc",
        description="computer algebra for strand algebras, DA bimodules "
                    "and decomposition rewriting over GF(2)")
    parser.add_argument("-f", "--file", required=True,
                        help="document file to run against")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pmc", help="check a pointed matched circle")
    p.add_argument("action", choices=("check",))
    p.add_argument("name")
    p.set_defaults(func=_cmd_pmc)

    p = sub.add_parser("algebra", help="build or verify a strand algebra")
    p.add_argument("action", choices=("build", "verify"))
    p.add_argument("name")
    p.add_argument("--budget", type=_at_least(1), default=10 ** 6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_algebra)

    p = sub.add_parser("bimodule", help="verify the structure relation")
    p.add_argument("action", choices=("verify",))
    p.add_argument("name")
    p.set_defaults(func=_cmd_bimodule)

    p = sub.add_parser("boxtensor", help="box tensor two bimodules")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_boxtensor)

    p = sub.add_parser("morphism",
                       help="verify, compose, box or compare morphisms")
    p.add_argument("action",
                   choices=("verify", "compose", "box", "homotopic"))
    p.add_argument("names", nargs="+")
    p.add_argument("-o", "--output", default="OUT")
    p.add_argument("--cap", type=_at_least(0), default=4)
    p.set_defaults(func=_cmd_morphism)

    p = sub.add_parser("homology",
                       help="arity-zero homology dimension of a bimodule")
    p.add_argument("name")
    p.set_defaults(func=_cmd_homology)

    p = sub.add_parser("clf", help="rewrite or evaluate a decomposition")
    p.add_argument("action",
                   choices=("normalize", "hurwitz", "standard", "evaluate"))
    p.add_argument("name")
    p.add_argument("--pos", type=int, default=0)
    p.add_argument("--vc", default="e@z")
    p.add_argument("--assign", default=None)
    p.set_defaults(func=_cmd_clf)

    return parser


def run_command(doc: docmod.Document, args) -> CommandResult:
    return args.func(doc, args)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with open(args.file, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        doc = docmod.parse_document(text)
        result = run_command(doc, args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StrandCalcError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    sys.stdout.write(render(result, args.format))
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
