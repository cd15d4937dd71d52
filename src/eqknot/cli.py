"""Command line interface: case files, reports, batch tables.

Case file schema (JSON object):
  name: string
  vertices: integer vertex count
  edges: array of [u, v, weight]
  symmetry: {vertex_perm: array, order: int,
             kind: "periodic" | "strong_inversion" (default),
             lift_sign: 1 | -1, optional (+1) for a periodic symmetry and
             required for a strong inversion}
  positive_crossings: optional int from 0 to the number of edges
  sigma: optional even int (overrides the computed signature)
  bounds: optional object with BoundsInput fields; "gsig" is an int or a
          "p/q" string, and no value passes 4096 bits

Exit codes: 0 computed (any verdict), 2 input error, 3 theorem hypothesis
unmet. Obstruction verdicts are data, not exit statuses. A reader that
closes stdout early, as `| head` does, is not an error: the command,
or `--help`, stops writing and exits 0. Each error is a
`lattice.InputError` raised where its rule is checked, here or in the
library; `main` prints "error CODE: message", `batch` a "CODE: message"
row. The commands return nothing: `main` alone sets the exit status.
Each flag of `bounds` and `gsig --period` sets the BoundsInput field
its dest names.
Exit 2: IO, SCHEMA, LOOP_EDGE, NOT_AUTOMORPHISM, SIGMA_MISMATCH,
MISSING_SIGMA. Exit 3, a `lattice.HypothesisError`: NOT_DEFINITE,
POSITIVE_SIGMA, NOT_INVOLUTION.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional

from .bounds import BoundsInput, BoundsReport, aggregate
from .checkerboard import (CheckerboardGraph, SymmetrySpec, gl_lattice,
                           induced_isometry, is_automorphism, knot_signature)
from .embedsearch import (Embedding, ObstructionReport, SignedPermutation,
                          donaldson_obstruction, enumerate_embeddings,
                          orbit_classes)
from .gsignature import gsig_involution, gsig_periodic
from .lattice import (GramLattice, HypothesisError, InputError, _ints,
                      is_positive_definite)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_HYPOTHESIS = 3

# A bound is at most a product of two input values, so with each value
# (and a g-signature's numerator and denominator) below 2**MAX_BITS it
# prints within the 4300 digits `str` converts. A g-signature string is
# matched before `Fraction` reads it, which would also take exponents
# and decimals: an integer or p/q, q nonzero, each of at most the 1234
# digits of 2**MAX_BITS.
MAX_BITS = 4096
_FRACTION = re.compile(r"[+-]?[0-9]{1,1234}(/(?!0+\Z)[0-9]{1,1234})?")


class KnotCase(NamedTuple):
    """One validated case file. sigma_K is the given sigma, else the one
    positive_crossings implies, else None."""

    graph: CheckerboardGraph
    symmetry: SymmetrySpec
    sigma_K: Optional[int] = None
    bounds_extras: Optional[BoundsInput] = None


def parse_case(doc) -> KnotCase:
    """Fully validate one decoded case document (see `_load`)."""
    if not isinstance(doc, dict):
        raise InputError("SCHEMA", "top level must be an object")
    for key in ("name", "vertices", "edges", "symmetry"):
        if key not in doc:
            raise InputError("SCHEMA", f"missing required field '{key}'")
    name = doc["name"]
    if not isinstance(name, str):
        raise InputError("SCHEMA", "'name' must be a string")
    # raw JSON values raise arbitrary errors inside the constructors, so
    # they are wrapped; LOOP_EDGE keeps its own code
    try:
        graph = CheckerboardGraph(doc["vertices"],
                                  [tuple(e) for e in doc["edges"]], name=name)
    except InputError:
        raise
    except (TypeError, ValueError) as e:
        raise InputError("SCHEMA", f"bad graph: {e}") from e
    sym = doc["symmetry"]
    if not isinstance(sym, dict):
        raise InputError("SCHEMA", "'symmetry' must be an object")
    try:
        spec = SymmetrySpec(sym["vertex_perm"], sym["order"],
                            sym.get("kind", "strong_inversion"),
                            sym.get("lift_sign"))
    except KeyError as e:
        raise InputError("SCHEMA", f"symmetry missing field {e}") from e
    except (TypeError, ValueError) as e:
        raise InputError("SCHEMA", f"bad symmetry: {e}") from e
    # checked here, not left to induced_isometry: it must come before the
    # sigma and definiteness errors
    if not is_automorphism(graph, spec.vertex_perm):
        raise InputError("NOT_AUTOMORPHISM",
                         "vertex_perm does not preserve the weighted edges")
    pc = doc.get("positive_crossings")
    sig = doc.get("sigma")
    if sig is not None and not (_ints((sig,)) and sig % 2 == 0):
        raise InputError("SCHEMA", "'sigma' must be an even integer")
    if pc is not None:
        implied = knot_signature(graph, pc)
        if sig is not None and implied != sig:
            raise InputError("SIGMA_MISMATCH",
                             "supplied sigma disagrees with the "
                             "Gordon-Litherland signature formula")
        if implied % 2:
            raise InputError("SCHEMA", "'positive_crossings' gives an odd "
                             "signature, so the diagram is not a knot")
        sig = implied
    extras = None
    if "bounds" in doc:
        b = doc["bounds"]
        if not isinstance(b, dict):
            raise InputError("SCHEMA", "'bounds' must be an object")
        unknown = set(b) - set(BoundsInput._fields)
        if unknown:
            raise InputError("SCHEMA", f"unknown bounds fields: {sorted(unknown)}")
        extras = _bounds_input(b)
        # the Donaldson bound in `batch` reads the case's sigma
        if sig is not None and extras.sigma_K not in (None, sig):
            raise InputError("SIGMA_MISMATCH", "'bounds.sigma_K' disagrees "
                             "with the case's sigma")
    return KnotCase(graph=graph, symmetry=spec, sigma_K=sig,
                    bounds_extras=extras)


def _bounds_input(fields: dict) -> BoundsInput:
    """A BoundsInput from case-file or flag values, checked first: ints
    (not bools) of at most MAX_BITS bits, a period of at least 2, a
    non-negative move count, even knot signatures, and a g-signature
    that is an int or a "p/q" string of ints, held as the Fraction it
    parses to, whose numerator and denominator are within MAX_BITS."""
    gsig = fields.get("gsig")
    if isinstance(gsig, str):
        if not _FRACTION.fullmatch(gsig):
            raise InputError("SCHEMA", "'gsig' is not an integer or a "
                             f"fraction p/q: {gsig!r}")
        fields = dict(fields, gsig=Fraction(gsig))
    for key, value in fields.items():
        if value is None:
            continue
        if not (_ints((value,)) or type(value) is Fraction):
            raise InputError("SCHEMA", f"'{key}' must be an integer")
        if max(abs(value.numerator), value.denominator) >> MAX_BITS:
            raise InputError("SCHEMA",
                             f"'{key}' has more than {MAX_BITS} bits")
    # the period and move count are checked when parsed, even when no
    # bound reads them
    n = fields.get("period_n")
    if n is not None and n < 2:
        raise InputError("SCHEMA", f"the period must be >= 2, not {n}")
    moves = fields.get("equivariant_unknotting_moves")
    if moves is not None and moves < 0:
        raise InputError("SCHEMA",
                         "'equivariant_unknotting_moves' must be >= 0")
    for key in ("sigma_K", "sigma_quotient"):
        if (fields.get(key) or 0) % 2:
            raise InputError("SCHEMA", f"'{key}' must be an even integer")
    return BoundsInput(**fields)


def _all_rows(E: Embedding, delta: Optional[SignedPermutation] = None
              ) -> tuple[list, Optional[dict]]:
    """The k rows of E, its nonzero rows and then the zero rows it
    implies, and delta on all k rows, fixing each zero row with sign +1,
    as a {"perm", "signs"} dict (None for no delta): the only place that
    builds the zero rows, which the printed reports list."""
    tail = range(len(E.rows), E.k)
    rows = [list(r) for r in E.rows] + [[0] * E.source_rank] * len(tail)
    if delta is None:
        return rows, None
    return rows, {"perm": [*delta.perm, *tail],
                  "signs": [*delta.signs] + [1] * len(tail)}


def obstruction_to_dict(rep: ObstructionReport) -> dict:
    return {
        "k": rep.k,
        "class_count": rep.class_count,
        "obstructed": rep.obstructed,
        "conclusion": rep.conclusion,
        "per_class": [dict(zip(("embedding", "delta"), _all_rows(E, d)))
                      for E, d in rep.per_class],
    }


def bounds_to_dict(rep: BoundsReport) -> dict:
    return {
        "lower_bounds": [{"name": b.name, "value": str(b.value),
                          "ceiling": b.ceiling} for b in rep.lower_bounds],
        "upper_bounds": [{"name": n, "value": v} for n, v in rep.upper_bounds],
        "best_lower": rep.best_lower,
        "best_upper": rep.best_upper,
        "consistent": rep.consistent,
    }


def _obstruct_case(case: KnotCase, drop_vertex: Optional[int],
                   lift_signs: str) -> ObstructionReport:
    G = gl_lattice(case.graph, drop_vertex)
    # checked here, not only in enumerate_embeddings: NOT_DEFINITE comes
    # before MISSING_SIGMA, with a message of its own
    if not is_positive_definite(G):
        raise HypothesisError(
            "NOT_DEFINITE",
            "Gordon-Litherland lattice is not positive definite; the "
            "embedding theorem does not apply")
    if case.sigma_K is None:
        raise InputError("MISSING_SIGMA",
                         "need 'sigma' or 'positive_crossings' to set k")
    sym = case.symmetry
    specs = [sym]
    if lift_signs == "both":  # adds the lift of sign -eps, which is -R
        specs.append(SymmetrySpec(sym.vertex_perm, sym.order, sym.kind,
                                  -sym.lift_sign))
    lifts = [induced_isometry(case.graph, s, drop_vertex) for s in specs]
    return donaldson_obstruction(G, lifts, case.sigma_K, sym.order)


def _print_obstruction(case: KnotCase, rep: ObstructionReport, out):
    print(f"case: {case.graph.name}", file=out)
    print(f"sigma(K) = {case.sigma_K},  k = {rep.k}", file=out)
    print(f"embedding classes: {rep.class_count}", file=out)
    for idx, (_, delta) in enumerate(rep.per_class):
        status = "delta found" if delta is not None else "no delta"
        print(f"  class {idx}: {status}", file=out)
    print(f"obstructed: {rep.obstructed}", file=out)
    print(rep.conclusion, file=out)


def _print_bounds(doc: dict, out):
    for b in doc["lower_bounds"]:
        print(f"lower  {b['name']:24s} {b['value']:>8s}  "
              f"(>= {b['ceiling']})", file=out)
    for u in doc["upper_bounds"]:
        print(f"upper  {u['name']:24s} {u['value']:>8d}", file=out)
    print(f"best lower: {doc['best_lower']}   best upper: "
          f"{doc['best_upper']}   consistent: {doc['consistent']}", file=out)


def _load(path) -> object:
    """The JSON document in the file at path, the CLI's only reader: an
    unreadable file is an IO error; bytes that are not UTF-8, not JSON or
    nested too deeply to decode are a SCHEMA error."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as e:
        raise InputError("IO", f"cannot read {path}: {e}") from e
    except (ValueError, RecursionError) as e:
        raise InputError("SCHEMA", f"not valid JSON: {e}") from e


def _load_gram(path: str, involution: bool = False
               ) -> tuple[GramLattice, Optional[list]]:
    """The form in a --gram JSON file and, if asked for, the involution.

    Without `involution` the file may also be the bare Gram matrix."""
    raw = _load(path)
    if not involution and not isinstance(raw, dict):
        raw = {"gram": raw}
    keys = ("gram", "involution") if involution else ("gram",)
    if not isinstance(raw, dict) or any(key not in raw for key in keys):
        raise InputError("SCHEMA", "--gram file needs "
                         f"{' and '.join(map(repr, keys))} matrices")
    # checked here, not left to GramLattice, for a message that names the key
    for key in keys:
        M = raw[key]
        if not (isinstance(M, list) and all(
                isinstance(row, list) and len(row) == len(M)
                and _ints(row) for row in M)):
            raise InputError("SCHEMA",
                             f"'{key}' must be a square integer matrix")
    try:
        G = GramLattice(raw["gram"])
    except ValueError as e:
        raise InputError("SCHEMA", f"bad 'gram': {e}") from e
    return G, raw.get("involution")


def cmd_obstruct(args, out):
    case = parse_case(_load(args.file))
    rep = _obstruct_case(case, args.drop_vertex, args.lift_signs)
    if args.json:
        doc = dict(obstruction_to_dict(rep), name=case.graph.name,
                   sigma=case.sigma_K)
        print(json.dumps(doc), file=out)
    else:
        _print_obstruction(case, rep, out)


def cmd_gsig(args, out):
    given = [flag for flag, value in (("a case file", args.file),
                                      ("--gram", args.gram),
                                      ("--period", args.period_n))
             if value is not None]
    if len(given) > 1:
        raise InputError("SCHEMA", f"give only one of {', '.join(given)}")
    if args.period_n is None and (args.sigma_K is not None
                                  or args.sigma_quotient is not None):
        raise InputError("SCHEMA",
                         "--sigma and --quotient-sigma need --period")
    if args.period_n is not None:
        if args.sigma_K is None or args.sigma_quotient is None:
            raise InputError("SCHEMA",
                             "--period needs --sigma and --quotient-sigma")
        inp = _bounds_input(dict(period_n=args.period_n, sigma_K=args.sigma_K,
                                 sigma_quotient=args.sigma_quotient))
        val = gsig_periodic(inp.period_n, inp.sigma_K, inp.sigma_quotient)
        doc = {"gsig": str(val), "method": "periodic-quotient-formula"}
    elif args.gram is not None or args.file is not None:
        doc = {}
        if args.gram is not None:
            G, R = _load_gram(args.gram, involution=True)
        else:
            case = parse_case(_load(args.file))
            if case.symmetry.order != 2:
                raise HypothesisError(
                    "NOT_INVOLUTION",
                    "eigenspace path needs an order-2 symmetry")
            G = gl_lattice(case.graph)
            R = induced_isometry(case.graph, case.symmetry)
            doc["name"] = case.graph.name
        rep = gsig_involution(G, R)
        doc.update(gsig=str(rep.gsig), sigma_plus=rep.sigma_plus,
                   sigma_minus=rep.sigma_minus, dims=list(rep.dims),
                   method="eigenspace-restriction")
    else:
        raise InputError("SCHEMA",
                         "give a case file, --gram, or --period flags")
    if args.json:
        print(json.dumps(doc), file=out)
    else:
        for k, v in doc.items():
            print(f"{k}: {v}", file=out)


def cmd_bounds(args, out):
    inp = _bounds_input({f: getattr(args, f) for f in BoundsInput._fields})
    doc = bounds_to_dict(aggregate(inp))
    if args.json:
        print(json.dumps(doc), file=out)
    else:
        _print_bounds(doc, out)


def cmd_embed(args, out):
    G, _ = _load_gram(args.gram)
    embs = enumerate_embeddings(G, args.k)
    classes = orbit_classes(embs)
    doc = {
        "k": args.k,
        "embedding_count": embs.count,
        "class_count": len(classes),
        "classes": [{"representative": _all_rows(rep)[0],
                     "orbit_size": size} for rep, size in classes],
    }
    if args.json:
        print(json.dumps(doc), file=out)
    else:
        print(f"embeddings: {doc['embedding_count']}   "
              f"classes: {doc['class_count']}", file=out)
        for idx, cls in enumerate(doc["classes"]):
            print(f"  class {idx} (orbit size {cls['orbit_size']}):", file=out)
            for row in cls["representative"]:
                print(f"    {row}", file=out)


def _batch_row(path: Path, lift_signs: str) -> dict:
    try:
        case = parse_case(_load(path))
        rep = _obstruct_case(case, None, lift_signs)
        binp = (case.bounds_extras or BoundsInput())._replace(
            sigma_K=case.sigma_K)
        brep = aggregate(binp, obstruction=rep)
        return {
            "name": case.graph.name,
            "file": path.name,
            "sigma": case.sigma_K,
            "k": rep.k,
            "classes": rep.class_count,
            "obstructed": rep.obstructed,
            "best_lower": brep.best_lower,
            "best_upper": brep.best_upper,
        }
    except InputError as e:
        return {"name": path.stem, "file": path.name,
                "error": f"{e.code}: {e}"}


def cmd_batch(args, out):
    root = Path(args.directory)
    if not root.is_dir():
        raise InputError("IO", f"not a directory: {args.directory}")
    rows = [_batch_row(p, args.lift_signs)
            for p in sorted(root.glob("*.json"))]
    rows.sort(key=lambda r: r["name"])
    if args.json:
        for row in rows:
            print(json.dumps(row, sort_keys=True), file=out)
        return
    header = (f"{'name':16s} {'sigma':>5s} {'k':>3s} {'classes':>7s} "
              f"{'obstructed':>10s} {'lower':>5s} {'upper':>5s}")
    print(header, file=out)
    for row in rows:
        if "error" in row:
            print(f"{row['name']:16s} ERROR {row['error']}", file=out)
        else:
            print(f"{row['name']:16s} {row['sigma']:>5d} {row['k']:>3d} "
                  f"{row['classes']:>7d} {str(row['obstructed']):>10s} "
                  f"{str(row['best_lower']):>5s} {str(row['best_upper']):>5s}",
                  file=out)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="eqknot",
        description="Equivariant 4-genus obstructions and bounds for "
                    "symmetric knots, in exact arithmetic.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true",
                        help="emit the JSON report")

    def lift_signs(sp):
        sp.add_argument("--sign-mode", choices=("strict", "both"),
                        default="strict", dest="lift_signs")

    def period(sp):
        for flag, dest in (("--period", "period_n"), ("--sigma", "sigma_K"),
                           ("--quotient-sigma", "sigma_quotient")):
            sp.add_argument(flag, type=int, dest=dest)

    ob = sub.add_parser("obstruct", help="equivariant embedding obstruction")
    ob.add_argument("file")
    lift_signs(ob)
    ob.add_argument("--drop-vertex", type=int)
    common(ob)
    ob.set_defaults(func=cmd_obstruct)

    gs = sub.add_parser("gsig", help="g-signature")
    gs.add_argument("file", nargs="?")
    gs.add_argument("--gram",
                    help="JSON file with 'gram' and 'involution' matrices")
    period(gs)
    common(gs)
    gs.set_defaults(func=cmd_gsig)

    bd = sub.add_parser("bounds", help="aggregate genus bounds")
    period(bd)
    bd.add_argument("--quotient-g4top", type=int, dest="g4top_quotient")
    bd.add_argument("--lambda", type=int, dest="linking_lambda")
    bd.add_argument("--gsig", help="g-signature value (integer or p/q)")
    bd.add_argument("--unknotting-moves", type=int,
                    dest="equivariant_unknotting_moves")
    bd.add_argument("--g4", type=int, dest="g4_K")
    bd.add_argument("--genus-upper", type=int)
    common(bd)
    bd.set_defaults(func=cmd_bounds)

    em = sub.add_parser("embed", help="enumerate lattice embeddings")
    em.add_argument("--gram", required=True,
                    help="JSON file with the Gram matrix")
    em.add_argument("--k", type=int, required=True)
    common(em)
    em.set_defaults(func=cmd_embed)

    bt = sub.add_parser("batch", help="process a directory of case files")
    bt.add_argument("directory")
    lift_signs(bt)
    common(bt)
    bt.set_defaults(func=cmd_batch)
    return p


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:  # after --help, which argparse prints to stdout
            sys.stdout.flush()
            raise
        args.func(args, out)
        out.flush()  # a buffered stdout meets a closed pipe here, not at exit
    except InputError as e:
        print(f"error {e.code}: {e}", file=sys.stderr)
        return (EXIT_HYPOTHESIS if isinstance(e, HypothesisError)
                else EXIT_INPUT)
    except BrokenPipeError:
        if out is not sys.stdout:
            raise
        # the interpreter flushes stdout at exit, which would raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
