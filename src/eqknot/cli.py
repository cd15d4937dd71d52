"""Command line interface: case files, reports, batch tables.

Case file schema (JSON object):
  name: string
  vertices: integer vertex count
  edges: array of [u, v, weight]
  symmetry: {vertex_perm: array, order: int,
             kind: "periodic" | "strong_inversion", lift_sign: 1 | -1}
  positive_crossings: optional int from 0 to the number of edges
  sigma: optional even int (overrides the computed signature)
  bounds: optional object with BoundsInput fields

Exit codes: 0 computed (any verdict), 2 input error, 3 theorem hypothesis
unmet. Obstruction verdicts are data, not exit statuses. Each error is a
`lattice.InputError` raised where its rule is checked, here or in the
library; `main` prints "error CODE: message", `batch` a "CODE: message"
row. Exit 2: IO, SCHEMA, LOOP_EDGE, NOT_AUTOMORPHISM, SIGMA_MISMATCH,
MISSING_SIGMA. Exit 3, a `lattice.HypothesisError`: NOT_DEFINITE,
POSITIVE_SIGMA, NOT_INVOLUTION.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional

from .bounds import BoundsInput, BoundsReport, aggregate
from .checkerboard import (CheckerboardGraph, SymmetrySpec, gl_lattice,
                           induced_isometry, is_automorphism, knot_signature)
from .embedsearch import (ObstructionReport, donaldson_obstruction,
                          enumerate_embeddings, orbit_classes)
from .gsignature import gsig_involution, gsig_periodic
from .lattice import (GramLattice, HypothesisError, InputError, _ints,
                      is_positive_definite)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_HYPOTHESIS = 3


class KnotCase(NamedTuple):
    """One validated case file. sigma_K is the given sigma, else the one
    positive_crossings implies, else None."""

    name: str
    graph: CheckerboardGraph
    symmetry: SymmetrySpec
    positive_crossings: Optional[int] = None
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
                            sym.get("lift_sign", 1))
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
    return KnotCase(name=name, graph=graph, symmetry=spec,
                    positive_crossings=pc, sigma_K=sig, bounds_extras=extras)


def _bounds_input(fields: dict) -> BoundsInput:
    """A BoundsInput from case-file or flag values, checked first: ints
    (not bools), a period of at least 2, a non-negative move count, and a
    g-signature that is an int or a fraction string."""
    for key, value in fields.items():
        if key == "gsig" and isinstance(value, str):
            try:
                Fraction(value)
            except (ValueError, ZeroDivisionError):
                raise InputError("SCHEMA", "'gsig' is not an integer or a "
                                 f"fraction: {value!r}") from None
        elif value is not None and not _ints((value,)):
            raise InputError("SCHEMA", f"'{key}' must be an integer")
    # the period and move count are checked when parsed, even when no
    # bound reads them
    n = fields.get("period_n")
    if n is not None and n < 2:
        raise InputError("SCHEMA", f"the period must be >= 2, not {n}")
    moves = fields.get("equivariant_unknotting_moves")
    if moves is not None and moves < 0:
        raise InputError("SCHEMA",
                         "'equivariant_unknotting_moves' must be >= 0")
    return BoundsInput(**fields)


def obstruction_to_dict(rep: ObstructionReport) -> dict:
    return {
        "k": rep.k,
        "class_count": rep.class_count,
        "obstructed": rep.obstructed,
        "conclusion": rep.conclusion,
        "per_class": [
            {
                "embedding": [list(r) for r in E.matrix],
                "delta": None if d is None else
                {"perm": list(d.perm), "signs": list(d.signs)},
            }
            for E, d in rep.per_class
        ],
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
                   sign_mode: str) -> tuple[ObstructionReport, int]:
    G = gl_lattice(case.graph, drop_vertex)
    # checked here, not only in enumerate_embeddings: NOT_DEFINITE comes
    # before MISSING_SIGMA, with a message of its own
    if not is_positive_definite(G):
        raise HypothesisError(
            "NOT_DEFINITE",
            "Gordon-Litherland lattice is not positive definite; the "
            "embedding theorem does not apply")
    sigma = case.sigma_K
    if sigma is None:
        raise InputError("MISSING_SIGMA",
                         "need 'sigma' or 'positive_crossings' to set k")
    R = induced_isometry(case.graph, case.symmetry, drop_vertex)
    rep = donaldson_obstruction(G, R, sigma, case.symmetry.order,
                                sign_mode=sign_mode)
    return rep, sigma


def _print_obstruction(doc: dict, out):
    print(f"case: {doc['name']}", file=out)
    print(f"sigma(K) = {doc['sigma']},  k = {doc['k']}", file=out)
    print(f"embedding classes: {doc['class_count']}", file=out)
    for idx, cls in enumerate(doc["per_class"]):
        status = "delta found" if cls["delta"] is not None else "no delta"
        print(f"  class {idx}: {status}", file=out)
    print(f"obstructed: {doc['obstructed']}", file=out)
    print(doc["conclusion"], file=out)


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
    if involution and len(raw["involution"]) != len(raw["gram"]):
        raise InputError("SCHEMA",
                         "'involution' and 'gram' must have the same size")
    try:
        G = GramLattice(raw["gram"])
    except ValueError as e:
        raise InputError("SCHEMA", f"bad 'gram': {e}") from e
    return G, raw.get("involution")


def cmd_obstruct(args, out) -> int:
    case = parse_case(_load(args.file))
    rep, sigma = _obstruct_case(case, args.drop_vertex, args.sign_mode)
    doc = obstruction_to_dict(rep)
    doc["name"] = case.name
    doc["sigma"] = sigma
    if args.json:
        print(json.dumps(doc, indent=2), file=out)
    else:
        _print_obstruction(doc, out)
    return EXIT_OK


def cmd_gsig(args, out) -> int:
    given = [flag for flag, value in (("a case file", args.file),
                                      ("--gram", args.gram),
                                      ("--period", args.period))
             if value is not None]
    if len(given) > 1:
        raise InputError("SCHEMA", f"give only one of {', '.join(given)}")
    if args.drop_vertex is not None and args.file is None:
        raise InputError("SCHEMA", "--drop-vertex needs a case file")
    if args.period is None and (args.sigma is not None
                                or args.quotient_sigma is not None):
        raise InputError("SCHEMA",
                         "--sigma and --quotient-sigma need --period")
    if args.period is not None:
        if args.sigma is None or args.quotient_sigma is None:
            raise InputError("SCHEMA",
                             "--period needs --sigma and --quotient-sigma")
        val = gsig_periodic(args.period, args.sigma, args.quotient_sigma)
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
            G = gl_lattice(case.graph, args.drop_vertex)
            R = induced_isometry(case.graph, case.symmetry, args.drop_vertex)
            doc["name"] = case.name
        rep = gsig_involution(G, R)
        doc.update(gsig=str(rep.gsig), sigma_plus=rep.sigma_plus,
                   sigma_minus=rep.sigma_minus, dims=list(rep.dims),
                   method="eigenspace-restriction")
    else:
        raise InputError("SCHEMA",
                         "give a case file, --gram, or --period flags")
    if args.json:
        print(json.dumps(doc, indent=2), file=out)
    else:
        for k, v in doc.items():
            print(f"{k}: {v}", file=out)
    return EXIT_OK


def cmd_bounds(args, out) -> int:
    inp = _bounds_input(dict(
        period_n=args.period, sigma_K=args.sigma,
        sigma_quotient=args.quotient_sigma,
        g4top_quotient=args.quotient_g4top, linking_lambda=args.linking,
        gsig=args.gsig, equivariant_unknotting_moves=args.unknotting_moves,
        g4_K=args.g4, genus_upper=args.genus_upper))
    doc = bounds_to_dict(aggregate(inp))
    if args.json:
        print(json.dumps(doc, indent=2), file=out)
    else:
        _print_bounds(doc, out)
    return EXIT_OK


def cmd_embed(args, out) -> int:
    G, _ = _load_gram(args.gram)
    embs = enumerate_embeddings(G, args.k)
    classes = orbit_classes(embs)
    doc = {
        "k": args.k,
        "embedding_count": embs.count,
        "class_count": len(classes),
        "classes": [{"representative": [list(r) for r in rep.matrix],
                     "orbit_size": size} for rep, size in classes],
    }
    if args.json:
        print(json.dumps(doc, indent=2), file=out)
    else:
        print(f"embeddings: {doc['embedding_count']}   "
              f"classes: {doc['class_count']}", file=out)
        for idx, cls in enumerate(doc["classes"]):
            print(f"  class {idx} (orbit size {cls['orbit_size']}):", file=out)
            for row in cls["representative"]:
                print(f"    {row}", file=out)
    return EXIT_OK


def _batch_row(path: Path, sign_mode: str) -> dict:
    try:
        case = parse_case(_load(path))
        rep, sigma = _obstruct_case(case, None, sign_mode)
        binp = case.bounds_extras or BoundsInput()
        if binp.sigma_K is None:
            binp = binp._replace(sigma_K=sigma)
        brep = aggregate(binp, obstruction=rep)
        return {
            "name": case.name,
            "file": path.name,
            "sigma": sigma,
            "k": rep.k,
            "classes": rep.class_count,
            "obstructed": rep.obstructed,
            "best_lower": brep.best_lower,
            "best_upper": brep.best_upper,
        }
    except InputError as e:
        return {"name": path.stem, "file": path.name,
                "error": f"{e.code}: {e}"}


def cmd_batch(args, out) -> int:
    root = Path(args.directory)
    if not root.is_dir():
        raise InputError("IO", f"not a directory: {args.directory}")
    rows = [_batch_row(p, args.sign_mode) for p in sorted(root.glob("*.json"))]
    rows.sort(key=lambda r: r["name"])
    if args.json:
        for row in rows:
            print(json.dumps(row, sort_keys=True), file=out)
        return EXIT_OK
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
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="eqknot",
        description="Equivariant 4-genus obstructions and bounds for "
                    "symmetric knots, in exact arithmetic.")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--json", action="store_true",
                        help="emit the JSON report")

    ob = sub.add_parser("obstruct", help="equivariant embedding obstruction")
    ob.add_argument("file")
    ob.add_argument("--sign-mode", choices=("strict", "both"),
                    default="strict")
    ob.add_argument("--drop-vertex", type=int, default=None,
                    dest="drop_vertex")
    common(ob)
    ob.set_defaults(func=cmd_obstruct)

    gs = sub.add_parser("gsig", help="g-signature")
    gs.add_argument("file", nargs="?", default=None)
    gs.add_argument("--gram", default=None,
                    help="JSON file with 'gram' and 'involution' matrices")
    gs.add_argument("--period", type=int, default=None)
    gs.add_argument("--sigma", type=int, default=None)
    gs.add_argument("--quotient-sigma", type=int, default=None,
                    dest="quotient_sigma")
    gs.add_argument("--drop-vertex", type=int, default=None,
                    dest="drop_vertex")
    common(gs)
    gs.set_defaults(func=cmd_gsig)

    bd = sub.add_parser("bounds", help="aggregate genus bounds")
    bd.add_argument("--period", type=int, default=None)
    bd.add_argument("--sigma", type=int, default=None)
    bd.add_argument("--quotient-sigma", type=int, default=None,
                    dest="quotient_sigma")
    bd.add_argument("--quotient-g4top", type=int, default=None,
                    dest="quotient_g4top")
    bd.add_argument("--lambda", type=int, default=None, dest="linking")
    bd.add_argument("--gsig", default=None,
                    help="g-signature value (integer or fraction)")
    bd.add_argument("--unknotting-moves", type=int, default=None,
                    dest="unknotting_moves")
    bd.add_argument("--g4", type=int, default=None)
    bd.add_argument("--genus-upper", type=int, default=None,
                    dest="genus_upper")
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
    bt.add_argument("--sign-mode", choices=("strict", "both"),
                    default="strict")
    common(bt)
    bt.set_defaults(func=cmd_batch)
    return p


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, out)
    except InputError as e:
        print(f"error {e.code}: {e}", file=sys.stderr)
        return (EXIT_HYPOTHESIS if isinstance(e, HypothesisError)
                else EXIT_INPUT)


if __name__ == "__main__":
    raise SystemExit(main())
