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
unmet (e.g. the lattice is not positive definite). Obstruction verdicts are
data, not exit statuses.
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
from .lattice import GramLattice, _ints, is_positive_definite

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_HYPOTHESIS = 3


class CaseError(Exception):
    """Input validation failure with a machine-readable code."""

    exit_code = EXIT_INPUT

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code

    def __str__(self):
        return f"{self.code}: {self.args[0]}"


class HypothesisError(CaseError):
    """A theorem hypothesis is not met; the computation does not apply."""

    exit_code = EXIT_HYPOTHESIS


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
        raise CaseError("SCHEMA", "top level must be an object")
    for key in ("name", "vertices", "edges", "symmetry"):
        if key not in doc:
            raise CaseError("SCHEMA", f"missing required field '{key}'")
    name = doc["name"]
    if not isinstance(name, str):
        raise CaseError("SCHEMA", "'name' must be a string")
    try:
        edges = [tuple(e) for e in doc["edges"]]
        for u, v, w in edges:
            if u == v:
                raise CaseError("LOOP_EDGE",
                                f"loop edge at vertex {u} not allowed")
        graph = CheckerboardGraph(doc["vertices"], edges, name=name)
    except CaseError:
        raise
    except (TypeError, ValueError) as e:
        raise CaseError("SCHEMA", f"bad graph: {e}") from e
    sym = doc["symmetry"]
    if not isinstance(sym, dict):
        raise CaseError("SCHEMA", "'symmetry' must be an object")
    try:
        spec = SymmetrySpec(sym["vertex_perm"], sym["order"],
                            sym.get("kind", "strong_inversion"),
                            sym.get("lift_sign", 1))
    except KeyError as e:
        raise CaseError("SCHEMA", f"symmetry missing field {e}") from e
    except (TypeError, ValueError) as e:
        raise CaseError("SCHEMA", f"bad symmetry: {e}") from e
    if not is_automorphism(graph, spec.vertex_perm):
        raise CaseError("NOT_AUTOMORPHISM",
                        "vertex_perm does not preserve the weighted edges")
    pc = doc.get("positive_crossings")
    sig = doc.get("sigma")
    if sig is not None and not (_is_int(sig) and sig % 2 == 0):
        raise CaseError("SCHEMA", "'sigma' must be an even integer")
    if pc is not None:
        if not (_is_int(pc) and 0 <= pc <= len(graph.edges)):
            raise CaseError("SCHEMA", "'positive_crossings' must be an "
                            f"integer from 0 to {len(graph.edges)}")
        implied = knot_signature(graph, pc)
        if sig is not None and implied != sig:
            raise CaseError("SIGMA_MISMATCH",
                            "supplied sigma disagrees with the "
                            "Gordon-Litherland signature formula")
        if implied % 2:
            raise CaseError("SCHEMA", "'positive_crossings' gives an odd "
                            "signature, so the diagram is not a knot")
        sig = implied
    extras = None
    if "bounds" in doc:
        b = doc["bounds"]
        if not isinstance(b, dict):
            raise CaseError("SCHEMA", "'bounds' must be an object")
        unknown = set(b) - set(BoundsInput._fields)
        if unknown:
            raise CaseError("SCHEMA", f"unknown bounds fields: {sorted(unknown)}")
        extras = _bounds_input(b)
    return KnotCase(name=name, graph=graph, symmetry=spec,
                    positive_crossings=pc, sigma_K=sig, bounds_extras=extras)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _bounds_input(fields: dict) -> BoundsInput:
    """A BoundsInput from case-file or flag values, checked first: ints
    (not bools), a period of at least 2, a non-negative move count, and a
    g-signature that is an int or a fraction string."""
    for key, value in fields.items():
        if key == "gsig" and isinstance(value, str):
            try:
                Fraction(value)
            except (ValueError, ZeroDivisionError):
                raise CaseError("SCHEMA", "'gsig' is not an integer or a "
                                f"fraction: {value!r}") from None
        elif value is not None and not _is_int(value):
            raise CaseError("SCHEMA", f"'{key}' must be an integer")
    _check_period(fields.get("period_n"))
    moves = fields.get("equivariant_unknotting_moves")
    if moves is not None and moves < 0:
        raise CaseError("SCHEMA",
                        "'equivariant_unknotting_moves' must be >= 0")
    return BoundsInput(**fields)


def _check_period(n: Optional[int]):
    if n is not None and n < 2:
        raise CaseError("SCHEMA", f"the period must be >= 2, not {n}")


def _check_drop_vertex(case: KnotCase, v: Optional[int]):
    n = case.graph.vertex_count
    if v is not None and not 0 <= v < n:
        raise CaseError("SCHEMA", f"--drop-vertex must be from 0 to {n - 1}")


def _rational(x) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f}"


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
        "lower_bounds": [{"name": b.name, "value": _rational(b.value),
                          "ceiling": b.ceiling} for b in rep.lower_bounds],
        "upper_bounds": [{"name": n, "value": v} for n, v in rep.upper_bounds],
        "best_lower": rep.best_lower,
        "best_upper": rep.best_upper,
        "consistent": rep.consistent,
    }


def _obstruct_case(case: KnotCase, drop_vertex: Optional[int],
                   sign_mode: str) -> tuple[ObstructionReport, int]:
    _check_drop_vertex(case, drop_vertex)
    G = gl_lattice(case.graph, drop_vertex)
    if not is_positive_definite(G):
        raise HypothesisError(
            "NOT_DEFINITE",
            "Gordon-Litherland lattice is not positive definite; the "
            "embedding theorem does not apply")
    sigma = case.sigma_K
    if sigma is None:
        raise CaseError("MISSING_SIGMA",
                        "need 'sigma' or 'positive_crossings' to set k")
    if sigma > 0:
        raise HypothesisError("POSITIVE_SIGMA",
                              "stated for sigma(K) <= 0; mirror the knot "
                              "first")
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
        raise CaseError("IO", f"cannot read {path}: {e}") from e
    except (ValueError, RecursionError) as e:
        raise CaseError("SCHEMA", f"not valid JSON: {e}") from e


def _load_gram(path: str, involution: bool = False
               ) -> tuple[GramLattice, Optional[list]]:
    """The form in a --gram JSON file and, if asked for, the involution.

    Without `involution` the file may also be the bare Gram matrix."""
    raw = _load(path)
    if not involution and not isinstance(raw, dict):
        raw = {"gram": raw}
    keys = ("gram", "involution") if involution else ("gram",)
    if not isinstance(raw, dict) or any(key not in raw for key in keys):
        raise CaseError("SCHEMA", "--gram file needs "
                        f"{' and '.join(map(repr, keys))} matrices")
    for key in keys:
        M = raw[key]
        if not (isinstance(M, list) and all(
                isinstance(row, list) and len(row) == len(M)
                and _ints(row) for row in M)):
            raise CaseError("SCHEMA",
                            f"'{key}' must be a square integer matrix")
    if involution and len(raw["involution"]) != len(raw["gram"]):
        raise CaseError("SCHEMA",
                        "'involution' and 'gram' must have the same size")
    try:
        G = GramLattice(raw["gram"])
    except ValueError as e:
        raise CaseError("SCHEMA", f"bad 'gram': {e}") from e
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
        raise CaseError("SCHEMA", f"give only one of {', '.join(given)}")
    if args.drop_vertex is not None and args.file is None:
        raise CaseError("SCHEMA", "--drop-vertex needs a case file")
    if args.period is None and (args.sigma is not None
                                or args.quotient_sigma is not None):
        raise CaseError("SCHEMA",
                        "--sigma and --quotient-sigma need --period")
    if args.period is not None:
        if args.sigma is None or args.quotient_sigma is None:
            raise CaseError("SCHEMA",
                            "--period needs --sigma and --quotient-sigma")
        _check_period(args.period)
        val = gsig_periodic(args.period, args.sigma, args.quotient_sigma)
        doc = {"gsig": _rational(val), "method": "periodic-quotient-formula"}
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
            _check_drop_vertex(case, args.drop_vertex)
            G = gl_lattice(case.graph, args.drop_vertex)
            R = induced_isometry(case.graph, case.symmetry, args.drop_vertex)
            doc["name"] = case.name
        try:
            rep = gsig_involution(G, R)
        except ValueError as e:
            raise HypothesisError("NOT_INVOLUTION", str(e)) from e
        doc.update(gsig=_rational(rep.gsig), sigma_plus=rep.sigma_plus,
                   sigma_minus=rep.sigma_minus, dims=list(rep.dims),
                   method="eigenspace-restriction")
    else:
        raise CaseError("SCHEMA",
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
    if args.k < 0:
        raise CaseError("SCHEMA", "--k must be >= 0")
    G, _ = _load_gram(args.gram)
    if not is_positive_definite(G):
        raise HypothesisError("NOT_DEFINITE",
                              "form is not positive definite")
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
    except CaseError as e:
        return {"name": path.stem, "file": path.name, "error": str(e)}


def cmd_batch(args, out) -> int:
    root = Path(args.directory)
    if not root.is_dir():
        raise CaseError("IO", f"not a directory: {args.directory}")
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
    except CaseError as e:
        print(f"error {e}", file=sys.stderr)
        return e.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
