"""Seeded corpus of symmetric checkerboard cases, and the expected answers.

Every case is built in code from a graph family; nothing is downloaded.
The seed picks, for each variant of a workload, a random vertex
relabelling of every graph (a signed-permutation change of basis for raw
Gram files) and the order of the operations. Neither changes the
invariants that are checked: k, the embedding classes up to Aut(Z^k, Id)
with their orbit sizes, which classes admit a delta, the verdict, and
the g-signature. The expected values come from oracle.py, never from
eqknot.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import oracle

WORKLOADS = ("obstruct-large", "batch-small", "gsig-large")
VARIANTS = 16  # relabelled copies of each corpus; pass i runs variant i % 16


class CorpusError(Exception):
    """The generated corpus or its oracle is inconsistent; the benchmark
    itself is broken, not the program under test."""


@dataclass(frozen=True)
class Graph:
    """A signed checkerboard graph with one symmetry of it."""
    name: str
    vertices: int
    edges: tuple
    perm: tuple
    order: int
    kind: str = "strong_inversion"
    lift_sign: int = 1

    def relabel(self, p):
        """The same graph with vertex v renamed p[v]; the symmetry is
        conjugated so it stays an automorphism."""
        inv = [0] * self.vertices
        for v, pv in enumerate(p):
            inv[pv] = v
        edges = tuple((p[u], p[v], w) for u, v, w in self.edges)
        perm = tuple(p[self.perm[inv[x]]] for x in range(self.vertices))
        return Graph(self.name, self.vertices, edges, perm, self.order,
                     self.kind, self.lift_sign)


def path(n, lift_sign=1):
    return Graph(f"P{n}", n, tuple((i, i + 1, -1) for i in range(n - 1)),
                 tuple(n - 1 - i for i in range(n)), 2,
                 lift_sign=lift_sign)


def star(leaves):
    """Hub 0 joined to leaves 1..n, with the leaves rotated (period n)."""
    return Graph(f"S{leaves}", leaves + 1,
                 tuple((0, i, -1) for i in range(1, leaves + 1)),
                 (0,) + tuple(i % leaves + 1 for i in range(1, leaves + 1)),
                 leaves, "periodic")


def cycle(n, sym="rotation", weights=(-1,), lift_sign=1):
    """C_n with edge i-(i+1) weighted weights[i % len(weights)].

    sym: "rotation" (i -> i+step, period n/step, step = len(weights)),
    "vertex" (reflection i -> -i, fixing vertices) or "edge" (reflection
    i -> 1-i, fixing no vertex when n is even)."""
    edges = tuple((i, (i + 1) % n, weights[i % len(weights)])
                  for i in range(n))
    if sym == "rotation":
        step = len(weights)
        perm = tuple((i + step) % n for i in range(n))
        return Graph(f"C{n}", n, edges, perm, n // step, "periodic",
                     lift_sign)
    shift = 0 if sym == "vertex" else 1
    return Graph(f"C{n}", n, edges, tuple((shift - i) % n for i in range(n)),
                 2, lift_sign=lift_sign)


def wheel(n):
    """Rim 0..n-1 around hub n, with the rim rotated (period n)."""
    edges = cycle(n).edges + tuple((i, n, -1) for i in range(n))
    return Graph(f"W{n}", n + 1, edges,
                 tuple((i + 1) % n for i in range(n)) + (n,), n, "periodic")


def k_minus_matching(n, m):
    """K_n without the edges (2i, 2i+1), i < m; the symmetry swaps the
    ends of every removed edge."""
    gone = {(2 * i, 2 * i + 1) for i in range(m)}
    edges = tuple((u, v, -1) for u in range(n) for v in range(u + 1, n)
                  if (u, v) not in gone)
    perm = tuple(v ^ 1 if v < 2 * m else v for v in range(n))
    return Graph(f"K{n}-{m}", n, edges, perm, 2)


def nine_40():
    """The 9_40 fixture: K_5 minus the edge (1, 3), strong inversion."""
    edges = tuple((u, v, -1) for u in range(5) for v in range(u + 1, 5)
                  if (u, v) != (1, 3))
    return Graph("9_40", 5, edges, (2, 3, 0, 1, 4), 2)


GRAM_946 = ((0, 2, -1, 0), (2, 0, 0, -1), (-1, 0, 0, 2), (0, -1, 2, 0))
TAU_946 = ((0, -1, 0, 0), (-1, 0, 0, 0), (0, 0, 0, -1), (0, 0, -1, 0))


def block_sum(blocks):
    n = sum(len(b) for b in blocks)
    M = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            M[at + i][at:at + len(b)] = row
        at += len(b)
    return M


def signed_perm_conjugate(M, perm, signs):
    """U^T M U for the signed permutation U = diag(signs) * (permutation
    sending basis vector i to perm[i])."""
    n = len(M)
    return [[signs[i] * signs[j] * M[perm[i]][perm[j]] for j in range(n)]
            for i in range(n)]


# ---------------------------------------------------------------- cases

def case_doc(g, name, sigma, extra=None):
    doc = {"name": name, "vertices": g.vertices,
           "edges": [list(e) for e in g.edges],
           "symmetry": {"vertex_perm": list(g.perm), "order": g.order,
                        "kind": g.kind, "lift_sign": g.lift_sign}}
    if sigma is not None:
        doc["sigma"] = sigma
    doc.update(extra or {})
    return doc


def _class_table(G, k, R=None, order=None):
    """Oracle classes of G in Z^k: canonical rep -> (orbit size, delta?)."""
    table = {}
    for rep, size in oracle.embedding_classes(G, k):
        table[rep] = (size, None if R is None
                      else oracle.has_delta(rep, R, order))
    return table


def obstruction_expectation(g, sigma):
    """Expected obstruct answer for graph g at the given sigma, or the
    NOT_DEFINITE error when the Gordon-Litherland form is not positive
    definite."""
    G = oracle.gl_gram(g.vertices, g.edges)
    pos, _neg, _zero = oracle.inertia(G)
    if pos != len(G):
        return {"error": "NOT_DEFINITE"}
    R = oracle.induced_isometry(g.vertices, g.perm, g.lift_sign)
    k = -sigma + len(G)
    table = _class_table(G, k, R, g.order)
    return {"G": G, "R": R, "order": g.order, "k": k, "sigma": sigma,
            "classes": table,
            "obstructed": not any(d for _, d in table.values())}


def _bounds_row(exp, extra):
    """Expected best_lower / best_upper of a batch row."""
    lows = [extra[f] for f in ("g4_K",) if f in extra]
    if exp["obstructed"]:
        lows.append(-exp["sigma"] // 2 + 1)
    ups = [extra[f] for f in ("equivariant_unknotting_moves", "genus_upper")
           if f in extra]
    return (max(lows) if lows else None, min(ups) if ups else None)


def _invariants(exp):
    if "error" in exp:
        return exp["error"]
    return (exp["k"], exp["obstructed"],
            sorted((s, d) for s, d in exp["classes"].values()))


def brute_force_check(G, k):
    """Cross-check the orderly class generator against brute force."""
    if oracle.brute_force_cost(G, k) > 20000:
        return
    brute = oracle.brute_force_classes(G, k)
    orderly = oracle.embedding_classes(G, k)
    if brute != orderly:
        raise CorpusError(f"orderly classes differ from brute force on "
                          f"G={G}, k={k}")


# ------------------------------------------------------------ workloads

# (graph, k - rank) for obstruct-large: 10^4..10^5 embeddings each, except
# the wheel W4, which has none at k = 6 so its search is pruning only.
# k - rank is -sigma, which must be even.
OBSTRUCT_LARGE = (
    (nine_40(), 2),
    (cycle(5, lift_sign=-1), 2),
    (cycle(4, "vertex"), 4),
    (wheel(4), 2),
)
# (graph, k) whose Gram matrix goes to `embed --gram` in a changed basis.
# A pass has two operations of under 1 s, three of about 1 s and two
# longer ones, so the median latency falls in the middle of the 1 s
# cluster rather than at its edge.
EMBED_LARGE = ((cycle(5), 6), (k_minus_matching(4, 1), 6), (wheel(3), 6))

_DEF = {"g4_K": 1, "equivariant_unknotting_moves": 2}
# (graph, k - rank, bounds, copies) for batch-small; each base case is
# written `copies` times with different relabellings, fewer copies for
# the few that take about 0.1 s.
BATCH_SMALL = (
    (path(3), 0, None, 6), (path(4, -1), 0, _DEF, 6), (path(5), 0, None, 6),
    (star(3), 0, None, 6), (star(4), 0, _DEF, 6),
    (cycle(3), 0, None, 6), (cycle(4, "edge"), 0, _DEF, 6),
    (cycle(5), 0, None, 6), (cycle(6, "vertex"), 0, None, 2),
    (k_minus_matching(4, 2), 0, None, 6),
    (path(3), 2, _DEF, 6), (path(4), 2, None, 6),
    (cycle(3, lift_sign=-1), 2, _DEF, 6), (star(3), 2, None, 6),
    (cycle(4, "vertex", lift_sign=-1), 2, _DEF, 1),
    (cycle(4, weights=(1,)), 0, None, 6),
    (cycle(4, weights=(1, -1)), 0, None, 6),
    (cycle(6, weights=(1, -1, -1)), 2, None, 6),
)
# gsig-large: n-fold sums of the 9_46 form, reflected cycles, one
# `gsig --period` call and one `bounds` call. Of the thirteen operations
# of a pass six are cheaper than the 6-fold sum and six dearer, so the
# median latency is the middle of that sum's samples. Its cost barely
# depends on the change of basis, while a relabelled cycle's cost can
# vary by half.
GSIG_SUMS = (2, 4, 6, 8, 10, 11, 12)
GSIG_CYCLES = ((10, "vertex", 1), (15, "edge", -1), (30, "vertex", -1),
               (40, "edge", 1))

def _relabelled(g, rng):
    p = list(range(g.vertices))
    rng.shuffle(p)
    return g.relabel(p)


def _write(path: Path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def build(workload: str, seed: int, root: Path):
    """Write the corpus of a workload under root and return its variants:
    a list of VARIANTS lists of (argv, expectation) pairs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}/{seed}")
    make = {"obstruct-large": _obstruct_large, "batch-small": _batch_small,
            "gsig-large": _gsig_large}[workload]
    base = {}
    variants = []
    for v in range(VARIANTS):
        vdir = root / f"v{v}"
        vdir.mkdir(parents=True)
        ops = make(rng, vdir, base)
        rng.shuffle(ops)
        variants.append(ops)
    return variants


def _same_as_base(base, key, exp, make_base):
    """Relabelling must not change the invariants; compute them once on
    the unrelabelled case and compare."""
    if key not in base:
        base[key] = _invariants(make_base())
    if _invariants(exp) != base[key]:
        raise CorpusError(f"relabelling changed the invariants of {key}")


def _obstruct_large(rng, vdir, base):
    ops = []
    for g, extra in OBSTRUCT_LARGE:
        rank = g.vertices - 1
        h = _relabelled(g, rng)
        sigma = -extra
        doc = case_doc(h, g.name, sigma,
                       {"positive_crossings": 6} if g.name == "9_40" else {})
        exp = obstruction_expectation(h, sigma)
        _same_as_base(base, (g, extra), exp,
                      lambda: obstruction_expectation(g, sigma))
        exp["kind"] = "obstruct"
        path_ = _write(vdir / f"{g.name}-k{rank + extra}.json", doc)
        ops.append((["obstruct", path_, "--json"], exp))
    for g, k in EMBED_LARGE:
        G = oracle.gl_gram(g.vertices, g.edges)
        perm = list(range(len(G)))
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in perm]
        H = signed_perm_conjugate(G, perm, signs)
        exp = {"kind": "embed", "G": H, "k": k, "classes": _class_table(H, k)}
        before = sorted(_class_table(G, k).values())
        if before != sorted(exp["classes"].values()):
            raise CorpusError(f"change of basis changed the classes of "
                              f"{g.name}")
        path_ = _write(vdir / f"{g.name}-gram.json", {"gram": H})
        ops.append((["embed", "--gram", path_, "--k", str(k), "--json"], exp))
    return ops


def _batch_small(rng, vdir, base):
    rows = {}
    for idx, (g, extra, bounds, copies) in enumerate(BATCH_SMALL):
        sigma = -extra
        if (g, extra) not in base:
            G = oracle.gl_gram(g.vertices, g.edges)
            if oracle.inertia(G)[0] == len(G):
                brute_force_check(G, len(G) + extra)
        for c in range(copies):
            h = _relabelled(g, rng)
            name = f"{g.name}-k{extra}-{idx:02d}-{c}"
            exp = obstruction_expectation(h, sigma)
            _same_as_base(base, (g, extra), exp,
                          lambda: obstruction_expectation(g, sigma))
            extras = {"bounds": bounds} if bounds else {}
            _write(vdir / f"{name}.json", case_doc(h, name, sigma, extras))
            if "error" in exp:
                row = {"name": name, "error": exp["error"]}
            else:
                lo, up = _bounds_row(exp, bounds or {})
                row = {"name": name, "sigma": sigma, "k": exp["k"],
                       "classes": len(exp["classes"]),
                       "obstructed": exp["obstructed"],
                       "best_lower": lo, "best_upper": up}
            rows[f"{name}.json"] = row
    return [(["batch", str(vdir), "--json"], {"kind": "batch", "rows": rows})]


def _reflection_dims(g):
    """(+1, -1) eigenspace dimensions of the induced involution: the
    permutation has (orbits - 1) invariant directions on Z^n / (1,...,1)
    and one anti-invariant direction per 2-cycle; lift_sign -1 swaps
    them."""
    two_cycles = sum(1 for v in range(g.vertices) if g.perm[v] > v)
    orbits = g.vertices - two_cycles
    dims = (orbits - 1, two_cycles)
    return dims if g.lift_sign == 1 else dims[::-1]


def _gsig_large(rng, vdir, base):
    ops = []
    for n in GSIG_SUMS:
        G = block_sum([GRAM_946] * n)
        R = block_sum([TAU_946] * n)
        perm = list(range(4 * n))
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in perm]
        doc = {"gram": signed_perm_conjugate(G, perm, signs),
               "involution": signed_perm_conjugate(R, perm, signs)}
        exp = {"kind": "gsig", "gsig": -4 * n, "sigma_plus": -2 * n,
               "sigma_minus": 2 * n, "dims": [2 * n, 2 * n]}
        path_ = _write(vdir / f"9_46x{n}.json", doc)
        ops.append((["gsig", "--gram", path_, "--json"], exp))
    for n, sym, lift_sign in GSIG_CYCLES:
        h = _relabelled(cycle(n, sym, lift_sign=lift_sign), rng)
        plus, minus = _reflection_dims(h)
        # the form is positive definite, so each restriction is too
        exp = {"kind": "gsig", "gsig": plus - minus, "sigma_plus": plus,
               "sigma_minus": minus, "dims": [plus, minus], "name": h.name}
        path_ = _write(vdir / f"{h.name}.json", case_doc(h, h.name, None))
        ops.append((["gsig", path_, "--json"], exp))
    n = rng.choice((2, 3, 5))
    sigma, quotient = -2 * rng.randint(1, 6), 2 * rng.randint(-3, 3)
    ops.append((["gsig", "--period", str(n), "--sigma", str(sigma),
                 "--quotient-sigma", str(quotient), "--json"],
                {"kind": "gsig", "gsig": Fraction(n * quotient - sigma,
                                                  n - 1)}))
    t = rng.randint(0, 4)
    bounds = {"period_n": 2, "sigma_K": -2, "sigma_quotient": 2 * t,
              "g4top_quotient": t, "linking_lambda": 4 * t + 5,
              "genus_upper": 4 * t + 2}
    ops.append((["bounds", "--period", "2", "--sigma", "-2",
                 "--quotient-sigma", str(2 * t), "--quotient-g4top", str(t),
                 "--lambda", str(4 * t + 5), "--genus-upper", str(4 * t + 2),
                 "--json"],
                {"kind": "bounds", **expected_bounds(bounds)}))
    return ops


def expected_bounds(b):
    """The lower bounds the paper's formulas give for a periodic knot, and
    the best lower and upper bounds they imply."""
    n = b["period_n"]
    lows = {
        "g-signature (periodic)":
            Fraction(abs(n * b["sigma_quotient"] - b["sigma_K"]),
                     2 * (n - 1)),
        "riemann-hurwitz":
            n * Fraction(b["g4top_quotient"])
            + Fraction((n - 1) * (abs(b["linking_lambda"]) - 1), 2),
    }
    ceil = {name: -((-v.numerator) // v.denominator)
            for name, v in lows.items()}
    best_lower = max(ceil.values())
    return {"lower": lows, "best_lower": best_lower,
            "best_upper": b["genus_upper"],
            "consistent": best_lower <= b["genus_upper"]}
