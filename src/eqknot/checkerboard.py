"""Gordon-Litherland lattices from signed checkerboard graphs.

A checkerboard graph is a connected signed multigraph on the white regions
of a diagram; each crossing between two distinct white regions contributes
an edge of weight +1 (right half-twist) or -1 (left half-twist). Vertex
weights are always derived as minus the sum of incident edge weights.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import isqrt, lcm
from operator import index
from typing import Optional, Sequence

from .lattice import (GramLattice, Matrix, Rows, _row_mul, _rows,
                      signature)

Edge = tuple[int, int, int]


@dataclass(frozen=True)
class CheckerboardGraph:
    vertex_count: int
    edges: tuple[Edge, ...]
    name: Optional[str] = None

    def __init__(self, vertex_count: int, edges: Sequence[Sequence[int]],
                 name: Optional[str] = None):
        if vertex_count < 1:
            raise ValueError("graph needs at least one vertex")
        frozen = []
        for e in edges:
            u, v, w = e
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge endpoint out of range: {e}")
            if u == v:
                raise ValueError(f"loop edge not allowed: {e}")
            if w not in (1, -1):
                raise ValueError(f"edge weight must be +1 or -1: {e}")
            frozen.append((u, v, w))
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", tuple(frozen))
        object.__setattr__(self, "name", name)
        if not self._connected():
            raise ValueError("checkerboard graph must be connected")

    def _connected(self) -> bool:
        n = self.vertex_count
        adj = [[] for _ in range(n)]
        for u, v, _ in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == n

    def vertex_weight(self, v: int) -> int:
        """w(v) = -(sum of weights of edges incident to v)."""
        return -sum(w for a, b, w in self.edges if v in (a, b))

    def edge_multiset(self, u: int, v: int) -> Counter:
        key = (min(u, v), max(u, v))
        return Counter(w for a, b, w in self.edges
                       if (min(a, b), max(a, b)) == key)


@dataclass(frozen=True)
class SymmetrySpec:
    """A symmetry of the diagram, given as a vertex permutation of the
    checkerboard graph.

    lift_sign is the sign relating the branched-cover action to the
    surface-level action: +1 for periodic symmetries; for strong inversions
    it depends on which half-axis the checkerboard surface contains, and
    must be supplied explicitly by the caller.
    """

    vertex_perm: tuple[int, ...]
    order: int
    kind: str = "strong_inversion"
    lift_sign: int = 1

    def __init__(self, vertex_perm: Sequence[int], order: int,
                 kind: str = "strong_inversion", lift_sign: int = 1):
        perm = tuple(vertex_perm)
        if sorted(perm) != list(range(len(perm))):
            raise ValueError("vertex_perm is not a permutation")
        if kind not in ("periodic", "strong_inversion"):
            raise ValueError(f"unknown symmetry kind: {kind}")
        if order < 2:
            raise ValueError("symmetry order must be >= 2")
        if kind == "strong_inversion" and order != 2:
            raise ValueError("strong inversions have order 2")
        if lift_sign not in (1, -1):
            raise ValueError("lift_sign must be +1 or -1 (no auto mode)")
        index(order)  # TypeError unless order is an integer
        # vertex_perm^order is the identity iff every cycle length
        # divides order
        if any(order % length for length in _cycle_lengths(perm)):
            raise ValueError("vertex_perm^order is not the identity")
        object.__setattr__(self, "vertex_perm", perm)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "lift_sign", lift_sign)


@dataclass(frozen=True)
class LatticeIsometry:
    """An integer matrix of finite multiplicative order preserving a
    Gram lattice (R^T G R = G)."""

    matrix: Matrix
    order: int

    def negated(self) -> "LatticeIsometry":
        neg = tuple([tuple([-x for x in row]) for row in self.matrix])
        # (-R)^(2*order) = R^(2*order) = I
        return LatticeIsometry(neg, _matrix_order(_rows(neg), 2 * self.order))


def _cycle_lengths(perm: Sequence[int]) -> list[int]:
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        length, i = 0, start
        while not seen[i]:
            seen[i] = True
            i = perm[i]
            length += 1
        if length:
            lengths.append(length)
    return lengths


def _mat_pow(R: Rows, e: int) -> Rows:
    """R^e for e >= 1, by repeated squaring on sparse rows."""
    out = None
    while True:
        if e & 1:
            out = R if out is None else _row_mul(out, R)
        e >>= 1
        if not e:
            return out
        R = _row_mul(R, R)


def _matrix_order(R: Rows, exponent: int) -> int:
    """The multiplicative order of the matrix with sparse rows R: the
    least divisor d of exponent with R^d = I. Raises ValueError when
    R^exponent is not I."""
    I = [{i: 1} for i in range(len(R))]
    small = [d for d in range(1, isqrt(exponent) + 1) if exponent % d == 0]
    for d in small + [exponent // d for d in reversed(small)
                      if d * d != exponent]:
        if _mat_pow(R, d) == I:
            return d
    raise ValueError("matrix power is not the identity")


def is_automorphism(g: CheckerboardGraph, perm: Sequence[int]) -> bool:
    """Does perm preserve the weighted edge multiset of g?"""
    if sorted(perm) != list(range(g.vertex_count)):
        return False
    orig = Counter((min(u, v), max(u, v), w) for u, v, w in g.edges)
    mapped = Counter((min(perm[u], perm[v]), max(perm[u], perm[v]), w)
                     for u, v, w in g.edges)
    return orig == mapped


def gl_full_form(g: CheckerboardGraph) -> GramLattice:
    """The Gordon-Litherland pairing on Z<v_1,...,v_n>, rank n.

    Diagonal entries are the derived vertex weights; off-diagonal entries
    sum the weights of connecting edges. Every row sums to zero since
    v_1 + ... + v_n lies in the radical.
    """
    n = g.vertex_count
    M = [[0] * n for _ in range(n)]
    for u, v, w in g.edges:
        M[u][v] += w
        M[v][u] += w
        M[u][u] -= w
        M[v][v] -= w
    return GramLattice(M)


def gl_lattice(g: CheckerboardGraph,
               dropped_vertex: Optional[int] = None) -> GramLattice:
    """The Gordon-Litherland lattice on H_1 of the checkerboard surface:
    the full form with one vertex's row and column deleted. Rank n-1."""
    n = g.vertex_count
    if dropped_vertex is None:
        dropped_vertex = n - 1
    if not (0 <= dropped_vertex < n):
        raise ValueError("dropped_vertex out of range")
    full = gl_full_form(g).gram
    keep = [i for i in range(n) if i != dropped_vertex]
    return GramLattice([[full[i][j] for j in keep] for i in keep])


def induced_isometry(g: CheckerboardGraph, s: SymmetrySpec,
                     dropped_vertex: Optional[int] = None) -> LatticeIsometry:
    """The action of the symmetry on the quotient lattice, times lift_sign.

    In the basis {v_i : i != dropped}, v_i maps to eps*v_{perm(i)}, with the
    dropped class rewritten as minus the sum of the kept generators. The
    reported order is the exact multiplicative order of the matrix, which
    for lift_sign = -1 can differ from the symmetry's order.
    """
    n = g.vertex_count
    if dropped_vertex is None:
        dropped_vertex = n - 1
    perm = s.vertex_perm
    if len(perm) != n:
        raise ValueError("permutation length does not match vertex count")
    if not is_automorphism(g, perm):
        raise ValueError("vertex_perm is not a weighted-graph automorphism")
    keep = [i for i in range(n) if i != dropped_vertex]
    pos = {v: idx for idx, v in enumerate(keep)}
    m = n - 1
    eps = s.lift_sign
    cols = []
    for i in keep:
        img = perm[i]
        col = [0] * m
        if img == dropped_vertex:
            for j in range(m):
                col[j] = -eps
        else:
            col[pos[img]] = eps
        cols.append(col)
    R = tuple([tuple([col[i] for col in cols]) for i in range(m)])
    Rr, Gr = _rows(R), _rows(gl_lattice(g, dropped_vertex).gram)
    # the columns of R are the rows of R^T
    if _row_mul(_row_mul(_rows(cols), Gr), Rr) != Gr:
        raise ValueError("induced map does not preserve the form")
    # R is eps times the action of perm, a homomorphism, so
    # R^(2L) = I for L the order of perm (the lcm of its cycle lengths)
    return LatticeIsometry(R, _matrix_order(
        Rr, 2 * lcm(*_cycle_lengths(perm))))


def knot_signature(g: CheckerboardGraph, positive_crossings: int) -> int:
    """Signature via the Gordon-Litherland formula:
    sigma(K) = sigma(GL lattice) - (number of positive crossings)."""
    if positive_crossings < 0:
        raise ValueError("positive_crossings must be non-negative")
    if positive_crossings > len(g.edges):
        raise ValueError("positive_crossings exceeds crossing count")
    return signature(gl_lattice(g)).sigma - positive_crossings
