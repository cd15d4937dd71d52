"""Gordon-Litherland lattices from signed checkerboard graphs.

A checkerboard graph is a connected signed multigraph on the white regions
of a diagram; each crossing between two distinct white regions contributes
an edge of weight +1 (right half-twist) or -1 (left half-twist). Vertex
weights are always derived as minus the sum of incident edge weights.
"""

from __future__ import annotations

from math import lcm
from operator import index
from typing import NamedTuple, Optional, Sequence

from .lattice import (GramLattice, InputError, Matrix, _Frozen, _ints,
                      signature)


class CheckerboardGraph(_Frozen):
    """A connected signed multigraph: vertices 0..vertex_count-1 and edges
    (u, v, w) with u != v and weight w = +1 or -1, all ints (not bools).
    `gl_lattice` keeps the lattices it builds in the private slot `_gl`,
    by dropped vertex, so their kept inertia is shared."""

    __slots__ = ("vertex_count", "edges", "name", "_gl")
    _fields = ("vertex_count", "edges", "name")

    def __init__(self, vertex_count: int, edges: Sequence[Sequence[int]],
                 name: Optional[str] = None):
        if vertex_count < 1:
            raise ValueError("graph needs at least one vertex")
        if type(vertex_count) is not int:
            raise TypeError(f"vertex count must be an integer: "
                            f"{vertex_count!r}")
        frozen = []
        for e in edges:
            u, v, w = e
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge endpoint out of range: {e}")
            if type(u) is not int or type(v) is not int:
                raise TypeError(f"edge endpoint must be an integer: {e}")
            if u == v:
                raise InputError("LOOP_EDGE", f"loop edge not allowed: {e}")
            if type(w) is not int or w not in (1, -1):
                raise ValueError(f"edge weight must be +1 or -1: {e}")
            frozen.append((u, v, w))
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", tuple(frozen))
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_gl", {})
        if not self._connected():
            raise ValueError("checkerboard graph must be connected")

    def _connected(self) -> bool:
        n = self.vertex_count
        if len(self.edges) < n - 1:  # too few edges to span n vertices
            return False
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


class SymmetrySpec(_Frozen):
    """A symmetry of the diagram, given as a vertex permutation of the
    checkerboard graph.

    lift_sign is the sign relating the branched-cover action to the
    surface-level action: +1 for periodic symmetries; for strong inversions
    it depends on which half-axis the checkerboard surface contains, and
    must be supplied explicitly by the caller.
    """

    __slots__ = _fields = ("vertex_perm", "order", "kind", "lift_sign")

    def __init__(self, vertex_perm: Sequence[int], order: int,
                 kind: str = "strong_inversion", lift_sign: int = 1):
        perm = tuple(vertex_perm)
        if (sorted(perm) != list(range(len(perm)))
                or any(type(i) is not int for i in perm)):
            raise ValueError("vertex_perm is not a permutation")
        if kind not in ("periodic", "strong_inversion"):
            raise ValueError(f"unknown symmetry kind: {kind}")
        if order < 2:
            raise ValueError("symmetry order must be >= 2")
        if kind == "strong_inversion" and order != 2:
            raise ValueError("strong inversions have order 2")
        if type(lift_sign) is not int or lift_sign not in (1, -1):
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


class LatticeIsometry(NamedTuple):
    """An integer matrix of finite multiplicative order preserving a
    Gram lattice (R^T G R = G)."""

    matrix: Matrix
    order: int


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


def is_automorphism(g: CheckerboardGraph, perm: Sequence[int]) -> bool:
    """Does perm preserve the weighted edge multiset of g? Both multisets
    are compared as sorted lists of edges (u, v, w) with u < v."""
    if sorted(perm) != list(range(g.vertex_count)):
        return False
    orig = [(u, v, w) if u < v else (v, u, w) for u, v, w in g.edges]
    mapped = [(a, b, w) if (a := perm[u]) < (b := perm[v]) else (b, a, w)
              for u, v, w in g.edges]
    orig.sort()
    mapped.sort()
    return orig == mapped


def _gl_matrix(g: CheckerboardGraph) -> list[list[int]]:
    n = g.vertex_count
    M = [[0] * n for _ in range(n)]
    for u, v, w in g.edges:
        M[u][v] += w
        M[v][u] += w
        M[u][u] -= w
        M[v][v] -= w
    return M


def gl_full_form(g: CheckerboardGraph) -> GramLattice:
    """The Gordon-Litherland pairing on Z<v_1,...,v_n>, rank n.

    Diagonal entries are the derived vertex weights; off-diagonal entries
    sum the weights of connecting edges. Every row sums to zero since
    v_1 + ... + v_n lies in the radical.
    """
    return GramLattice(_gl_matrix(g))


def gl_lattice(g: CheckerboardGraph,
               dropped_vertex: Optional[int] = None) -> GramLattice:
    """The Gordon-Litherland lattice on H_1 of the checkerboard surface:
    the full form with one vertex's row and column deleted. Rank n-1.
    Built once per graph and dropped vertex (kept in `g._gl`)."""
    keep = _kept_vertices(g.vertex_count, dropped_vertex)
    dropped = g.vertex_count - 1 if dropped_vertex is None else dropped_vertex
    if dropped not in g._gl:
        full = _gl_matrix(g)
        g._gl[dropped] = GramLattice([[full[i][j] for j in keep]
                                      for i in keep])
    return g._gl[dropped]


def _kept_vertices(n: int, dropped_vertex: Optional[int]) -> list[int]:
    """The vertices other than the dropped one, by default the last."""
    if dropped_vertex is None:
        dropped_vertex = n - 1
    if not (_ints((dropped_vertex,)) and 0 <= dropped_vertex < n):
        raise InputError("SCHEMA", f"dropped_vertex out of range 0 to {n - 1}")
    return [i for i in range(n) if i != dropped_vertex]


def induced_isometry(g: CheckerboardGraph, s: SymmetrySpec,
                     dropped_vertex: Optional[int] = None) -> LatticeIsometry:
    """The action of the symmetry on the quotient lattice, times lift_sign.

    In the basis {v_i : i != dropped}, v_i maps to eps*v_{perm(i)}, with the
    dropped class rewritten as minus the sum of the kept generators. The
    reported order is the exact multiplicative order of the matrix, which
    for lift_sign = -1 can differ from the symmetry's order.

    That order is read off perm, with no matrix powers. R = eps*rho(perm)
    for rho the action on Z^n/<v_1 + ... + v_n>. When m = n-1 >= 2, a
    vector with at most two nonzero coordinates lies in that span only if
    it is 0, so rho(q) = I (each v_q(i) - v_i in the span) only for
    q = id, and rho(q) = -I (each v_q(i) + v_i in it) never: rho is
    faithful and no power of perm acts as -I. Hence R^d = I iff L | d and
    eps^d = 1, for L the lcm of perm's cycle lengths: the order is L, or
    2L when eps = -1 and L is odd. When m <= 1, R is () or ((+-1,),), of
    order 1 or 2.

    R^T G R = G holds without a check: perm preserves the weighted edges,
    so it preserves the full form M of `gl_full_form`; v_1 + ... + v_n
    lies in the radical of M, so the map eps*perm of the quotient by it
    preserves the form that M induces there, and G is that form's matrix
    in the basis of kept generators.
    """
    perm = s.vertex_perm
    if len(perm) != g.vertex_count:
        raise ValueError("permutation length does not match vertex count")
    if not is_automorphism(g, perm):
        raise ValueError("vertex_perm is not a weighted-graph automorphism")
    keep = _kept_vertices(g.vertex_count, dropped_vertex)
    pos = {v: idx for idx, v in enumerate(keep)}
    m = len(keep)
    eps = s.lift_sign
    cols = []
    for i in keep:
        img = perm[i]
        if img in pos:
            col = [0] * m
            col[pos[img]] = eps
        else:  # the dropped vertex
            col = [-eps] * m
        cols.append(col)
    R = tuple([tuple([col[i] for col in cols]) for i in range(m)])
    if m <= 1:
        return LatticeIsometry(R, 2 if R == ((-1,),) else 1)
    L = lcm(*_cycle_lengths(perm))
    return LatticeIsometry(R, L if eps == 1 or L % 2 == 0 else 2 * L)


def knot_signature(g: CheckerboardGraph, positive_crossings: int) -> int:
    """Signature via the Gordon-Litherland formula:
    sigma(K) = sigma(GL lattice) - (number of positive crossings)."""
    if not (_ints((positive_crossings,))
            and 0 <= positive_crossings <= len(g.edges)):
        raise InputError("SCHEMA", "'positive_crossings' must be an integer "
                         f"from 0 to {len(g.edges)}")
    return signature(gl_lattice(g)).sigma - positive_crossings
