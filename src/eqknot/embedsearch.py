"""Isometric embeddings into the diagonal lattice (Z^k, Id) and the
equivariant automorphism search.

The obstruction: if the equivariant 4-genus equals -sigma/2 then the
Gordon-Litherland lattice embeds into (Z^k, Id), k = -sigma + b_1, with a
signed permutation delta of the ambient lattice satisfying
delta . iota = iota . rho_* and order(delta) = order(rho). Exhausting all
embedding classes and finding no such delta obstructs the genus value.
"""

from __future__ import annotations

import math
from math import lcm
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .checkerboard import LatticeIsometry
from .lattice import (GramLattice, Matrix, _as_matrix, _Frozen,
                      is_positive_definite, mat_mul)


class Embedding(_Frozen):
    """A k x m integer matrix E with E^T E = G, its entries ints (not
    bools); column j is the image of the j-th basis vector of the source
    lattice."""

    __slots__ = _fields = ("k", "matrix")

    def __init__(self, k: int, matrix: Sequence[Sequence[int]]):
        rows = tuple([tuple(row) for row in matrix])
        if len(rows) != k:
            raise ValueError("embedding matrix must have k rows")
        if not all(type(x) is int for row in rows for x in row):
            raise ValueError("embedding entries must be ints")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "matrix", rows)

    @property
    def source_rank(self) -> int:
        return len(self.matrix[0]) if self.k else 0


class SignedPermutation(_Frozen):
    """An automorphism of (Z^k, Id): e_{perm[i]} |-> signs[i] * e_i, with
    perm and signs ints (not bools)."""

    __slots__ = _fields = ("perm", "signs")

    def __init__(self, perm: Sequence[int], signs: Sequence[int]):
        perm = tuple(perm)
        signs = tuple(signs)
        if any(type(x) is not int for x in perm + signs):
            raise ValueError("perm and signs must be ints")
        if sorted(perm) != list(range(len(perm))):
            raise ValueError("not a permutation")
        if len(signs) != len(perm) or any(s not in (1, -1) for s in signs):
            raise ValueError("signs must be +/-1 of matching length")
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "signs", signs)

    @property
    def k(self) -> int:
        return len(self.perm)

    def order(self) -> int:
        """Exact multiplicative order, from cycle lengths and the product
        of signs around each cycle."""
        seen = [False] * self.k
        out = 1
        for start in range(self.k):
            if seen[start]:
                continue
            length, sign_prod, i = 0, 1, start
            while not seen[i]:
                seen[i] = True
                sign_prod *= self.signs[i]
                i = self.perm[i]
                length += 1
            out = lcm(out, length if sign_prod == 1 else 2 * length)
        return out


class ObstructionReport(NamedTuple):
    k: int
    class_count: int
    per_class: tuple[tuple[Embedding, Optional[SignedPermutation]], ...]
    obstructed: bool
    conclusion: str


def enumerate_vectors(k: int, norm: int) -> list[tuple[int, ...]]:
    """All v in Z^k with v.v = norm, in lexicographic order."""
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return [()] if norm == 0 else []
    out: list[tuple[int, ...]] = []
    prefix = [0] * k
    last = k - 1

    def rec(i: int, rem: int):
        b = math.isqrt(rem)
        if i == last:
            # the last coordinate is -b or b, and only if rem is a square
            if b * b == rem:
                for x in ((-b, b) if b else (0,)):
                    prefix[i] = x
                    out.append(tuple(prefix))
                prefix[i] = 0
            return
        for x in range(-b, b + 1):
            prefix[i] = x
            rec(i + 1, rem - x * x)
        prefix[i] = 0

    rec(0, norm)
    return out


class EmbeddingSet:
    """The embeddings of a lattice into (Z^k, Id), held as their classes
    under Aut(Z^k, Id) and a count.

    `classes` holds (canonical representative, orbit size) pairs sorted
    by representative. `count` is the sum of the orbit sizes, the number
    of embeddings; no embedding outside the representatives is built.
    len() gives the same number but, like every len(), raises
    OverflowError above sys.maxsize (k!·2^k already passes it at k = 17),
    so callers read `count`.
    """

    def __init__(self, classes: Sequence[tuple[Embedding, int]]):
        self.classes = tuple(classes)
        self.count = sum(size for _, size in self.classes)

    # kept for perfbench/tracing.py's embedding counter (ROADMAP item 4)
    def __len__(self) -> int:
        return self.count


def _orbit_size(rows: Matrix) -> int:
    """k!/(z! prod mu_r!) * 2^(k - z) for z zero rows and nonzero rows of
    multiplicities mu_r: the orbit of `rows` under Aut(Z^k, Id)."""
    k = len(rows)
    zero = sum(1 for r in rows if not any(r))
    size = math.factorial(k) << (k - zero)
    for r in set(rows):
        size //= math.factorial(rows.count(r))
    return size


def enumerate_embeddings(G: GramLattice | Sequence[Sequence[int]],
                         k: int) -> EmbeddingSet:
    """The integer matrices E with E^T E = G, G positive definite, as an
    `EmbeddingSet`: one canonical representative per Aut(Z^k, Id) class,
    with its orbit size.

    Orderly generation: only canonical matrices are built, i.e. those
    whose rows are sorted and each lexicographically at most its negation
    (the fixed points of `canonical_form`), so each class is found once.
    Depth-first over columns: column j starts from the norm-G[j][j]
    vectors of Z^k, built once per distinct norm. Rows with equal
    prefixes so far form blocks, and a column is admissible only if it
    is nondecreasing inside every block and <= 0 on the rows whose prefix
    is all zero (always the last block). The search keeps one list of
    live candidates per later column, in pool order. Placing v in column
    j keeps in each later list t only the w with v . w = G[j][t], and the
    node is pruned when one list is empty. Orbit sizes come from a closed
    formula (`_orbit_size`).
    """
    if not isinstance(G, GramLattice):
        G = GramLattice(G)
    if not is_positive_definite(G):
        raise ValueError("embedding target (Z^k, Id) requires a positive "
                         "definite source form")
    g = G.gram
    m = G.rank
    by_norm = {x: enumerate_vectors(k, x)
               for x in dict.fromkeys(g[j][j] for j in range(m))}
    classes: list[tuple[Embedding, int]] = []
    cols: list[tuple[int, ...]] = []

    def dfs(j: int, live: tuple[list[tuple[int, ...]], ...], same: list[int],
            zero: int):
        # live[i]: the candidates left for column j + i, in pool order;
        # same: the rows i whose prefix equals that of row i - 1;
        # zero: the first row whose prefix is all zero (k if none)
        if j == m:
            rows = tuple(zip(*cols)) if cols else ((),) * k
            classes.append((Embedding(k, rows), _orbit_size(rows)))
            return
        for v in live[0]:
            if (zero < k and v[-1] > 0) or any(v[i - 1] > v[i] for i in same):
                continue
            nxt = tuple([w for w in cand if sum(map(mul, v, w)) == product]
                        for cand, product in zip(live[1:], g[j][j + 1:]))
            if not all(nxt):
                continue
            nz = k
            while nz > zero and v[nz - 1] == 0:
                nz -= 1
            cols.append(v)
            dfs(j + 1, nxt, [i for i in same if v[i - 1] == v[i]], nz)
            cols.pop()

    dfs(0, tuple(by_norm[g[j][j]] for j in range(m)), list(range(1, k)), 0)
    classes.sort(key=lambda c: c[0].matrix)
    return EmbeddingSet(classes)


def _normalize_row(row: tuple[int, ...]) -> tuple[int, ...]:
    neg = tuple(-x for x in row)
    return row if row <= neg else neg


def canonical_form(E: Embedding) -> Embedding:
    """The lexicographically smallest (row-major) matrix in the orbit of E
    under row permutations and row negations, i.e. under Aut(Z^k, Id).

    Rows are compared independently in the row-major order, so the minimum
    is achieved by sign-normalizing each row and sorting. Idempotent.
    """
    rows = sorted(_normalize_row(r) for r in E.matrix)
    return Embedding(E.k, rows)


# kept for perfbench/tracing.py, which expects its span, until the class
# counter moves there (ROADMAP item 4)
def orbit_classes(embeddings: EmbeddingSet) -> list[tuple[Embedding, int]]:
    """The Aut(Z^k, Id) classes of an `EmbeddingSet`: (canonical
    representative, orbit size) pairs sorted by representative."""
    return list(embeddings.classes)


def equivariant_delta(E: Embedding, R: LatticeIsometry | Sequence[Sequence[int]],
                      required_order: int) -> Optional[SignedPermutation]:
    """A signed permutation P with P.E = E.R of exact multiplicative order
    required_order, or None.

    Each row i of P must send some row of E to row i of E.R up to sign;
    zero rows of E.R are matched by zero rows of E with a free sign, and
    the search backtracks over those subject only to the order condition.
    """
    Rm = _as_matrix(R)
    m = E.source_rank
    if len(Rm) != m or any(len(row) != m for row in Rm):
        raise ValueError("isometry dimension does not match embedding source")
    k = E.k
    T = mat_mul(E.matrix, Rm)
    # candidates[i]: list of (j, sign) with sign*E_row[j] == T_row[i]
    row_index: dict[tuple[int, ...], list[int]] = {}
    for j, row in enumerate(E.matrix):
        row_index.setdefault(row, []).append(j)
    candidates: list[list[tuple[int, int]]] = []
    for i in range(k):
        t = T[i]
        opts = []
        if all(x == 0 for x in t):
            for j in row_index.get(t, []):
                opts.extend([(j, 1), (j, -1)])
        else:
            for j in row_index.get(t, []):
                opts.append((j, 1))
            neg = tuple(-x for x in t)
            for j in row_index.get(neg, []):
                opts.append((j, -1))
        if not opts:
            return None
        candidates.append(opts)

    perm = [-1] * k
    signs = [0] * k
    used = [False] * k
    order_rows = sorted(range(k), key=lambda i: len(candidates[i]))

    def search(pos: int) -> Optional[SignedPermutation]:
        if pos == k:
            P = SignedPermutation(tuple(perm), tuple(signs))
            return P if P.order() == required_order else None
        i = order_rows[pos]
        for j, s in candidates[i]:
            if used[j]:
                continue
            used[j] = True
            perm[i], signs[i] = j, s
            hit = search(pos + 1)
            if hit is not None:
                return hit
            used[j] = False
        perm[i], signs[i] = -1, 0
        return None

    return search(0)


def donaldson_obstruction(G: GramLattice | Sequence[Sequence[int]],
                          R: LatticeIsometry,
                          sigma_K: int,
                          order: int,
                          sign_mode: str = "strict") -> ObstructionReport:
    """Decide the equivariant embedding obstruction.

    Sets k = -sigma_K + rank(G), enumerates all embedding classes into
    (Z^k, Id), and searches each class representative for a delta of exact
    order `order` intertwining R. With sign_mode="both", -R is also tried,
    so "obstructed" is only reported when both sign conventions fail.
    """
    if not isinstance(G, GramLattice):
        G = GramLattice(G)
    if sigma_K > 0:
        raise ValueError("stated for sigma(K) <= 0; mirror the knot first")
    if sigma_K % 2 != 0:
        raise ValueError("-sigma(K) must be even")
    if sign_mode not in ("strict", "both"):
        raise ValueError("sign_mode must be 'strict' or 'both'")
    k = -sigma_K + G.rank
    embeddings = enumerate_embeddings(G, k)
    classes = orbit_classes(embeddings)
    per_class = []
    any_delta = False
    minus_R = (tuple([tuple([-x for x in row]) for row in R.matrix])
               if sign_mode == "both" else None)
    for rep, _size in classes:
        delta = equivariant_delta(rep, R, order)
        if delta is None and minus_R is not None:
            delta = equivariant_delta(rep, minus_R, order)
        per_class.append((rep, delta))
        any_delta = any_delta or delta is not None
    obstructed = not any_delta
    if obstructed:
        conclusion = (f"no equivariant embedding into (Z^{k}, Id): "
                      f"equivariant 4-genus > {-sigma_K // 2}")
    else:
        conclusion = (f"equivariant embedding exists into (Z^{k}, Id): "
                      "no obstruction")
    return ObstructionReport(k=k, class_count=len(classes),
                             per_class=tuple(per_class),
                             obstructed=obstructed, conclusion=conclusion)
