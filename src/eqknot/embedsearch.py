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
from .lattice import (GramLattice, Matrix, _as_matrix, _Frozen, _ints,
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
        if not all(map(_ints, rows)):
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
        if not _ints(perm + signs):
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
    multiplicities mu_r: the orbit of `rows` under Aut(Z^k, Id), with
    k!/z! as the product of the top k - z factors of k!."""
    nonzero = [r for r in rows if any(r)]
    size = math.perm(len(rows), len(nonzero)) << len(nonzero)
    for r in set(nonzero):
        size //= math.factorial(nonzero.count(r))
    return size


def _first_columns(norm: int, n: int) -> list[tuple[int, ...]]:
    """The canonical first columns of norm `norm` in Z^n, in lexicographic
    order: (-a_1, ..., -a_t, 0, ..., 0) with a_1 >= ... >= a_t > 0 and
    a_1^2 + ... + a_t^2 = norm, one per partition of norm into squares."""
    out: list[tuple[int, ...]] = []
    parts: list[int] = []

    def rec(rem: int, top: int):
        if rem == 0:
            out.append(tuple(parts) + (0,) * (n - len(parts)))
            return
        slots = n - len(parts)
        for a in range(min(top, math.isqrt(rem)), 0, -1):
            if a * a * slots < rem:
                break
            parts.append(-a)
            rec(rem - a * a, a)
            parts.pop()

    rec(norm, norm)
    return out


def _seeded(v: tuple[int, ...], norm: int, product: int,
            tails: dict[tuple[int, int], list[tuple[int, ...]]]
            ) -> list[tuple[int, ...]]:
    """All w with w.w = norm and w.v = product, for v whose nonzero
    entries come first: a coordinate search over the support of v, kept
    to (product - partial)^2 <= (norm left) * (norm of v left) by
    Cauchy-Schwarz, then every vector of the norm left on the rest.
    `tails` caches those last vectors by (length, norm) across calls."""
    t = len(v)
    while t and v[t - 1] == 0:
        t -= 1
    rest = [0] * (t + 1)
    for i in range(t - 1, -1, -1):
        rest[i] = rest[i + 1] + v[i] * v[i]
    out: list[tuple[int, ...]] = []
    prefix = [0] * t
    size = len(v) - t

    def rec(i: int, rem: int, need: int):
        if i == t:
            if (size, rem) not in tails:
                tails[size, rem] = enumerate_vectors(size, rem)
            head = tuple(prefix)
            out.extend([head + tail for tail in tails[size, rem]])
            return
        b = math.isqrt(rem)
        x_i, r = v[i], rest[i + 1]
        for x in range(-b, b + 1):
            left = need - x * x_i
            if left * left <= (rem - x * x) * r:
                prefix[i] = x
                rec(i + 1, rem - x * x, left)

    rec(0, norm, product)
    return out


def enumerate_embeddings(G: GramLattice | Sequence[Sequence[int]],
                         k: int) -> EmbeddingSet:
    """The integer matrices E with E^T E = G, G positive definite, as an
    `EmbeddingSet`: one canonical representative per Aut(Z^k, Id) class,
    with its orbit size.

    Orderly generation: only canonical matrices are built, i.e. those
    whose rows are sorted and each lexicographically at most its negation
    (the fixed points of `canonical_form`), so each class is found once.
    The norm G[j][j] of column j is the sum of the squares of its
    entries, so E has at most tr(G) nonzero rows, and canonical rows put
    them first: the search runs in Z^n, n = min(k, tr(G)), and pads with
    zero rows. As G has rank m, E has at least m nonzero rows, so there
    is no embedding when n < m; when n = m those rows form a square E'
    with det G = det(E')^2, so there is none when det G (kept by
    `signature`) is not a square. Both cases return before any search.
    It places the column of largest norm first (the lowest index on
    ties) and the others in their given order. The canonical
    candidates for that first column are the partitions of its norm into
    squares, (-a_1, ..., -a_t, 0, ..., 0) with a_1 >= ... >= a_t > 0.
    Each such vector v seeds one list of live candidates per later
    column t, every w with w.w = G[t][t] and w.v = G[first][t], built
    directly (`_seeded`). From there the search is depth-first over
    columns. Rows with equal prefixes so far form blocks, and a column is
    admissible only if it is nondecreasing inside every block and <= 0 on
    the rows whose prefix is all zero (always the last block). Placing v
    in column j keeps in each later list t only the w with
    v . w = G[j][t], and the node is pruned when one list is empty. Each
    class found is mapped back to the given column order through
    `canonical_form`, and its orbit size in Z^k comes from a closed
    formula (`_orbit_size`).
    """
    if not isinstance(G, GramLattice):
        G = GramLattice(G)
    if not is_positive_definite(G):
        raise ValueError("embedding target (Z^k, Id) requires a positive "
                         "definite source form")
    g = G.gram
    m = G.rank
    if m == 0:
        return EmbeddingSet([(Embedding(k, ((),) * k), 1)])
    n = min(k, sum(g[j][j] for j in range(m)))
    if n < m or (n == m and math.isqrt(G._det) ** 2 != G._det):
        return EmbeddingSet([])
    first = max(range(m), key=lambda j: g[j][j])
    order = [first] + [j for j in range(m) if j != first]
    gp = [[g[a][b] for b in order] for a in order]
    found: list[Matrix] = []
    cols: list[tuple[int, ...]] = []

    def dfs(j: int, live: tuple[list[tuple[int, ...]], ...], same: list[int],
            zero: int):
        # live[i]: the candidates left for column j + i;
        # same: the rows i whose prefix equals that of row i - 1;
        # zero: the first row whose prefix is all zero (n if none)
        if j == m:
            found.append(tuple(zip(*cols)))
            return
        for v in live[0]:
            if (zero < n and v[-1] > 0) or any(v[i - 1] > v[i] for i in same):
                continue
            nxt = tuple([w for w in cand if sum(map(mul, v, w)) == product]
                        for cand, product in zip(live[1:], gp[j][j + 1:]))
            if not all(nxt):
                continue
            nz = n
            while nz > zero and v[nz - 1] == 0:
                nz -= 1
            cols.append(v)
            dfs(j + 1, nxt, [i for i in same if v[i - 1] == v[i]], nz)
            cols.pop()

    # (norm, inner product with the first column) of each later column;
    # columns that share both share one seeded list
    later = [(gp[t][t], gp[0][t]) for t in range(1, m)]
    tails: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for v in _first_columns(gp[0][0], n):
        seeded = {key: _seeded(v, *key, tails)
                  for key in dict.fromkeys(later)}
        live = tuple(seeded[key] for key in later)
        if all(live):
            cols.append(v)
            dfs(1, live, [i for i in range(1, n) if v[i - 1] == v[i]],
                n - v.count(0))
            cols.pop()

    back = [order.index(j) for j in range(m)]
    pad = ((0,) * m,) * (k - n)
    classes: list[tuple[Embedding, int]] = []
    for rows in found:
        E = Embedding(k, tuple([tuple([r[i] for i in back]) for r in rows])
                      + pad)
        if first:
            E = canonical_form(E)
        classes.append((E, _orbit_size(E.matrix)))
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


def _order_points(d: int, cap: int) -> int:
    """The smaller of cap and the points enough for a signed permutation
    of any order dividing d: a p^a-cycle for each power p^a of an odd
    prime that exactly divides d, and for 2^a a 2^(a-1)-cycle with sign
    product -1. The sum of these is at most d. Trial division stops once
    the sum reaches cap or the divisor passes it, since every prime power
    left is then larger than cap, so a huge d costs O(min(cap, sqrt d))."""
    points, p = 0, 2
    while p * p <= d:
        if points >= cap or p > cap:
            return cap
        q = 1
        while d % p == 0:
            d, q = d // p, q * p
        if q > 1:
            points += q // 2 if p == 2 else q
        p += 1
    if d > 1:
        points += 1 if d == 2 else d
    return min(points, cap)


def equivariant_delta(E: Embedding, R: LatticeIsometry | Sequence[Sequence[int]],
                      required_order: int) -> Optional[SignedPermutation]:
    """A signed permutation P with P.E = E.R of exact multiplicative order
    required_order, or None.

    Each row i of P must send some row of E to row i of E.R up to sign.
    The z zero rows of E are zero in E.R too, and P permutes them freely,
    with free signs; they meet the rest only through the order,
    lcm(order on the nonzero rows, order on the zero rows). That second
    order divides required_order, so `_order_points(required_order, z)`
    of them can carry it. The search backtracks only over the last f of
    the z zero rows, f that number, subject to the order
    condition, and fixes the others with sign +1. It meets the rows in
    the order that a search over all z zero rows would, so it returns the
    same P.
    """
    Rm = _as_matrix(R)
    m = E.source_rank
    if len(Rm) != m or any(len(row) != m for row in Rm):
        raise ValueError("isometry dimension does not match embedding source")
    k = E.k
    T = mat_mul(E.matrix, Rm)
    zero = [j for j, row in enumerate(E.matrix) if not any(row)]
    free = zero[len(zero) - _order_points(required_order, len(zero)):]
    fixed = set(zero[:len(zero) - len(free)])
    # candidates[i]: list of (j, sign) with sign*E_row[j] == T_row[i];
    # width[i]: their number, counting all z zero rows for a zero T_row[i]
    row_index: dict[tuple[int, ...], list[int]] = {}
    for j, row in enumerate(E.matrix):
        row_index.setdefault(row, []).append(j)
    candidates: dict[int, list[tuple[int, int]]] = {}
    width: dict[int, int] = {}
    for i in range(k):
        if i in fixed:
            continue
        t = T[i]
        if any(t):
            opts = [(j, 1) for j in row_index.get(t, [])]
            neg = tuple(-x for x in t)
            opts.extend((j, -1) for j in row_index.get(neg, []))
            width[i] = len(opts)
        else:
            opts = [(j, s) for j in free for s in (1, -1)]
            width[i] = 2 * len(zero)
        if not opts:
            return None
        candidates[i] = opts

    perm = list(range(k))
    signs = [1] * k
    used = [False] * k
    order_rows = sorted(candidates, key=width.__getitem__)
    last = len(order_rows)

    def search(pos: int) -> Optional[SignedPermutation]:
        if pos == last:
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
