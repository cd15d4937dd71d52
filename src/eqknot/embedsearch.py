"""Isometric embeddings into the diagonal lattice (Z^k, Id) and the
equivariant automorphism of each embedding class.

The obstruction: if the equivariant 4-genus equals -sigma/2 then the
Gordon-Litherland lattice embeds into (Z^k, Id), k = -sigma + b_1, with a
signed permutation delta of the ambient lattice satisfying
delta . iota = iota . R and delta^n = I, for R a lift of the order-n
symmetry to the lattice. Exhausting all embedding classes and finding no
such delta obstructs the genus value. A class has at most tr G nonzero
rows whatever k is, and is held as those rows alone (`Embedding`); every
other row is zero and fixed by delta, so only the printer in `cli`
writes them. delta^n = I needs R^n = I, read off each lift's order
once. Then delta is built, not searched for: R maps each class of
nonzero rows equal up to sign into one class, and delta exists iff that
map is a bijection that keeps the class sizes (`equivariant_delta`).
"""

from __future__ import annotations

import math
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .checkerboard import LatticeIsometry
from .lattice import (GramLattice, HypothesisError, InputError, Matrix,
                      _as_matrix, _freeze, _Frozen, _gram, _ints,
                      is_positive_definite, mat_mul)


class Embedding(_Frozen):
    """A k x m integer matrix E with E^T E = G, held as its nonzero rows:
    `rows` are rows 0..len(rows)-1 of E, ints (not bools), and rows
    len(rows)..k-1 are implied zero, so a class costs its at most tr G
    nonzero rows whatever k is. Column j is the image of the j-th basis
    vector of the source lattice; with no rows, the source has rank 0."""

    __slots__ = _fields = ("k", "rows")

    def __init__(self, k: int, rows: Sequence[Sequence[int]]):
        rows = _freeze(rows)
        if len(rows) > k:
            raise ValueError("embedding has more than k rows")
        if not all(map(any, rows)):
            raise ValueError("embedding rows must be nonzero")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "rows", rows)

    @property
    def source_rank(self) -> int:
        return len(self.rows[0]) if self.rows else 0


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


def _orbit_size(E: Embedding) -> int:
    """k!/(z! prod mu_r!) * 2^(k - z) for z = k - len(E.rows) zero rows
    and nonzero rows of multiplicities mu_r: the orbit of E under
    Aut(Z^k, Id), with k!/z! as the product of the top k - z factors of
    k!."""
    rows = E.rows
    size = math.perm(E.k, len(rows)) << len(rows)
    for r in set(rows):
        size //= math.factorial(rows.count(r))
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
    them first: the search runs in Z^n, n = min(k, tr(G)), and keeps the
    nonzero rows of each class, so k enters only its orbit size. As G has
    rank m, E has at least m nonzero rows, so there is no embedding when
    n < m; when n = m those rows form a square E' with det G = det(E')^2,
    so there is none when det G (kept by `signature`) is not a square.
    Both cases return before any search.
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
    if k < 0:
        raise InputError("SCHEMA", "k must be >= 0")
    G = _gram(G)
    if not is_positive_definite(G):
        raise HypothesisError("NOT_DEFINITE", "form is not positive definite")
    g = G.gram
    m = G.rank
    if m == 0:
        return EmbeddingSet([(Embedding(k, ()), 1)])
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
            found.append(tuple(zip(*cols))[:zero])
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
    classes: list[tuple[Embedding, int]] = []
    for rows in found:
        E = Embedding(k, [tuple([r[i] for i in back]) for r in rows])
        if first:
            E = canonical_form(E)
        classes.append((E, _orbit_size(E)))
    # sorting by the nonzero rows gives the order of the k-row matrices:
    # neither class's rows are a proper prefix of the other's, since the
    # rows past it would have sum r^T r = G - G = 0
    classes.sort(key=lambda c: c[0].rows)
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
    return Embedding(E.k, sorted(_normalize_row(r) for r in E.rows))


# kept for perfbench/tracing.py, which expects its span, until the class
# counter moves there (ROADMAP item 4)
def orbit_classes(embeddings: EmbeddingSet) -> list[tuple[Embedding, int]]:
    """The Aut(Z^k, Id) classes of an `EmbeddingSet`: (canonical
    representative, orbit size) pairs sorted by representative."""
    return list(embeddings.classes)


def equivariant_delta(E: Embedding,
                      R: LatticeIsometry | Sequence[Sequence[int]]
                      ) -> Optional[SignedPermutation]:
    """A signed permutation P with P.E = E.R, or None. P is returned on
    the nonzero rows of E, a `SignedPermutation` of length len(E.rows);
    on (Z^k, Id) it also fixes each implied zero row with sign +1.

    Row i of P must send some row of E to row i of T = E.R up to sign.
    Group the nonzero rows of E into classes of rows equal up to sign: T
    maps each class into one class, its image. So a P exists only if
    every image is a nonzero class of the same size and distinct classes
    have distinct images, which also rules out a singular R. Then P
    matches the a-th row of each class to the a-th row of its image,
    with the sign that makes the two rows equal. On sign-normalised rows,
    as in every canonical representative, the matching is the first leaf
    of a backtracking that gives each row, in index order, the first
    unused row of its image.
    """
    Rm = _as_matrix(R)
    m = E.source_rank
    if len(Rm) != m or any(len(row) != m for row in Rm):
        raise ValueError("isometry dimension does not match embedding source")
    T = mat_mul(E.rows, Rm)
    classes: dict[tuple[int, ...], list[int]] = {}
    for i, row in enumerate(E.rows):
        classes.setdefault(_normalize_row(row), []).append(i)
    perm = [0] * len(E.rows)
    signs = [1] * len(E.rows)
    images = set()
    for rows in classes.values():
        image = _normalize_row(T[rows[0]])
        if len(classes.get(image, ())) != len(rows) or image in images:
            return None
        images.add(image)
        for i, j in zip(rows, classes[image]):
            perm[i] = j
            signs[i] = 1 if T[i] == E.rows[j] else -1
    return SignedPermutation(perm, signs)


def donaldson_obstruction(G: GramLattice | Sequence[Sequence[int]],
                          lifts: Sequence[LatticeIsometry],
                          sigma_K: int,
                          order: int) -> ObstructionReport:
    """Decide the equivariant embedding obstruction.

    Sets k = -sigma_K + rank(G), enumerates all embedding classes into
    (Z^k, Id), and gives each class the delta of `equivariant_delta` for
    the first lift R in `lifts` with R^n = I, n = order, that has one.
    R^n = I, read off R.order, decides delta^n = I: delta^n.E = E.R^n
    and E has full column rank, so delta^n = I forces R^n = I; where
    R^n = I, an orbit of l row classes whose signs multiply to S has
    l | n and S^(n/l) = 1 (v.R^n = v), and the matching runs through it
    in cycles of length l and sign S, so delta^n = I.

    A found delta proves that its R preserves G: R^T G R = R^T E^T E R =
    E^T delta^T delta E = E^T E = G. An "obstructed" verdict finds none,
    so it first checks R^T G R = G for each kept lift and raises
    ValueError on one that fails.
    """
    G = _gram(G)
    if sigma_K > 0:
        raise HypothesisError("POSITIVE_SIGMA", "stated for sigma(K) <= 0; "
                              "mirror the knot first")
    if sigma_K % 2 != 0:
        raise ValueError("-sigma(K) must be even")
    if not lifts:
        raise ValueError("need at least one lift")
    k = -sigma_K + G.rank
    embeddings = enumerate_embeddings(G, k)
    classes = orbit_classes(embeddings)
    kept = [R for R in lifts if order % R.order == 0]
    per_class = []
    for rep, _size in classes:
        deltas = (equivariant_delta(rep, R) for R in kept)
        per_class.append((rep, next(filter(None, deltas), None)))
    obstructed = all(d is None for _, d in per_class)
    if obstructed:
        for R in kept:
            Rm = _as_matrix(R)
            if (len(Rm) != G.rank or any(len(row) != G.rank for row in Rm)
                    or mat_mul(tuple(zip(*Rm)), mat_mul(G.gram, Rm))
                    != G.gram):
                raise ValueError("lift does not preserve the form")
        conclusion = (f"no equivariant embedding into (Z^{k}, Id): "
                      f"equivariant 4-genus > {-sigma_K // 2}")
    else:
        conclusion = (f"equivariant embedding exists into (Z^{k}, Id): "
                      "no obstruction")
    return ObstructionReport(k=k, class_count=len(classes),
                             per_class=tuple(per_class),
                             obstructed=obstructed, conclusion=conclusion)
