"""Shared oracles and random generators for the test suite.

The oracles here are deliberately independent of the library code paths
they check: inertia via the characteristic polynomial and Descartes' rule
(exact for matrices with all-real spectrum) and via dense Bareiss
elimination in index order, matrix products on dense rows, embeddings
via undirected brute force over column tuples, their Aut(Z^k, Id)
classes by bucketing those with a sign-normalise-and-sort of the rows
written here and by the earlier orderly search that filtered full norm
pools of Z^k, delta via exhaustive search over all signed permutations
and by the earlier backtracking over every zero row, orbit sizes from
full factorials, the transpose, the matrices of the identity and of a
signed permutation built entry by entry, the eigenspaces of an
involution by row reduction in Fraction, with the form restricted to
them as B^T G B, and graph automorphisms by comparing Counters of
normalised edges.

The library holds only integer matrices. The oracles for rational forms
and maps (`eigenspace_basis`, `restrict_form`, `dense_bareiss_inertia`,
`char_poly`) work on plain matrices of ints and Fractions and never
build a `GramLattice`.
"""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from math import lcm
from operator import mul
from typing import Optional, Sequence

import pytest

from eqknot import (CheckerboardGraph, Embedding, SignedPermutation,
                    enumerate_vectors)
from eqknot.embedsearch import EmbeddingSet, _orbit_size
from eqknot.lattice import (GramLattice, _as_matrix, is_positive_definite,
                            mat_mul)


def char_poly(M):
    """Coefficients [c_0, ..., c_n] of det(xI - M), exact, by the
    Faddeev-LeVerrier recursion."""
    n = len(M)
    A = [[Fraction(x) for x in row] for row in M]
    out = [Fraction(1)] + [Fraction(0)] * n
    Bk = [[Fraction(1) if i == j else Fraction(0) for j in range(n)]
          for i in range(n)]
    for k in range(1, n + 1):
        AB = [[sum(A[i][t] * Bk[t][j] for t in range(n)) for j in range(n)]
              for i in range(n)]
        c = -Fraction(sum(AB[i][i] for i in range(n)), k)
        out[k] = c
        Bk = [[AB[i][j] + (c if i == j else 0) for j in range(n)]
              for i in range(n)]
    return out  # out[k] is the coefficient of x^(n-k)


def inertia_by_descartes(M):
    """(n_pos, n_neg, n_zero) of a symmetric matrix from sign changes in
    the characteristic polynomial. Exact because the spectrum is real."""
    n = len(M)
    coeffs = char_poly(M)  # x^n + c1 x^(n-1) + ... + cn
    # strip zero roots
    n_zero = 0
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
        n_zero += 1
    if n_zero == n:
        return (0, 0, n)

    def sign_changes(cs):
        signs = [c for c in cs if c != 0]
        return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))

    n_pos = sign_changes(coeffs)
    neg_coeffs = [c if (len(coeffs) - 1 - i) % 2 == 0 else -c
                  for i, c in enumerate(coeffs)]
    n_neg = sign_changes(neg_coeffs)
    return (n_pos, n_neg, n_zero)


def dense_bareiss_inertia(G):
    """(n_pos, n_neg, n_zero) of a symmetric matrix of ints and
    Fractions, or of a GramLattice, by dense fraction-free symmetric
    Bareiss elimination in index order, after scaling by the lcm of the
    denominators (a positive scale keeps the inertia): a zero pivot is
    swapped with a nonzero diagonal entry further down, or else made
    nonzero by the row/column-addition trick; trailing entries become
    (d*x - c*y) // prev."""
    rows = [[Fraction(x) for x in row]
            for row in (G.gram if isinstance(G, GramLattice) else G)]
    assert rows == [list(col) for col in zip(*rows)], "not symmetric"
    scale = lcm(*[x.denominator for row in rows for x in row])
    M = [[int(x * scale) for x in row] for row in rows]
    # M is the trailing block still to be eliminated; its pivot is M[0][0]
    n_pos = n_neg = n_zero = 0
    prev = 1
    while M:
        top = M[0]
        if top[0] == 0:
            # prefer a nonzero diagonal entry further down
            piv = next((j for j in range(1, len(M)) if M[j][j] != 0), None)
            if piv is not None:
                M[0], M[piv] = M[piv], M[0]
                for row in M:
                    row[0], row[piv] = row[piv], row[0]
            else:
                off = next((j for j in range(1, len(M)) if top[j] != 0), None)
                if off is None:
                    n_zero += 1
                    M = [row[1:] for row in M[1:]]
                    continue
                # M[0][0] becomes 2*M[0][off] != 0
                M[0] = [x + y for x, y in zip(top, M[off])]
                for row in M:
                    row[0] += row[off]
            top = M[0]
        d = top[0]
        if (d > 0) == (prev > 0):
            n_pos += 1
        else:
            n_neg += 1
        # M stays symmetric, so the entry c = M[r][0] of row r is top[r]
        rest = top[1:]
        M = [[(d * x - c * y) // prev for x, y in zip(row[1:], rest)]
             for c, row in zip(rest, M[1:])]
        prev = d
    return (n_pos, n_neg, n_zero)


def dense_mat_mul(A, B):
    """A·B, built row by row as the sum of a·B[t] over the nonzero
    entries a = A[i][t], on dense rows."""
    m = len(B[0]) if B else 0
    out = []
    for row_a in A:
        row = [0] * m
        for a, row_b in zip(row_a, B):
            if a:
                row = [x + a * y for x, y in zip(row, row_b)]
        out.append(tuple(row))
    return tuple(out)


def orbit_size_by_factorials(rows) -> int:
    """k!/(z! prod mu_r!) * 2^(k - z) for z zero rows and nonzero rows of
    multiplicities mu_r, from the full factorials k!, z! and mu_r!."""
    k = len(rows)
    zero = sum(1 for r in rows if not any(r))
    size = math.factorial(k) << (k - zero)
    for r in set(rows):
        size //= math.factorial(rows.count(r))
    return size


def transpose(A):
    """The transpose of A as a tuple of rows."""
    return tuple(zip(*A)) if A else ()


def identity(n):
    """The n x n identity matrix as a tuple of rows."""
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def signed_perm_matrix(P):
    """The k x k matrix of the signed permutation P: row i holds
    P.signs[i] in column P.perm[i]."""
    return tuple(tuple(s if j == p else 0 for j in range(P.k))
                 for p, s in zip(P.perm, P.signs))


def eigenspace_basis(R, lam: int) -> list[tuple[Fraction, ...]]:
    """Basis of ker(R - lam*Id) over the rationals, for an involution R.

    R may be a LatticeIsometry or a plain square matrix of ints and
    Fractions. lam is +1 or -1. The basis is whatever the echelon-form
    kernel computation produces; consumers (the inertia of the restricted
    form) are basis-independent.
    """
    mat = tuple(map(tuple, R.matrix if hasattr(R, "matrix") else R))
    n = len(mat)
    if lam not in (1, -1):
        raise ValueError("eigenvalue must be +1 or -1")
    if any(len(row) != n for row in mat) or mat_mul(mat, mat) != identity(n):
        raise ValueError("matrix is not an involution")
    # kernel of (R - lam*I) by RREF
    A = [[Fraction(mat[i][j]) - (lam if i == j else 0) for j in range(n)]
         for i in range(n)]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, n) if A[i][c] != 0), None)
        if piv is None:
            continue
        A[r], A[piv] = A[piv], A[r]
        d = A[r][c]
        A[r] = [x / d for x in A[r]]
        for i in range(n):
            if i != r and A[i][c] != 0:
                f = A[i][c]
                A[i] = [x - f * y for x, y in zip(A[i], A[r])]
        pivots.append(c)
        r += 1
        if r == n:
            break
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * n
        v[fc] = Fraction(1)
        for row_idx, pc in enumerate(pivots):
            v[pc] = -A[row_idx][fc]
        basis.append(tuple(v))
    return basis


def restrict_form(G: GramLattice | Sequence[Sequence],
                  B: Sequence[Sequence]) -> tuple[tuple, ...]:
    """The form pulled back to the span of the vectors in B, i.e. B^T G B,
    as a plain matrix of ints and Fractions (no GramLattice, which holds
    only ints); `dense_bareiss_inertia` gives its inertia."""
    gram = G.gram if isinstance(G, GramLattice) else G
    n = len(gram)
    for v in B:
        if len(v) != n:
            raise ValueError("basis vector length does not match rank")
    m = len(B)
    out = []
    for i in range(m):
        Gv = [sum(gram[r][c] * B[i][c] for c in range(n)) for r in range(n)]
        out.append(tuple(sum(B[j][r] * Gv[r] for r in range(n)) for j in range(m)))
    return tuple(out)


def brute_force_embeddings(G, k):
    """All E with E^T E = G by unpruned brute force over column tuples."""
    gram = G.gram if hasattr(G, "gram") else G
    m = len(gram)
    pools = [enumerate_vectors(k, gram[j][j]) for j in range(m)]
    out = []
    for cols in itertools.product(*pools):
        ok = True
        for i in range(m):
            for j in range(i + 1, m):
                if sum(a * b for a, b in zip(cols[i], cols[j])) != gram[i][j]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            rows = tuple(tuple(col[r] for col in cols) for r in range(k))
            out.append(Embedding(k, rows))
    return out


def brute_force_classes(G, k):
    """(representative, count) pairs, sorted, from bucketing
    `brute_force_embeddings`: a representative has each row replaced by
    the smaller of it and its negation, then the rows sorted."""
    counts = {}
    for E in brute_force_embeddings(G, k):
        rows = tuple(sorted(min(r, tuple(-x for x in r)) for r in E.matrix))
        counts[rows] = counts.get(rows, 0) + 1
    return [(Embedding(k, rows), n) for rows, n in sorted(counts.items())]


def pool_embedding_classes(G: GramLattice | Sequence[Sequence[int]],
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


def delta_over_all_zero_rows(E: Embedding, R, required_order: int
                             ) -> Optional[SignedPermutation]:
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


def signed_perm_order(perm, signs):
    from math import lcm
    k = len(perm)
    seen = [False] * k
    out = 1
    for s in range(k):
        if seen[s]:
            continue
        length, prod, i = 0, 1, s
        while not seen[i]:
            seen[i] = True
            prod *= signs[i]
            i = perm[i]
            length += 1
        out = lcm(out, length if prod == 1 else 2 * length)
    return out


def exhaustive_delta_exists(E, R, required_order):
    """Existence of P with P.E = E.R and exact order, by scanning all
    2^k * k! signed permutations. Only sensible for k <= 5."""
    k = E.k
    T = dense_mat_mul(E.matrix, R)
    for perm in itertools.permutations(range(k)):
        for signs in itertools.product((1, -1), repeat=k):
            if all(tuple(signs[i] * x for x in E.matrix[perm[i]]) == tuple(T[i])
                   for i in range(k)):
                if signed_perm_order(perm, signs) == required_order:
                    return True
    return False


def random_unimodular(rng, n, steps=6):
    """Product of elementary shears and signed swaps; determinant +/-1."""
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        a, b = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if n > 1 and rng.random() < 0.7:
            c = rng.choice([-2, -1, 1, 2])
            for row in U:
                row[b] += c * row[a]
        else:
            s = rng.choice([1, -1])
            for row in U:
                row[a], row[b] = s * row[b], row[a]
    return tuple(tuple(row) for row in U)


def random_connected_graph(rng, max_vertices=6, weights=(-1, 1)):
    n = rng.randint(1, max_vertices)
    edges = []
    for v in range(1, n):  # spanning tree keeps it connected
        u = rng.randrange(v)
        edges.append((u, v, rng.choice(weights)))
    for _ in range(rng.randint(0, n)):
        if n < 2:
            break
        u, v = rng.sample(range(n), 2)
        edges.append((u, v, rng.choice(weights)))
    return CheckerboardGraph(n, edges)


def automorphism_by_counter(g, perm):
    """Does perm preserve the weighted edge multiset of g? The multisets
    are Counters of edges (min, max, w)."""
    if sorted(perm) != list(range(g.vertex_count)):
        return False
    orig = Counter((min(u, v), max(u, v), w) for u, v, w in g.edges)
    mapped = Counter((min(perm[u], perm[v]), max(perm[u], perm[v]), w)
                     for u, v, w in g.edges)
    return orig == mapped


def block_sum(blocks):
    """The block-diagonal matrix with the given square blocks."""
    n = sum(len(b) for b in blocks)
    M = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            M[at + i][at:at + len(row)] = row
        at += len(b)
    return M


def conjugate(U, G):
    """U^T G U."""
    return dense_mat_mul(dense_mat_mul(transpose(U), G), U)


# The fuzz tests take their number of examples from the profile:
# `--hypothesis-profile=ci` runs ten times as many as the default.
try:
    from hypothesis import settings
except ImportError:  # the fuzz tests skip themselves
    pass
else:
    settings.register_profile("default", max_examples=200)
    settings.register_profile("ci", max_examples=2000)


@pytest.fixture
def rng():
    return random.Random(20260826)


@pytest.fixture
def inertia_calls(monkeypatch):
    """The ranks of the forms that `signature` eliminates, one entry per
    call of `lattice._inertia` from then on."""
    import eqknot.lattice as lattice
    calls = []
    inertia = lattice._inertia

    def counted(rows):
        calls.append(len(rows))
        return inertia(rows)

    monkeypatch.setattr(lattice, "_inertia", counted)
    return calls
