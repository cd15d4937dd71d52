"""Independent reference computations used to check eqknot's answers.

Nothing here imports eqknot. The embedding classes come from an orderly
column-by-column generator that emits only canonical matrices (rows
sign-normalised so the first nonzero entry is negative, rows sorted), so
it never materialises an orbit; a brute-force search over column tuples
cross-checks it on small cases. Deltas are found by exhaustive row
matching and their order by repeated matrix multiplication.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def mat_mul(A, B):
    return [[sum(A[i][t] * B[t][j] for t in range(len(B)))
             for j in range(len(B[0]))] for i in range(len(A))]


def transpose(A):
    return [list(r) for r in zip(*A)]


def gl_gram(vertices, edges, dropped=None):
    """Gordon-Litherland form of a signed graph with one vertex dropped
    (the last by default): weighted Laplacian with the sign convention
    off-diagonal = sum of edge weights, diagonal = minus that sum."""
    dropped = vertices - 1 if dropped is None else dropped
    M = [[0] * vertices for _ in range(vertices)]
    for u, v, w in edges:
        M[u][v] += w
        M[v][u] += w
        M[u][u] -= w
        M[v][v] -= w
    keep = [i for i in range(vertices) if i != dropped]
    return [[M[i][j] for j in keep] for i in keep]


def induced_isometry(vertices, perm, lift_sign, dropped=None):
    """Matrix of v_i -> lift_sign * v_perm(i) on the basis {v_i : i !=
    dropped}, with v_dropped = -(sum of the kept generators)."""
    dropped = vertices - 1 if dropped is None else dropped
    keep = [i for i in range(vertices) if i != dropped]
    pos = {v: idx for idx, v in enumerate(keep)}
    m = len(keep)
    R = [[0] * m for _ in range(m)]
    for col, i in enumerate(keep):
        img = perm[i]
        if img == dropped:
            for row in range(m):
                R[row][col] = -lift_sign
        else:
            R[pos[img]][col] = lift_sign
    return R


def inertia(G):
    """(n_pos, n_neg, n_zero) of a symmetric rational matrix, by
    Sylvester's law applied to an LDL^T decomposition with pivoting on
    the diagonal or on a hyperbolic pair."""
    M = [[Fraction(x) for x in row] for row in G]
    n = len(M)
    pos = neg = 0
    active = list(range(n))
    while active:
        piv = next((i for i in active if M[i][i] != 0), None)
        if piv is None:
            pair = next(((i, j) for i in active for j in active
                         if i < j and M[i][j] != 0), None)
            if pair is None:
                break
            i, j = pair
            for t in range(n):
                M[i][t] += M[j][t]
            for t in range(n):
                M[t][i] += M[t][j]
            piv = i
        d = M[piv][piv]
        pos, neg = (pos + 1, neg) if d > 0 else (pos, neg + 1)
        active.remove(piv)
        for r in active:
            f = M[r][piv] / d
            if f:
                for s in active:
                    M[r][s] -= f * M[piv][s]
    return pos, neg, len(active)


def canonical(rows):
    """Representative of a matrix's orbit under signed row permutations:
    each row replaced by the smaller of itself and its negation, rows
    sorted."""
    out = []
    for r in rows:
        r = tuple(r)
        neg = tuple(-x for x in r)
        out.append(min(r, neg))
    return tuple(sorted(out))


def orbit_size(rows):
    """Size of the orbit of a canonical k x m matrix under Aut(Z^k, Id):
    k! / (z! prod mu_r!) * 2^(k - z) for z zero rows and nonzero rows of
    multiplicities mu_r."""
    k = len(rows)
    counts = {}
    for r in rows:
        counts[r] = counts.get(r, 0) + 1
    zero = sum(c for r, c in counts.items() if not any(r))
    size = math.factorial(k) * 2 ** (k - zero)
    for c in counts.values():
        size //= math.factorial(c)
    return size


def embedding_classes(G, k):
    """Canonical representatives of all E (k x m) with E^T E = G, each
    with its orbit size, in sorted order.

    Columns are placed one at a time. Within a column, rows whose prefix
    so far is zero take a non-positive entry, and adjacent rows with
    equal prefixes take non-decreasing entries; together these admit
    exactly the canonical matrices. Partial inner products are pruned by
    Cauchy-Schwarz against the norm still to be placed.
    """
    m = len(G)
    out = []
    rows = [() for _ in range(k)]

    def place_column(j):
        if j == m:
            rep = tuple(rows)
            out.append((rep, orbit_size(rep)))
            return
        # suffix[t][i]: squared norm of column t over rows i..k-1
        suffix = []
        for t in range(j):
            acc = [0] * (k + 1)
            for i in range(k - 1, -1, -1):
                acc[i] = acc[i + 1] + rows[i][t] ** 2
            suffix.append(acc)
        col = [0] * k
        dots = [0] * j

        def fill(i, rem):
            if i == k:
                if rem == 0 and all(dots[t] == G[t][j] for t in range(j)):
                    for r in range(k):
                        rows[r] = rows[r] + (col[r],)
                    place_column(j + 1)
                    for r in range(k):
                        rows[r] = rows[r][:-1]
                return
            for t in range(j):
                gap = G[t][j] - dots[t]
                if gap * gap > rem * suffix[t][i]:
                    return
            b = math.isqrt(rem)
            lo, hi = -b, b
            if not any(rows[i]):
                hi = min(hi, 0)
            if i > 0 and rows[i - 1] == rows[i]:
                lo = max(lo, col[i - 1])
            for x in range(lo, hi + 1):
                col[i] = x
                for t in range(j):
                    dots[t] += rows[i][t] * x
                fill(i + 1, rem - x * x)
                for t in range(j):
                    dots[t] -= rows[i][t] * x
            col[i] = 0

        fill(0, G[j][j])

    place_column(0)
    out.sort()
    return out


def vectors_of_norm(k, norm):
    out = []
    for v in itertools.product(range(-math.isqrt(norm), math.isqrt(norm) + 1),
                               repeat=k):
        if sum(x * x for x in v) == norm:
            out.append(v)
    return out


def brute_force_classes(G, k):
    """The same answer as embedding_classes, by testing every tuple of
    columns of the right norms. Only for small k and rank."""
    m = len(G)
    pools = [vectors_of_norm(k, G[j][j]) for j in range(m)]
    counts = {}
    for cols in itertools.product(*pools):
        if all(sum(a * b for a, b in zip(cols[i], cols[j])) == G[i][j]
               for i in range(m) for j in range(i + 1, m)):
            key = canonical(zip(*cols))
            counts[key] = counts.get(key, 0) + 1
    return sorted(counts.items())


def brute_force_cost(G, k):
    """Number of column tuples brute_force_classes would test."""
    cost = 1
    for j in range(len(G)):
        cost *= len(vectors_of_norm(k, G[j][j]))
    return cost


def signed_perm_matrix(perm, signs):
    """P with P[i][perm[i]] = signs[i]: e_perm[i] -> signs[i] e_i."""
    k = len(perm)
    P = [[0] * k for _ in range(k)]
    for i in range(k):
        P[i][perm[i]] = signs[i]
    return P


def exact_order(P, cap):
    """Multiplicative order of a square integer matrix, or None if it
    exceeds cap."""
    k = len(P)
    eye = [[int(i == j) for j in range(k)] for i in range(k)]
    Q = P
    for t in range(1, cap + 1):
        if Q == eye:
            return t
        Q = mat_mul(Q, P)
    return None


def has_delta(E, R, order):
    """Whether a signed permutation P with P E = E R has exact order
    `order`, by exhaustive matching of rows of E R to signed rows of E."""
    k = len(E)
    T = [tuple(r) for r in mat_mul([list(r) for r in E], R)]
    options = []
    for i in range(k):
        opts = [(j, s) for j in range(k) for s in (1, -1)
                if tuple(s * x for x in E[j]) == T[i]]
        if not opts:
            return False
        options.append(opts)
    perm, signs, used = [0] * k, [0] * k, [False] * k

    def search(i):
        if i == k:
            return exact_order(signed_perm_matrix(perm, signs), order) == order
        for j, s in options[i]:
            if not used[j]:
                used[j] = True
                perm[i], signs[i] = j, s
                if search(i + 1):
                    return True
                used[j] = False
        return False

    return search(0)
