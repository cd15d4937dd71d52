"""Exact symmetric bilinear forms: inertia, definiteness, eigenspaces, restrictions.

All arithmetic is exact; no floating point is used anywhere. Entries are
Python ints, or fractions.Fraction where a form or map is rational.
`signature` eliminates fraction-free on ints (a rational form is first
scaled to an integer one); eigenspace bases are computed in Fraction.
Matrices are immutable tuples of tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[tuple, ...]


def _clean(x):
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


# Rows are built as tuple([...]), not tuple(genexpr): a tuple grown from
# a generator is allocated outside CPython's per-size tuple free lists but
# freed into them, so in a long-lived process those lists would fill.
def _freeze(rows) -> Matrix:
    return tuple([tuple([x if type(x) is int else _clean(x) for x in row])
                  for row in rows])


def mat_mul(A, B) -> Matrix:
    """A·B, built row by row as the sum of a·B[t] over the nonzero
    entries a = A[i][t], so sparse and signed-permutation factors cost
    only their nonzero entries."""
    m = len(B[0]) if B else 0
    out = []
    for row_a in A:
        row = [0] * m
        for a, row_b in zip(row_a, B):
            if a:
                row = [x + a * y for x, y in zip(row, row_b)]
        out.append(tuple(row))
    return tuple(out)


def transpose(A) -> Matrix:
    return tuple([*zip(*A)]) if A else ()


def identity(n: int) -> Matrix:
    return tuple([tuple([1 if i == j else 0 for j in range(n)])
                  for i in range(n)])


def mat_eq(A, B) -> bool:
    return len(A) == len(B) and all(
        len(ra) == len(rb) and all(a == b for a, b in zip(ra, rb))
        for ra, rb in zip(A, B)
    )


@dataclass(frozen=True)
class GramLattice:
    """A symmetric bilinear form on a free module of finite rank.

    Entries are integers for forms coming from checkerboard graphs, but
    rational entries are allowed (restrictions to eigenspaces produce them).
    """

    gram: Matrix

    def __init__(self, gram: Sequence[Sequence]):
        gram = _freeze(gram)
        n = len(gram)
        if any(len(row) != n for row in gram):
            raise ValueError("gram matrix must be square")
        for i in range(n):
            for j in range(i):
                if gram[i][j] != gram[j][i]:
                    raise ValueError("gram matrix must be symmetric")
        object.__setattr__(self, "gram", gram)

    @property
    def rank(self) -> int:
        return len(self.gram)


@dataclass(frozen=True)
class SignatureTriple:
    """Inertia of a symmetric form: counts of positive, negative, zero
    diagonal entries after congruence diagonalization."""

    n_pos: int
    n_neg: int
    n_zero: int

    @property
    def sigma(self) -> int:
        return self.n_pos - self.n_neg


def signature(G: GramLattice | Sequence[Sequence]) -> SignatureTriple:
    """Inertia of a symmetric form over the rationals.

    Fraction-free (Bareiss) symmetric elimination on Python ints; a form
    with rational entries is first scaled by the lcm of their denominators,
    which as a positive scale keeps the inertia. After each pivot d the
    trailing entries become (d*x - c*y) // prev, where prev is the previous
    pivot (1 at the start): by Sylvester's identity each entry is then a
    minor of the form, so the division is exact and the pivot d is the
    leading principal minor D_k. The rational pivot D_k / D_(k-1) is
    positive iff d and prev have the same sign.

    A zero diagonal entry is first swapped with a nonzero one further
    down. When every remaining diagonal entry is zero but some off-diagonal
    entry is not, the row/column-addition trick produces a nonzero pivot;
    the resulting hyperbolic pair contributes (+1, -1) as it must. Both
    are congruences on indices past the pivots, so the minors stay minors.
    A zero row adds to n_zero and leaves prev unchanged.
    """
    gram = G.gram if isinstance(G, GramLattice) else GramLattice(G).gram
    if all(isinstance(x, int) for row in gram for x in row):
        M = [list(row) for row in gram]
    else:
        rows = [[Fraction(x) for x in row] for row in gram]
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
    return SignatureTriple(n_pos, n_neg, n_zero)


def is_positive_definite(G: GramLattice | Sequence[Sequence]) -> bool:
    """True iff the form has no negative or zero directions."""
    s = signature(G)
    return s.n_neg == 0 and s.n_zero == 0


def _as_matrix(R) -> Matrix:
    """The matrix of a LatticeIsometry, or a plain matrix, as a tuple of
    rows. Entries stay exact: nothing is rounded or truncated."""
    return _freeze(R.matrix if hasattr(R, "matrix") else R)


def eigenspace_basis(R, lam: int) -> list[Vector]:
    """Basis of ker(R - lam*Id) over the rationals, for an involution R.

    R may be a LatticeIsometry or a plain square matrix. lam is +1 or -1.
    The basis is whatever the echelon-form kernel computation produces;
    consumers (signature of the restricted form) are basis-independent.
    """
    mat = _as_matrix(R)
    n = len(mat)
    if lam not in (1, -1):
        raise ValueError("eigenvalue must be +1 or -1")
    if not mat_eq(mat_mul(mat, mat), identity(n)):
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
                  B: Sequence[Sequence]) -> GramLattice:
    """The form pulled back to the span of the vectors in B, i.e. B^T G B."""
    gram = G.gram if isinstance(G, GramLattice) else _freeze(G)
    n = len(gram)
    for v in B:
        if len(v) != n:
            raise ValueError("basis vector length does not match rank")
    m = len(B)
    out = []
    for i in range(m):
        Gv = [sum(gram[r][c] * B[i][c] for c in range(n)) for r in range(n)]
        out.append(tuple(sum(B[j][r] * Gv[r] for r in range(n)) for j in range(m)))
    return GramLattice(out)
