"""Exact symmetric bilinear forms: inertia, definiteness, eigenspaces, restrictions.

All arithmetic is over the rationals (fractions.Fraction); no floating point
is used anywhere. Matrices are immutable tuples of tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[tuple, ...]


def _freeze(rows) -> Matrix:
    def clean(x):
        if isinstance(x, Fraction) and x.denominator == 1:
            return int(x)
        return x
    return tuple(tuple(clean(x) for x in row) for row in rows)


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
    return tuple(zip(*A)) if A else ()


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


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

    Symmetric Gaussian elimination with exact arithmetic. When every
    remaining diagonal entry is zero but some off-diagonal entry is not,
    the row/column-addition trick produces a nonzero pivot; the resulting
    hyperbolic pair contributes (+1, -1) as it must.
    """
    gram = G.gram if isinstance(G, GramLattice) else GramLattice(G).gram
    n = len(gram)
    M = [[Fraction(x) for x in row] for row in gram]
    n_pos = n_neg = n_zero = 0
    for i in range(n):
        if M[i][i] == 0:
            # prefer a nonzero diagonal entry further down
            piv = next((j for j in range(i + 1, n) if M[j][j] != 0), None)
            if piv is not None:
                M[i], M[piv] = M[piv], M[i]
                for row in M:
                    row[i], row[piv] = row[piv], row[i]
            else:
                off = next((j for j in range(i + 1, n) if M[i][j] != 0), None)
                if off is None:
                    n_zero += 1
                    continue
                # M[i][i] becomes 2*M[i][off] != 0
                for t in range(n):
                    M[i][t] += M[off][t]
                for row in M:
                    row[i] += row[off]
        d = M[i][i]
        if d > 0:
            n_pos += 1
        else:
            n_neg += 1
        col = [M[r][i] for r in range(i + 1, n)]
        rowv = [M[i][s] for s in range(i + 1, n)]
        for a, r in enumerate(range(i + 1, n)):
            f = col[a] / d
            if f != 0:
                for b, s in enumerate(range(i + 1, n)):
                    M[r][s] -= f * rowv[b]
            M[r][i] = Fraction(0)
            M[i][r] = Fraction(0)
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
