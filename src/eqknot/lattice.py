"""Exact symmetric bilinear forms: inertia, definiteness, eigenspaces, restrictions.

All arithmetic is exact; no floating point is used anywhere. Entries are
Python ints, or fractions.Fraction where a form or map is rational.
`signature` eliminates fraction-free on ints (a rational form is first
scaled to an integer one), sparsely: rows are dicts of nonzero entries,
pivots go in minimum-degree order, and only a pivot's neighbours are
rewritten, each row keeping the scale at which it last was, so a row
stored at scale s holds its current entries times s/prev. Eigenspace
bases are computed in Fraction.

Public matrices are immutable tuples of tuples. Inside the package a
matrix is also held as sparse rows, a list of {column: entry} dicts of
its nonzero entries. `_row_mul` multiplies sparse rows. `mat_mul` wraps
it for dense matrices, and the isometry checks and isometry powers call
`_row_mul` directly. G +- G R is built on rows and handed to the
elimination core `_inertia` as it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import lcm
from typing import Sequence

Vector = tuple[Fraction, ...]
Matrix = tuple[tuple, ...]
Rows = list[dict]
_INT = frozenset({int})


def _clean(x):
    if isinstance(x, Fraction) and x.denominator == 1:
        return int(x)
    return x


# Rows are built as tuple([...]), not tuple(genexpr): a tuple grown from
# a generator is allocated outside CPython's per-size tuple free lists but
# freed into them, so in a long-lived process those lists would fill.
def _freeze(rows) -> Matrix:
    return tuple([row if set(map(type, row)) <= _INT
                  else tuple([_clean(x) for x in row])
                  for row in map(tuple, rows)])


def _rows(A) -> Rows:
    """The sparse rows of A: for each row, {column: entry} over its
    nonzero entries."""
    return [dict(compress(enumerate(row), row)) for row in A]


def _row_mul(A: Rows, B: Rows) -> Rows:
    """A·B on sparse rows: row i is the sum of a·B[t] over the entries
    a = A[i][t], so a product costs only its nonzero terms. Entries that
    cancel are dropped, so equal matrices have equal rows."""
    out = []
    for row_a in A:
        acc = {}
        for t, a in row_a.items():
            for j, b in B[t].items():
                acc[j] = acc.get(j, 0) + a * b
        out.append({j: x for j, x in acc.items() if x})
    return out


def mat_mul(A, B) -> Matrix:
    """A·B as a tuple of rows, by the sparse row product `_row_mul`, so
    sparse and signed-permutation factors cost only their nonzero
    entries."""
    m = len(B[0]) if B else 0
    out = []
    for row in _row_mul(_rows(A), _rows(B)):
        dense = [0] * m
        for j, x in row.items():
            dense[j] = x
        out.append(tuple(dense))
    return tuple(out)


def transpose(A) -> Matrix:
    return tuple([*zip(*A)]) if A else ()


def identity(n: int) -> Matrix:
    return tuple([tuple([1 if i == j else 0 for j in range(n)])
                  for i in range(n)])


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
        if gram != tuple(zip(*gram)):
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
    """Inertia of a symmetric form over the rationals. A form that is not
    a GramLattice is checked by building one; the elimination is
    `_inertia` on the sparse rows of the form."""
    gram = G.gram if isinstance(G, GramLattice) else GramLattice(G).gram
    return _inertia(_rows(gram))


def _inertia(rows: Rows) -> SignatureTriple:
    """Inertia of the symmetric matrix with these sparse rows, which it
    consumes; nothing checks that they are symmetric.

    Sparse fraction-free (Bareiss) symmetric elimination on Python ints;
    a rational form is first scaled by the lcm of its denominators, which
    as a positive scale keeps the inertia. The next pivot p is the
    remaining index with a nonzero diagonal and the fewest nonzeros, the
    lowest index on a tie, so a block sum costs its blocks. Each Bareiss
    entry is a minor of the form (Sylvester's identity), the pivot d is
    the leading principal minor D_k, and D_k / D_(k-1) is positive iff d
    has the sign of prev, the previous d (1 at the start).

    Scaling is lazy: only the neighbours of p are rewritten. Row r keeps
    s = scale[r], the prev in force when it was last rewritten; its
    current entries are stored*prev/s, exact as they are minors. With y
    the pivot row at the current scale and c = r[p], the entries of r
    become (d*x - c*y) // s at scale d, because
    (d*x*prev/s - c*prev/s*y)/prev = (d*x - c*y)/s; every other row is
    only multiplied by d/prev, which setting prev = d does for it.

    With no nonzero diagonal left, the first nonzero row p and the row q
    of its first nonzero entry are brought to the current scale and row
    and column q are added to p, so the pivot is 2*M[p][q] != 0 and the
    hyperbolic pair gives (+1, -1). That congruence acts past the pivots,
    so the entries stay minors. Rows left all zero add to n_zero.
    """
    n = len(rows)
    rows = dict(enumerate(rows))
    if not all(isinstance(x, int)
               for row in rows.values() for x in row.values()):
        m = lcm(*[Fraction(x).denominator
                  for row in rows.values() for x in row.values()])
        rows = {i: {j: int(Fraction(x) * m) for j, x in row.items()}
                for i, row in rows.items()}
    scale = [1] * n
    n_pos = n_neg = 0
    prev = 1
    while rows:
        p, fewest = None, n + 1
        for r, row in rows.items():
            if r in row and len(row) < fewest:
                p, fewest = r, len(row)
        if p is None:
            p = next((r for r, row in rows.items() if row), None)
            if p is None:
                break
            q = min(rows[p])
            for r in (p, q):
                if scale[r] != prev:
                    s = scale[r]
                    rows[r] = {t: x * prev // s for t, x in rows[r].items()}
                    scale[r] = prev
            y = rows[p]
            for t, x in rows[q].items():
                y[t] = y.get(t, 0) + x
            for t in rows[q]:
                rows[t][p] = rows[t].get(p, 0) + rows[t][q]
            for t in [t for t, x in y.items() if not x]:
                del y[t], rows[t][p]
        y = rows.pop(p)
        if scale[p] != prev:
            s = scale[p]
            y = {t: x * prev // s for t, x in y.items()}
        d = y.pop(p)
        if (d > 0) == (prev > 0):
            n_pos += 1
        else:
            n_neg += 1
        for r in y:
            row, s = rows[r], scale[r]
            c = row.pop(p)
            new = {t: v // s for t, x in row.items()
                   if (v := d * x - c * y.get(t, 0))}
            for t, x in y.items():
                if t not in row:
                    new[t] = -c * x // s
            rows[r] = new
            scale[r] = d
        prev = d
    return SignatureTriple(n_pos, n_neg, n - n_pos - n_neg)


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
