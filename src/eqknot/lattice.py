"""Exact symmetric bilinear forms: inertia, determinant and definiteness.

All arithmetic is exact; no floating point is used anywhere. Every matrix
held, a form (`GramLattice`) or an isometry (`_as_matrix`), has int
entries: `_freeze` rejects floats, bools and Fractions, so there is no
rational path. `signature` eliminates fraction-free, sparsely: rows are
dicts of nonzero entries, pivots go in minimum-degree order, and only a
pivot's neighbours are rewritten, each row keeping the scale at which it
last was, so a row stored at scale s holds its current entries times
s/prev.

Public matrices are immutable tuples of tuples. Inside the package a
matrix is also held as sparse rows, a list of {column: entry} dicts of
its nonzero entries. `_row_mul` multiplies sparse rows. `mat_mul` wraps
it for dense matrices. `gsig_involution` calls `_row_mul` directly to
check R^2 = I and build G R, and hands G +- G R to the elimination core
`_inertia` as sparse rows.

A check whose failure the CLI reports under its own code raises
`InputError` (a `ValueError` with that `code`) or, for an unmet theorem
hypothesis, its subclass `HypothesisError`: exit statuses 2 and 3.

The validated value types of the package (`GramLattice` here, the graph,
symmetry, embedding and signed permutation types elsewhere) share
`_Frozen`, a small immutable base with fields in `__slots__`. The plain
records are `typing.NamedTuple`s.
"""

from __future__ import annotations

from itertools import compress
from typing import NamedTuple, Sequence

Matrix = tuple[tuple, ...]
Rows = list[dict]
_INT = frozenset({int})


class InputError(ValueError):
    """InputError(code, message): an input breaks the rule named `code`,
    such as "SCHEMA" or "LOOP_EDGE"; str() is the bare message."""

    @property
    def code(self) -> str:
        return self.args[0]

    def __str__(self):
        return self.args[1]


class HypothesisError(InputError):
    """A theorem hypothesis is not met; the computation does not apply."""


def _ints(row) -> bool:
    """True iff every entry of row is an int, not a bool: the one entry
    test of every matrix, embedding and signed permutation."""
    return set(map(type, row)) <= _INT


# Rows are built as tuple([...]), not tuple(genexpr): a tuple grown from
# a generator is allocated outside CPython's per-size tuple free lists but
# freed into them, so in a long-lived process those lists would fill.
def _freeze(rows) -> Matrix:
    """rows as a tuple of int tuples; any other entry raises ValueError."""
    M = tuple([tuple(row) for row in rows])
    if not all(map(_ints, M)):
        raise ValueError("matrix entries must be ints")
    return M


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


class _Frozen:
    """An immutable value whose fields, named in `_fields`, are set once
    by the subclass's validating __init__ through object.__setattr__.

    Two values are equal when they are of the same class and their
    fields are equal; equal values hash equal, the repr lists the fields
    as Name(field=value, ...), and assignment or deletion raises
    AttributeError. Slots outside `_fields` take no part in eq, hash or
    repr. A value pickles and copies as its class called on its fields,
    so each subclass's __init__ takes them in `_fields` order.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()


class GramLattice(_Frozen):
    """A symmetric bilinear form on a free module of finite rank, its
    entries ints (not bools); there are no rational forms. `signature`
    keeps the inertia and determinant it computes in the private slots
    `_sig` and `_det`, which cannot go stale as the form is immutable.
    """

    __slots__ = ("gram", "_sig", "_det")
    _fields = ("gram",)

    def __init__(self, gram: Sequence[Sequence]):
        gram = _freeze(gram)
        n = len(gram)
        if any(len(row) != n for row in gram):
            raise ValueError("gram matrix must be square")
        if gram != tuple(zip(*gram)):
            raise ValueError("gram matrix must be symmetric")
        object.__setattr__(self, "gram", gram)
        object.__setattr__(self, "_sig", None)
        object.__setattr__(self, "_det", None)

    @property
    def rank(self) -> int:
        return len(self.gram)


def _gram(G: GramLattice | Sequence[Sequence]) -> GramLattice:
    """G if it is a GramLattice, else the GramLattice that checks it."""
    return G if isinstance(G, GramLattice) else GramLattice(G)


class SignatureTriple(NamedTuple):
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
    `_inertia` on the sparse rows of the form, run once per GramLattice,
    which keeps the result and the determinant in `_det`."""
    G = _gram(G)
    if G._sig is None:
        sig, det = _inertia(_rows(G.gram))
        object.__setattr__(G, "_sig", sig)
        object.__setattr__(G, "_det", det)
    return G._sig


def _inertia(rows: Rows) -> tuple[SignatureTriple, int]:
    """Inertia and determinant of the symmetric int matrix with these
    sparse rows, which it consumes; nothing checks that they are symmetric.

    Sparse fraction-free (Bareiss) symmetric elimination on Python ints.
    The next pivot p is the remaining index with a nonzero diagonal and
    the fewest nonzeros, the lowest index on a tie, so a block sum costs
    its blocks. Each Bareiss entry is a minor of the form (Sylvester's
    identity), the pivot d is the leading principal minor D_k, and
    D_k / D_(k-1) is positive iff d has the sign of prev, the previous d
    (1 at the start).

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
    so the entries stay minors. Rows left all zero add to n_zero. Pivot
    order and that step are congruences by matrices of determinant +-1,
    so the last pivot D_n is the determinant of the form, and it is 0
    when a row is left all zero.
    """
    n = len(rows)
    rows = dict(enumerate(rows))
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
    n_zero = n - n_pos - n_neg
    return SignatureTriple(n_pos, n_neg, n_zero), 0 if n_zero else prev


def is_positive_definite(G: GramLattice | Sequence[Sequence]) -> bool:
    """True iff the form has no negative or zero directions."""
    s = signature(G)
    return s.n_neg == 0 and s.n_zero == 0


def _as_matrix(R) -> Matrix:
    """The matrix of a LatticeIsometry, or a plain int matrix, as a tuple
    of rows, checked by `_freeze`."""
    return _freeze(R.matrix if hasattr(R, "matrix") else R)
