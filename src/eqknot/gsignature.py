"""g-signatures of symmetric knots.

For an order-2 symmetry R of a form G, sigma~ = sigma(G | ker(R-I)) -
sigma(G | ker(R+I)). With R^2 = I, R^T G R = G holds iff R^T G = G R,
that is iff G R is symmetric (G is), so R is checked to preserve G on
the G R built anyway. No eigenspace basis is needed: R^T G = G R, so
(I+-R)^T G (I+-R) = 2(G +- G R), and I+-R maps Q^n onto ker(R-+I), so
sigma(G | ker(R-+I)) = sigma(G +- G R), an integer matrix when G and R
are. The eigenspace dimensions are (n +- tr R)/2. n-periodic knots go
through the closed quotient-signature formula
sigma~ = (n*sigma(quotient) - sigma(K)) / (n-1). For strong
inversions the input form must come from a butterfly surface; that is a
caller obligation this module cannot check.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .lattice import (GramLattice, HypothesisError, InputError, _as_matrix,
                      _inertia, _row_mul, _rows)


class GSignatureReport(NamedTuple):
    sigma_plus: int
    sigma_minus: int
    gsig: int | Fraction
    dims: tuple[int, int]


def gsig_involution(G: GramLattice | Sequence[Sequence[int]],
                    R) -> GSignatureReport:
    """sigma~ = sigma(G | ker(R-I)) - sigma(G | ker(R+I)) for an involution
    R preserving G, as sigma(G + G R) - sigma(G - G R). R^2 = I and the
    symmetry of G R are checked on sparse rows, and G +- G R goes to the
    elimination as sparse rows."""
    if not isinstance(G, GramLattice):
        G = GramLattice(G)
    Rm = _as_matrix(R)
    n = G.rank
    if len(Rm) != n or any(len(row) != n for row in Rm):
        raise InputError("SCHEMA", "isometry rank does not match form rank")
    Rr, Gr = _rows(Rm), _rows(G.gram)
    if _row_mul(Rr, Rr) != [{i: 1} for i in range(n)]:
        raise HypothesisError("NOT_INVOLUTION", "R is not an involution")
    GR = _row_mul(Gr, Rr)
    if any(GR[j].get(i) != x for i, row in enumerate(GR)
           for j, x in row.items()):
        raise HypothesisError("NOT_INVOLUTION", "R does not preserve the form")
    trace = sum(Rm[i][i] for i in range(n))
    dp, dm = (n + trace) // 2, (n - trace) // 2

    def sigma_of(eps):  # sigma(G + eps*G R), the eps-eigenspace signature
        rows = []
        for g, h in zip(Gr, GR):
            row = dict(g)
            for j, x in h.items():
                if v := row.get(j, 0) + eps * x:
                    row[j] = v
                else:
                    del row[j]
            rows.append(row)
        return _inertia(rows)[0].sigma

    sp = sigma_of(1) if dp else 0
    sm = sigma_of(-1) if dm else 0
    return GSignatureReport(sigma_plus=sp, sigma_minus=sm, gsig=sp - sm,
                            dims=(dp, dm))


def gsig_periodic(n: int, sigma_K: int, sigma_quotient: int) -> Fraction:
    """Exact g-signature of an n-periodic knot from the two signatures:
    (n*sigma(quotient) - sigma(K)) / (n-1)."""
    if n < 2:
        raise InputError("SCHEMA", f"the period must be >= 2, not {n}")
    return Fraction(n * sigma_quotient - sigma_K, n - 1)


def gsig_direct_sum(G1, R1, G2, R2) -> GSignatureReport:
    """g-signature of the block sum; additive under equivariant connect
    sum, so it equals gsig(G1,R1) + gsig(G2,R2)."""
    if not isinstance(G1, GramLattice):
        G1 = GramLattice(G1)
    if not isinstance(G2, GramLattice):
        G2 = GramLattice(G2)
    n1, n2 = G1.rank, G2.rank

    def block_sum(A, B):  # whole rows, so a mis-sized R fails the rank check
        return ([[*row, *[0] * n2] for row in A]
                + [[*[0] * n1, *row] for row in B])

    return gsig_involution(GramLattice(block_sum(G1.gram, G2.gram)),
                           block_sum(_as_matrix(R1), _as_matrix(R2)))
