"""g-signatures of symmetric knots.

For an order-2 symmetry R of a form G, sigma~ = sigma(G | ker(R-I)) -
sigma(G | ker(R+I)). No eigenspace basis is needed: R^T G = G R, so
(I+-R)^T G (I+-R) = 2(G +- G R), and I+-R maps Q^n onto ker(R-+I), so
sigma(G | ker(R-+I)) = sigma(G +- G R), an integer matrix when G and R
are. The eigenspace dimensions are (n +- tr R)/2. n-periodic knots go
through the closed quotient-signature formula
sigma~ = (n*sigma(quotient) - sigma(K)) / (n-1). For strong
inversions the input form must come from a butterfly surface; that is a
caller obligation this module cannot check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .lattice import (GramLattice, _as_matrix, _inertia, _row_mul, _rows,
                      transpose)


@dataclass(frozen=True)
class GSignatureReport:
    sigma_plus: int
    sigma_minus: int
    gsig: int | Fraction
    dims: tuple[int, int]


def gsig_involution(G: GramLattice | Sequence[Sequence[int]],
                    R) -> GSignatureReport:
    """sigma~ = sigma(G | ker(R-I)) - sigma(G | ker(R+I)) for an involution
    R preserving G, as sigma(G + G R) - sigma(G - G R). R^2 = I and
    R^T G R = G are checked on sparse rows, and G +- G R, symmetric once
    they hold, goes to the elimination as sparse rows."""
    if not isinstance(G, GramLattice):
        G = GramLattice(G)
    Rm = _as_matrix(R)
    n = G.rank
    if len(Rm) != n or any(len(row) != n for row in Rm):
        raise ValueError("isometry rank does not match form rank")
    Rr, Gr = _rows(Rm), _rows(G.gram)
    if _row_mul(Rr, Rr) != [{i: 1} for i in range(n)]:
        raise ValueError("R is not an involution")
    GR = _row_mul(Gr, Rr)
    if _row_mul(_rows(transpose(Rm)), GR) != Gr:
        raise ValueError("R does not preserve the form")
    trace = int(sum(Rm[i][i] for i in range(n)))
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
        return _inertia(rows).sigma

    sp = sigma_of(1) if dp else 0
    sm = sigma_of(-1) if dm else 0
    return GSignatureReport(sigma_plus=sp, sigma_minus=sm, gsig=sp - sm,
                            dims=(dp, dm))


def gsig_periodic(n: int, sigma_K: int, sigma_quotient: int) -> Fraction:
    """Exact g-signature of an n-periodic knot from the two signatures:
    (n*sigma(quotient) - sigma(K)) / (n-1)."""
    if n < 2:
        raise ValueError("period must be >= 2")
    return Fraction(n * sigma_quotient - sigma_K, n - 1)


def gsig_direct_sum(G1, R1, G2, R2) -> GSignatureReport:
    """g-signature of the block sum; additive under equivariant connect
    sum, so it equals gsig(G1,R1) + gsig(G2,R2)."""
    if not isinstance(G1, GramLattice):
        G1 = GramLattice(G1)
    if not isinstance(G2, GramLattice):
        G2 = GramLattice(G2)
    R1m, R2m = _as_matrix(R1), _as_matrix(R2)
    n1, n2 = G1.rank, G2.rank
    G = [[0] * (n1 + n2) for _ in range(n1 + n2)]
    R = [[0] * (n1 + n2) for _ in range(n1 + n2)]
    for i in range(n1):
        for j in range(n1):
            G[i][j] = G1.gram[i][j]
            R[i][j] = R1m[i][j]
    for i in range(n2):
        for j in range(n2):
            G[n1 + i][n1 + j] = G2.gram[i][j]
            R[n1 + i][n1 + j] = R2m[i][j]
    return gsig_involution(GramLattice(G), R)
