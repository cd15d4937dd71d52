"""g-signatures of symmetric knots.

Order-2 symmetries are handled exactly through eigenspace restrictions of
the form; n-periodic knots go through the closed quotient-signature
formula sigma~ = (n*sigma(quotient) - sigma(K)) / (n-1). For strong
inversions the input form must come from a butterfly surface; that is a
caller obligation this module cannot check.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .lattice import (GramLattice, _as_matrix, eigenspace_basis, identity,
                      mat_eq, mat_mul, restrict_form, signature, transpose)


@dataclass(frozen=True)
class GSignatureReport:
    sigma_plus: int
    sigma_minus: int
    gsig: int | Fraction
    dims: tuple[int, int]


def gsig_involution(G: GramLattice | Sequence[Sequence[int]],
                    R) -> GSignatureReport:
    """sigma~ = sigma(G | ker(R-I)) - sigma(G | ker(R+I)) for an involution
    R preserving G."""
    if not isinstance(G, GramLattice):
        G = GramLattice(G)
    Rm = _as_matrix(R)
    n = G.rank
    if len(Rm) != n:
        raise ValueError("isometry rank does not match form rank")
    if not mat_eq(mat_mul(Rm, Rm), identity(n)):
        raise ValueError("R is not an involution")
    if not mat_eq(mat_mul(mat_mul(transpose(Rm), G.gram), Rm), G.gram):
        raise ValueError("R does not preserve the form")
    plus = eigenspace_basis(Rm, 1)
    minus = eigenspace_basis(Rm, -1)
    sp = signature(restrict_form(G, plus)).sigma if plus else 0
    sm = signature(restrict_form(G, minus)).sigma if minus else 0
    return GSignatureReport(sigma_plus=sp, sigma_minus=sm, gsig=sp - sm,
                            dims=(len(plus), len(minus)))


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
