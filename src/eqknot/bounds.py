"""Lower and upper bounds on the equivariant 4-genus, and their aggregation.

All bound values are exact rationals; the integer ceiling is taken only in
the report layer, since the genus itself is an integer.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil
from typing import NamedTuple, Optional

from .embedsearch import ObstructionReport
from .gsignature import gsig_periodic


class BoundsInput(NamedTuple):
    """Optional ingredients; each bound is evaluated only when its required
    fields are present.

    genus_upper is any directly-known upper bound on the equivariant
    4-genus, e.g. the genus of an equivariant Seifert surface.
    """

    period_n: Optional[int] = None
    sigma_K: Optional[int] = None
    sigma_quotient: Optional[int] = None
    g4top_quotient: Optional[int] = None
    linking_lambda: Optional[int] = None
    gsig: Optional[int | Fraction] = None
    equivariant_unknotting_moves: Optional[int] = None
    g4_K: Optional[int] = None
    genus_upper: Optional[int] = None


class LowerBound(NamedTuple):
    name: str
    value: Fraction
    ceiling: int


class BoundsReport(NamedTuple):
    lower_bounds: tuple[LowerBound, ...]
    upper_bounds: tuple[tuple[str, int], ...]
    best_lower: Optional[int]
    best_upper: Optional[int]
    consistent: bool


def rh_bound(n: int, g4top_quotient: int, linking_lambda: int) -> Fraction:
    """Riemann-Hurwitz lower bound for an n-periodic knot:
    n * g4^top(quotient) + (n-1)(|lambda|-1)/2."""
    if n < 2:
        raise ValueError("period must be >= 2")
    return (n * Fraction(g4top_quotient)
            + Fraction((n - 1) * (abs(linking_lambda) - 1), 2))


def gsig_periodic_bound(n: int, sigma_K: int, sigma_quotient: int) -> Fraction:
    """g-signature lower bound for an n-periodic knot:
    |n*sigma(quotient) - sigma(K)| / (2(n-1))."""
    return gsig_genus_bound(gsig_periodic(n, sigma_K, sigma_quotient))


def gsig_genus_bound(gsig: int | Fraction) -> Fraction:
    """|sigma~|/2: bounds the equivariant 4-genus (periodic input) or the
    butterfly 4-genus (strongly invertible input)."""
    return abs(Fraction(gsig)) / 2


def crossing_change_upper(base_genus: int, n_changes: int) -> int:
    """Upper bound through n equivariant crossing changes to a knot of
    known equivariant 4-genus (base the unknot: base_genus = 0)."""
    if base_genus < 0 or n_changes < 0:
        raise ValueError("inputs must be non-negative")
    return base_genus + n_changes


def aggregate(inp: BoundsInput,
              obstruction: Optional[ObstructionReport] = None) -> BoundsReport:
    """Evaluate every applicable bound and combine into one verdict.

    The Donaldson entry (-sigma/2 + 1) is added when an obstructed report
    is supplied together with sigma_K. Inconsistent inputs are reported
    through the `consistent` flag, never rejected.
    """
    lowers: list[LowerBound] = []
    uppers: list[tuple[str, int]] = []

    def add_lower(name: str, value: Fraction | int):
        v = Fraction(value)
        lowers.append(LowerBound(name, v, ceil(v)))

    if (inp.period_n is not None and inp.sigma_K is not None
            and inp.sigma_quotient is not None):
        add_lower("g-signature (periodic)",
                  gsig_periodic_bound(inp.period_n, inp.sigma_K,
                                      inp.sigma_quotient))
    if (inp.period_n is not None and inp.g4top_quotient is not None
            and inp.linking_lambda is not None):
        add_lower("riemann-hurwitz",
                  rh_bound(inp.period_n, inp.g4top_quotient,
                           inp.linking_lambda))
    if inp.gsig is not None:
        add_lower("g-signature", gsig_genus_bound(inp.gsig))
    if inp.g4_K is not None:
        add_lower("4-genus", inp.g4_K)
    if (obstruction is not None and obstruction.obstructed
            and inp.sigma_K is not None):
        add_lower("donaldson", Fraction(-inp.sigma_K, 2) + 1)

    if inp.equivariant_unknotting_moves is not None:
        uppers.append(("crossing-changes",
                       crossing_change_upper(0, inp.equivariant_unknotting_moves)))
    if inp.genus_upper is not None:
        uppers.append(("genus-upper", inp.genus_upper))

    best_lower = max((b.ceiling for b in lowers), default=None)
    best_upper = min((u for _, u in uppers), default=None)
    consistent = (best_lower is None or best_upper is None
                  or best_lower <= best_upper)
    return BoundsReport(lower_bounds=tuple(lowers),
                        upper_bounds=tuple(uppers),
                        best_lower=best_lower, best_upper=best_upper,
                        consistent=consistent)
