from fractions import Fraction

import pytest

from eqknot import (GramLattice, gsig_direct_sum, gsig_involution,
                    gsig_periodic, signature)
from eqknot.lattice import identity, mat_mul, transpose

GRAM_946 = [[0, 2, -1, 0], [2, 0, 0, -1], [-1, 0, 0, 2], [0, -1, 2, 0]]
TAU_946 = [[0, -1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]]


def _random_pair(rng, max_n=4):
    """A symmetric integer form with a signed-permutation involution
    preserving it: symmetrize a random form over the involution."""
    n = rng.randint(1, max_n)
    perm = list(range(n))
    idx = list(range(n))
    rng.shuffle(idx)
    for a, b in zip(idx[::2], idx[1::2]):
        perm[a], perm[b] = perm[b], perm[a]
    S = [[0] * n for _ in range(n)]
    for i in range(n):
        if perm[i] == i:
            S[i][i] = rng.choice([1, -1])
        elif perm[i] > i:
            s = rng.choice([1, -1])
            S[i][perm[i]] = s
            S[perm[i]][i] = s
    S = tuple(tuple(row) for row in S)
    M = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            M[i][j] = M[j][i] = rng.randint(-3, 3)
    G = mat_mul(mat_mul(transpose(S), M), S)
    G = tuple(tuple(M[i][j] + G[i][j] for j in range(n)) for i in range(n))
    return GramLattice(G), S


class TestInvolution:
    def test_946(self):
        rep = gsig_involution(GRAM_946, TAU_946)
        assert rep.gsig == -4
        assert rep.sigma_plus == -2
        assert rep.sigma_minus == 2
        assert rep.dims == (2, 2)

    def test_identity_gives_signature(self):
        rep = gsig_involution(GRAM_946, identity(4))
        assert rep.gsig == signature(GRAM_946).sigma

    def test_minus_identity_negates(self):
        neg = tuple(tuple(-1 if i == j else 0 for j in range(4))
                    for i in range(4))
        rep = gsig_involution(GRAM_946, neg)
        assert rep.gsig == -signature(GRAM_946).sigma

    def test_rejects_non_involution(self):
        with pytest.raises(ValueError):
            gsig_involution([[1, 0], [0, 1]], [[1, 1], [0, 1]])

    def test_rejects_non_isometry(self):
        with pytest.raises(ValueError):
            gsig_involution([[1, 0], [0, 2]], [[0, 1], [1, 0]])

    def test_fractional_entry_not_truncated(self):
        # truncating 1/2 to 0 would make this the identity, an involution
        with pytest.raises(ValueError):
            gsig_involution([[1, 0], [0, 1]], [[1, Fraction(1, 2)], [0, 1]])
        with pytest.raises(ValueError):
            gsig_involution([[1, 0], [0, 1]], [[1, 0.5], [0, 1]])

    def test_antipode_negation(self, rng):
        for _ in range(200):
            G, S = _random_pair(rng)
            neg = tuple(tuple(-x for x in row) for row in S)
            assert gsig_involution(G, neg).gsig == -gsig_involution(G, S).gsig

    def test_bounded_by_rank(self, rng):
        for _ in range(200):
            G, S = _random_pair(rng)
            assert abs(gsig_involution(G, S).gsig) <= G.rank


class TestPeriodic:
    def test_montesinos_t3(self):
        assert gsig_periodic(2, -2, 2) == 6

    def test_period_22_crossing(self):
        assert gsig_periodic(2, -4, 2) == 8

    def test_zero(self):
        assert gsig_periodic(2, 0, 0) == 0

    def test_rational_for_higher_period(self):
        assert gsig_periodic(4, -2, 1) == Fraction(6, 3)
        assert gsig_periodic(3, -1, 0) == Fraction(1, 2)

    def test_n2_closed_form(self, rng):
        for _ in range(50):
            sk = rng.randint(-8, 8)
            sq = rng.randint(-8, 8)
            assert gsig_periodic(2, sk, sq) == 2 * sq - sk


class TestDirectSum:
    def test_double_946(self):
        rep = gsig_direct_sum(GRAM_946, TAU_946, GRAM_946, TAU_946)
        assert rep.gsig == -8

    def test_empty_second_summand(self):
        rep = gsig_direct_sum(GRAM_946, TAU_946, [], [])
        assert rep.gsig == -4

    def test_sum_with_identity_block(self):
        G2 = [[1, 0], [0, -1]]
        rep = gsig_direct_sum(GRAM_946, TAU_946, G2, identity(2))
        assert rep.gsig == -4 + signature(G2).sigma

    def test_additivity_random(self, rng):
        for _ in range(200):
            G1, S1 = _random_pair(rng, 3)
            G2, S2 = _random_pair(rng, 3)
            total = gsig_direct_sum(G1, S1, G2, S2).gsig
            assert total == (gsig_involution(G1, S1).gsig
                             + gsig_involution(G2, S2).gsig)
