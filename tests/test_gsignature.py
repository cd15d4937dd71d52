from fractions import Fraction
from math import lcm

import pytest

from eqknot import (CheckerboardGraph, GramLattice, SymmetrySpec,
                    gl_full_form, gl_lattice, gsig_direct_sum,
                    gsig_involution, gsig_periodic, induced_isometry,
                    signature)
from eqknot.lattice import mat_mul
from conftest import (block_sum, conjugate, dense_bareiss_inertia,
                      dense_mat_mul, eigenspace_basis, identity,
                      random_unimodular, restrict_form, transpose)

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
        with pytest.raises(ValueError, match="^R is not an involution$"):
            gsig_involution([[1, 0], [0, 1]], [[1, 1], [0, 1]])

    def test_rejects_non_isometry(self):
        with pytest.raises(ValueError,
                           match="^R does not preserve the form$"):
            gsig_involution([[1, 0], [0, 2]], [[0, 1], [1, 0]])

    @pytest.mark.parametrize("G, R, message", [
        (GRAM_946, [[0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0],
                    [0, 0, 0, 1]], "R is not an involution"),
        ([[1, 0], [0, 1]], [[1, 0], [2, -1]],
         "R does not preserve the form"),
    ])
    def test_rejection_messages(self, G, R, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            gsig_involution(G, R)

    def test_preservation_matches_rtgr_oracle(self, rng):
        # R = U^-1 S U for a signed-permutation involution S and a random
        # unimodular U; G = U^T G0 U preserved by it, or that G with one
        # symmetric pair of entries moved. gsig_involution rejects R
        # exactly when R^T G R != G
        verdicts = []
        for _ in range(600):
            G0, S = _random_pair(rng, max_n=5)
            n = G0.rank
            U = random_unimodular(rng, n)
            R = dense_mat_mul(dense_mat_mul(
                [[int(x) for x in row] for row in _inverse(U)], S), U)
            G = [list(row) for row in conjugate(U, G0.gram)]
            if rng.random() < 0.5:
                i, j = rng.randrange(n), rng.randrange(n)
                G[i][j] += rng.choice([1, -1])
                G[j][i] = G[i][j]
            preserved = dense_mat_mul(dense_mat_mul(transpose(R), G),
                                      R) == tuple(map(tuple, G))
            if preserved:
                gsig_involution(G, R)
            else:
                with pytest.raises(ValueError,
                                   match="^R does not preserve the form$"):
                    gsig_involution(G, R)
            verdicts.append(preserved)
        assert 100 < sum(verdicts) < 500

    def test_rational_form_matches_scaled_integer_form(self, rng):
        # a rational form G/c is rejected; a positive scale keeps every
        # inertia, so the integer form c*G with R gives the report of G
        for _ in range(100):
            G, S = _random_pair(rng, max_n=6)
            c = rng.randint(2, 7)
            scaled = [[Fraction(x, c) for x in row] for row in G.gram]
            with pytest.raises(ValueError,
                               match="^matrix entries must be ints$"):
                gsig_involution(scaled, S)
            multiple = [[c * x for x in row] for row in G.gram]
            assert gsig_involution(multiple, S) == gsig_involution(G, S)
        rational = [[Fraction(x, 6) for x in row] for row in GRAM_946]
        with pytest.raises(ValueError, match="^matrix entries must be ints$"):
            gsig_involution(rational, TAU_946)

    @pytest.mark.parametrize("G, R", [
        ([[2.5, 0], [0, 1]], [[1, 0], [0, -1]]),
        ([[True, 0], [0, 1]], [[1, 0], [0, -1]]),
        ([[1, 0], [0, 1]], [[0, 2], [Fraction(1, 2), 0]]),
        ([[1, 0], [0, 1]], [[1, 0], [0, -1.0]]),
        ([[1, 0], [0, 1]], [[True, 0], [0, -1]]),
    ])
    def test_non_int_entries(self, G, R):
        with pytest.raises(ValueError, match="^matrix entries must be ints$"):
            gsig_involution(G, R)

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

    @pytest.mark.parametrize("R1", [identity(3), identity(1)])
    def test_rejects_mis_sized_isometry(self, R1):
        # R1 of rank 3 or 1 against a rank-2 G1
        with pytest.raises(ValueError, match="isometry rank"):
            gsig_direct_sum([[1, 0], [0, 1]], R1, GRAM_946, TAU_946)

    def test_additivity_random(self, rng):
        for _ in range(200):
            G1, S1 = _random_pair(rng, 3)
            G2, S2 = _random_pair(rng, 3)
            total = gsig_direct_sum(G1, S1, G2, S2).gsig
            assert total == (gsig_involution(G1, S1).gsig
                             + gsig_involution(G2, S2).gsig)


def _signed_perm(rng, n):
    perm = list(range(n))
    rng.shuffle(perm)
    P = [[0] * n for _ in range(n)]
    for i in range(n):
        P[perm[i]][i] = rng.choice([1, -1])
    return P


def _inverse(S):
    """S^-1 over the rationals by Gauss-Jordan, or None if singular."""
    n = len(S)
    A = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(S)]
    for c in range(n):
        piv = next((r for r in range(c, n) if A[r][c] != 0), None)
        if piv is None:
            return None
        A[c], A[piv] = A[piv], A[c]
        A[c] = [x / A[c][c] for x in A[c]]
        for r in range(n):
            if r != c and A[r][c] != 0:
                A[r] = [x - A[r][c] * y for x, y in zip(A[r], A[c])]
    return [row[n:] for row in A]


def _reflected_cycle(rng, n, fixed_vertex):
    """C_n with random edge weights that a reflection preserves: the one
    fixing vertex 0, or the one swapping vertices 0 and 1."""
    shift = 0 if fixed_vertex else 1
    perm = [(shift - i) % n for i in range(n)]
    weights = {}
    edges = []
    for i in range(n):
        key = frozenset((frozenset((i, (i + 1) % n)),
                         frozenset((perm[i], perm[(i + 1) % n]))))
        w = weights.setdefault(key, rng.choice([1, -1]))
        edges.append((i, (i + 1) % n, w))
    return CheckerboardGraph(n, edges), perm


def _by_definition(G, R):
    """sigma(G | ker(R - I)), sigma(G | ker(R + I)) and the dimensions of
    those kernels, from rational bases and the dense inertia oracle."""
    bases = eigenspace_basis(R, 1), eigenspace_basis(R, -1)
    sigmas = []
    for B in bases:
        n_pos, n_neg, _ = dense_bareiss_inertia(restrict_form(G, B))
        sigmas.append(n_pos - n_neg)
    return (*sigmas, tuple(map(len, bases)))


class TestAgainstEigenspaceRestriction:
    """gsig_involution against the definition: the signatures of G
    restricted to rational bases of ker(R - I) and ker(R + I), and the
    lengths of those bases as the dimensions."""

    @staticmethod
    def _check(G, R):
        rep = gsig_involution(G, R)
        sp, sm, dims = _by_definition(G, R)
        assert (rep.sigma_plus, rep.sigma_minus) == (sp, sm)
        assert rep.gsig == sp - sm
        assert rep.dims == dims
        assert all(type(d) is int for d in rep.dims)
        return rep

    def test_conjugated_946_sums(self, rng):
        for _ in range(20):
            n = rng.randint(1, 4)
            G = block_sum([GRAM_946] * n)
            R = block_sum([TAU_946] * n)
            P = _signed_perm(rng, 4 * n)
            rep = self._check(conjugate(P, G), conjugate(P, R))
            assert (rep.gsig, rep.dims) == (-4 * n, (2 * n, 2 * n))
        # ranks 32 and 48, against the known answer only
        for n in (8, 12):
            G = block_sum([GRAM_946] * n)
            R = block_sum([TAU_946] * n)
            P = _signed_perm(rng, 4 * n)
            rep = gsig_involution(conjugate(P, G), conjugate(P, R))
            assert (rep.gsig, rep.dims) == (-4 * n, (2 * n, 2 * n))

    def test_cycles_both_lift_signs(self, rng):
        for n in range(2, 9):
            for fixed_vertex in (True, False):
                g, perm = _reflected_cycle(rng, n, fixed_vertex)
                for kind in ("periodic", "strong_inversion"):
                    for lift_sign in (1, -1):
                        spec = SymmetrySpec(perm, 2, kind, lift_sign)
                        for v in range(n):
                            self._check(gl_lattice(g, v),
                                        induced_isometry(g, spec, v))

    def test_degenerate_form(self, rng):
        # the full Gordon-Litherland form has (1, ..., 1) in its radical
        for n in range(2, 9):
            g, perm = _reflected_cycle(rng, n, n % 2 == 0)
            for eps in (1, -1):
                R = [[eps if perm[j] == i else 0 for j in range(n)]
                     for i in range(n)]
                self._check(gl_full_form(g), R)
        zero = block_sum([GRAM_946, [[0, 0], [0, 0]]])
        swap = block_sum([TAU_946, [[0, 1], [1, 0]]])
        rep = self._check(zero, swap)
        assert rep.gsig == -4

    def test_plus_minus_identity(self, rng):
        for _ in range(20):
            G, _ = _random_pair(rng)
            n = G.rank
            rep = self._check(G, identity(n))
            assert rep.dims == (n, 0) and rep.sigma_minus == 0
            neg = [[-x for x in row] for row in identity(n)]
            rep = self._check(G, neg)
            assert rep.dims == (0, n) and rep.sigma_plus == 0

    def test_rational_involution(self, rng):
        # R = S E S^-1 and G = S^-T D S^-1 with E, D diagonal: R is a
        # rational involution preserving G, with eigenvectors the columns
        # of S, on which G is D. gsig_involution rejects these rational
        # matrices; when R is integral it gives the same report on c*G,
        # c the lcm of the denominators of G
        done = integral = 0
        while done < 30:
            n = rng.randint(1, 4)
            S = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            Si = _inverse(S)
            if Si is None:
                continue
            E = [rng.choice([1, -1]) for _ in range(n)]
            D = [rng.randint(-2, 2) for _ in range(n)]
            R = mat_mul(mat_mul(S, [[E[i] * (i == j) for j in range(n)]
                                    for i in range(n)]), Si)
            G = conjugate(Si, [[D[i] * (i == j) for j in range(n)]
                               for i in range(n)])
            sign = [(d > 0) - (d < 0) for d in D]
            expected = (sum(s for s, e in zip(sign, E) if e == 1),
                        sum(s for s, e in zip(sign, E) if e == -1),
                        (E.count(1), E.count(-1)))
            assert _by_definition(G, R) == expected
            with pytest.raises(ValueError,
                               match="^matrix entries must be ints$"):
                gsig_involution(G, R)
            if all(Fraction(x).denominator == 1 for row in R for x in row):
                c = lcm(*[Fraction(x).denominator for row in G for x in row])
                rep = self._check([[int(c * x) for x in row] for row in G],
                                  [[int(x) for x in row] for row in R])
                assert (rep.sigma_plus, rep.sigma_minus, rep.dims) == expected
                integral += 1
            done += 1
        assert integral

    def test_rank_mismatch(self):
        with pytest.raises(ValueError, match="rank"):
            gsig_involution(GRAM_946, identity(3))
        with pytest.raises(ValueError, match="rank"):
            gsig_involution([[1, 0], [0, 1]], [[1, 0], [0, 1, 0]])
