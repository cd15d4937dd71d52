import itertools
import math
from fractions import Fraction

import pytest

from eqknot import (CheckerboardGraph, Embedding, GramLattice,
                    LatticeIsometry, SignedPermutation, canonical_form,
                    donaldson_obstruction, enumerate_embeddings,
                    enumerate_vectors, equivariant_delta, gl_lattice,
                    orbit_classes)
from eqknot import embedsearch
from eqknot.lattice import identity, mat_mul, transpose
from conftest import (brute_force_classes, brute_force_embeddings,
                      conjugate, dense_bareiss_inertia,
                      exhaustive_delta_exists, random_unimodular)


class TestEnumerateVectors:
    def test_norm_one_dim_two(self):
        vs = enumerate_vectors(2, 1)
        assert set(vs) == {(1, 0), (-1, 0), (0, 1), (0, -1)}
        assert len(vs) == 4

    def test_norm_two_dim_two(self):
        vs = enumerate_vectors(2, 2)
        assert set(vs) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}

    def test_norm_four_dim_six_count(self):
        # frozen from the box oracle below: 12 vectors of shape (+-2, 0^5)
        # plus 240 of shape (+-1^4, 0^2)
        vs = enumerate_vectors(6, 4)
        box = [v for v in itertools.product(range(-2, 3), repeat=6)
               if sum(x * x for x in v) == 4]
        assert sorted(vs) == sorted(box)
        assert len(vs) == 252

    def test_lexicographic_order(self):
        vs = enumerate_vectors(3, 2)
        assert vs == sorted(vs)

    def test_norm_zero(self):
        assert enumerate_vectors(3, 0) == [(0, 0, 0)]

    @staticmethod
    def _recursive_vectors(k, norm):
        # the generator before the last-coordinate shortcut: every x in
        # [-b, b] at every position, a vector kept when nothing remains
        out, prefix = [], [0] * k

        def rec(i, rem):
            if i == k:
                if rem == 0:
                    out.append(tuple(prefix))
                return
            b = math.isqrt(rem)
            for x in range(-b, b + 1):
                prefix[i] = x
                rec(i + 1, rem - x * x)
            prefix[i] = 0

        rec(0, norm)
        return out

    def test_same_vectors_same_order_as_recursion(self):
        for k in range(9):
            for norm in range(9):
                assert (enumerate_vectors(k, norm)
                        == self._recursive_vectors(k, norm)), (k, norm)

    def test_one_pool_per_distinct_norm(self, monkeypatch):
        calls = []

        def counting(k, norm):
            calls.append(norm)
            return enumerate_vectors(k, norm)

        monkeypatch.setattr(embedsearch, "enumerate_vectors", counting)
        G = [[2, -1, 0], [-1, 3, -1], [0, -1, 2]]
        embs = enumerate_embeddings(G, 4)
        assert calls == [2, 3]
        monkeypatch.undo()
        assert len(embs.classes) == 1
        assert list(embs.classes) == brute_force_classes(G, 4)


class TestEnumerateEmbeddings:
    def test_rank_one(self):
        # (1) and (-1): one class of orbit size 2
        embs = enumerate_embeddings([[1]], 1)
        assert embs.classes == ((Embedding(1, [(-1,)]), 2),)
        assert embs.count == 2

    def test_two_orthogonal_norm_two(self):
        embs = enumerate_embeddings([[2, 0], [0, 2]], 2)
        assert embs.count == 8
        assert list(embs.classes) == brute_force_classes([[2, 0], [0, 2]], 2)
        for e, _ in embs.classes:
            assert mat_mul(transpose(e.matrix), e.matrix) == ((2, 0), (0, 2))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            enumerate_embeddings([[0, 1], [1, 0]], 2)

    def test_gram_postcondition(self):
        G = GramLattice([[2, 1], [1, 2]])
        embs = enumerate_embeddings(G, 3)
        assert embs.classes
        for e, _ in embs.classes:
            assert e.gram().gram == G.gram

    def test_representatives_sorted_and_canonical(self):
        # the documented order: representatives strictly increasing, each
        # a fixed point of canonical_form
        embs = enumerate_embeddings([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], 4)
        reps = [e.matrix for e, _ in embs.classes]
        assert len(reps) > 1
        assert all(a < b for a, b in zip(reps, reps[1:]))
        for e, _ in embs.classes:
            assert canonical_form(e).matrix == e.matrix

    def test_brute_force_oracle_small(self, rng):
        # fixed sweep of small forms plus randoms; pruned == unpruned
        cases = [([[1]], 1), ([[2]], 2), ([[1, 0], [0, 1]], 2),
                 ([[2, 1], [1, 2]], 3), ([[3, 0], [0, 3]], 3),
                 ([[2, 1], [1, 2]], 2)]  # none: prunes to empty
        # seeded randoms G = E^T E, E a k x m matrix over {-1, 0, 1}, into
        # Z^k or Z^(k+1); kept when positive definite and when brute force
        # has at most 10^5 column tuples to try
        randoms = []
        while len(randoms) < 40:
            k, m = rng.randint(1, 5), rng.randint(1, 3)
            E = [[rng.randint(-1, 1) for _ in range(m)] for _ in range(k)]
            gram = [[sum(row[i] * row[j] for row in E) for j in range(m)]
                    for i in range(m)]
            k += rng.randint(0, 1)
            tuples = math.prod(len(enumerate_vectors(k, gram[j][j]))
                               for j in range(m))
            if tuples <= 10 ** 5 and dense_bareiss_inertia(gram) == (m, 0, 0):
                randoms.append((gram, k))
        for gram, k in cases + randoms:
            embs = enumerate_embeddings(gram, k)
            # the generated classes against bucketing every brute-force
            # embedding: representatives and orbit sizes alike
            assert list(embs.classes) == brute_force_classes(gram, k)
            assert embs.count == len(brute_force_embeddings(gram, k))


class TestKMinusEdgeLadder:
    # K_n minus one edge, all weights -1: a rank n-1 Gordon-Litherland
    # lattice. The counts were confirmed with perfbench/oracle.py, which
    # does not use eqknot; K6 at k=6 also matches the earlier enumerator,
    # which listed all 552,960 embeddings.
    @staticmethod
    def edges(n):
        return [(u, v, -1) for u in range(n) for v in range(u + 1, n)
                if (u, v) != (0, 1)]

    def classes(self, k, n=6):
        G = gl_lattice(CheckerboardGraph(n, self.edges(n)))
        embs = enumerate_embeddings(G, k)
        for rep, _ in embs.classes:
            assert canonical_form(rep).matrix == rep.matrix
            assert rep.gram().gram == G.gram
        assert orbit_classes(embs) == list(embs.classes)
        return embs

    def test_k6(self):
        embs = self.classes(6)
        assert len(embs.classes) == 12
        assert sum(size for _, size in embs.classes) == 552960
        assert embs.count == 552960

    def test_k7(self):
        embs = self.classes(7)
        assert len(embs.classes) == 60
        assert embs.count == 34836480

    @pytest.mark.parametrize("n, k, classes, count", [
        (7, 8, 0, 0),
        (8, 9, 1575, 141668352000),
    ])
    def test_larger(self, n, k, classes, count):
        embs = self.classes(k, n)
        assert len(embs.classes) == classes
        assert sum(size for _, size in embs.classes) == count
        assert embs.count == count


class TestCanonicalForm:
    def test_fixed_point(self):
        # rows sorted, each lex-smaller than its negation: already minimal
        E = Embedding(3, [(-1, -1), (-1, 0), (0, -1)])
        assert canonical_form(E).matrix == E.matrix

    def test_idempotent_and_orbit_constant(self, rng):
        for _ in range(200):
            k = rng.randint(1, 5)
            m = rng.randint(1, 3)
            E = Embedding(k, [tuple(rng.randint(-2, 2) for _ in range(m))
                              for _ in range(k)])
            C = canonical_form(E)
            assert canonical_form(C).matrix == C.matrix
            perm = list(range(k))
            rng.shuffle(perm)
            signs = [rng.choice([1, -1]) for _ in range(k)]
            P = SignedPermutation(perm, signs)
            PE = mat_mul(P.matrix(), E.matrix)
            assert canonical_form(Embedding(k, PE)).matrix == C.matrix


class TestNine40FigureEmbeddings:
    # explicit images of the first four vertex classes, read off the
    # published pair of embeddings; the second differs by the symmetry
    VECTORS = [(1, -1, -1, 1, 0, 0), (1, 1, 1, 0, 0, 0),
               (-1, 1, -1, 0, -1, 0), (0, 0, 0, -1, 1, 1)]

    def test_two_distinct_canonical_forms(self):
        E1 = Embedding(6, [tuple(v[r] for v in self.VECTORS)
                           for r in range(6)])
        # the symmetry swaps basis vectors v0<->v2, v1<->v3
        R = ((0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 0, 0), (0, 1, 0, 0))
        E2 = Embedding(6, mat_mul(E1.matrix, R))
        reps = {canonical_form(E1).matrix, canonical_form(E2).matrix}
        assert len(reps) == 2
        # and they are the two classes of the 9_40 lattice in (Z^6, Id)
        embs = enumerate_embeddings(E1.gram(), 6)
        assert {c.matrix for c, _ in embs.classes} == reps


class TestOrbitClasses:
    def test_rank_one_single_class(self):
        embs = enumerate_embeddings([[1]], 1)
        assert len(orbit_classes(embs)) == 1

    def test_diagonal_two_single_class(self):
        embs = enumerate_embeddings([[2, 0], [0, 2]], 2)
        classes = orbit_classes(embs)
        assert len(classes) == 1
        assert classes[0][1] == 8


class TestSignedPermutation:
    def test_order_from_cycles(self):
        # 2-cycle with sign product -1 squares to -Id on the pair: order 4
        p = SignedPermutation([1, 0], [1, -1])
        assert p.order() == 4
        q = SignedPermutation([1, 0], [1, 1])
        assert q.order() == 2
        assert SignedPermutation([0, 1], [1, 1]).order() == 1
        assert SignedPermutation([0, 1], [-1, 1]).order() == 2

    def test_matrix_orthogonal(self, rng):
        for _ in range(50):
            k = rng.randint(1, 5)
            perm = list(range(k))
            rng.shuffle(perm)
            p = SignedPermutation(perm, [rng.choice([1, -1])
                                         for _ in range(k)])
            M = p.matrix()
            assert mat_mul(transpose(M), M) == identity(k)


def _solve_isometry(E, P):
    """Given embedding E and signed permutation P, solve E.R = P.E for an
    integer R, if possible. Independent construction of valid test pairs."""
    from fractions import Fraction
    T = mat_mul(P.matrix(), E.matrix)
    k, m = E.k, E.source_rank
    # solve least-squares-free: (E^T E) R = E^T T exactly
    G = mat_mul(transpose(E.matrix), E.matrix)
    rhs = mat_mul(transpose(E.matrix), T)
    A = [[Fraction(G[i][j]) for j in range(m)] + [Fraction(x) for x in rhs[i]]
         for i in range(m)]
    for c in range(m):
        piv = next((r for r in range(c, m) if A[r][c] != 0), None)
        if piv is None:
            return None
        A[c], A[piv] = A[piv], A[c]
        d = A[c][c]
        A[c] = [x / d for x in A[c]]
        for r in range(m):
            if r != c and A[r][c] != 0:
                f = A[r][c]
                A[r] = [x - f * y for x, y in zip(A[r], A[c])]
    R = tuple(tuple(A[i][m + j] for j in range(m)) for i in range(m))
    if any(x.denominator != 1 for row in R for x in row):
        return None
    R = tuple(tuple(int(x) for x in row) for row in R)
    return R if mat_mul(E.matrix, R) == T else None


class TestEquivariantDelta:
    def test_identity(self):
        E = Embedding(2, [(1, 0), (0, 1)])
        d = equivariant_delta(E, [[1, 0], [0, 1]], 1)
        assert d is not None and d.matrix() == identity(2)

    def test_e_identity_delta_is_r(self):
        R = [[0, 1], [1, 0]]
        E = Embedding(2, [(1, 0), (0, 1)])
        d = equivariant_delta(E, R, 2)
        assert d is not None
        assert d.matrix() == ((0, 1), (1, 0))

    def test_fractional_isometry_not_truncated(self):
        # truncating 1/2 to 0 would give R = Id, matched by delta = Id
        E = Embedding(2, [(1, 0), (0, 1)])
        R = [[1, Fraction(1, 2)], [0, 1]]
        assert equivariant_delta(E, R, 1) is None

    def test_order_constraint_strict(self):
        E = Embedding(2, [(1, 0), (0, 1)])
        assert equivariant_delta(E, [[1, 0], [0, 1]], 2) is None

    def test_zero_rows_free(self):
        # ambient rank exceeds the span: free rows complete to the order
        E = Embedding(3, [(1,), (0,), (0,)])
        d = equivariant_delta(E, [[1]], 2)
        assert d is not None and d.order() == 2
        assert mat_mul(d.matrix(), E.matrix) == E.matrix

    def test_exhaustive_oracle(self, rng):
        tested = 0
        while tested < 100:
            k = rng.randint(2, 5)
            m = rng.randint(1, 3)
            E = Embedding(k, [tuple(rng.randint(-1, 1) for _ in range(m))
                              for _ in range(k)])
            perm = list(range(k))
            rng.shuffle(perm)
            P = SignedPermutation(perm, [rng.choice([1, -1])
                                         for _ in range(k)])
            R = _solve_isometry(E, P)
            if R is None:
                continue
            req = rng.choice([1, 2, 3, 4])
            got = equivariant_delta(E, R, req)
            want = exhaustive_delta_exists(E, R, req)
            assert (got is not None) == want
            if got is not None:
                assert mat_mul(got.matrix(), E.matrix) == mat_mul(E.matrix, R)
                assert got.order() == req
            tested += 1


class TestDonaldsonObstruction:
    def test_unknot_like(self):
        R = LatticeIsometry(((1,),), 1)
        rep = donaldson_obstruction([[1]], R, 0, 1)
        assert rep.k == 1
        assert not rep.obstructed

    def test_swap_two_orthogonal(self):
        R = LatticeIsometry(((0, 1), (1, 0)), 2)
        rep = donaldson_obstruction([[2, 0], [0, 2]], R, 0, 2)
        assert not rep.obstructed
        assert any(d is not None for _, d in rep.per_class)

    def test_rejects_positive_sigma(self):
        R = LatticeIsometry(((1,),), 1)
        with pytest.raises(ValueError):
            donaldson_obstruction([[1]], R, 2, 1)

    def test_basis_change_invariance(self, rng):
        G = ((2, 0), (0, 2))
        R = ((0, 1), (1, 0))
        base = donaldson_obstruction(G, LatticeIsometry(R, 2), 0, 2)
        from fractions import Fraction
        for _ in range(10):
            U = random_unimodular(rng, 2)
            G2 = conjugate(U, G)
            # R' = U^-1 R U
            det = U[0][0] * U[1][1] - U[0][1] * U[1][0]
            inv = ((Fraction(U[1][1], det), Fraction(-U[0][1], det)),
                   (Fraction(-U[1][0], det), Fraction(U[0][0], det)))
            R2 = mat_mul(mat_mul(inv, R), U)
            R2 = tuple(tuple(int(x) for x in row) for row in R2)
            rep = donaldson_obstruction(G2, LatticeIsometry(R2, 2), 0, 2)
            assert rep.obstructed == base.obstructed
            assert rep.class_count == base.class_count
