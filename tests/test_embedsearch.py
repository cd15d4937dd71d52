import itertools
import json
import math
from collections import Counter
from fractions import Fraction

import pytest

from eqknot import (CheckerboardGraph, Embedding, GramLattice,
                    LatticeIsometry, SignedPermutation, SymmetrySpec,
                    canonical_form, donaldson_obstruction,
                    enumerate_embeddings, enumerate_vectors,
                    equivariant_delta, gl_lattice, induced_isometry,
                    orbit_classes)
from eqknot import embedsearch
from eqknot.checkerboard import _signed_order
from eqknot.cli import parse_case
from eqknot.embedsearch import _normalize_row, _orbit_size
from eqknot.lattice import is_positive_definite, mat_mul
from conftest import (brute_force_classes, brute_force_embeddings,
                      char_poly, conjugate, delta_over_all_zero_rows,
                      dense_bareiss_inertia, dense_mat_mul, embedding,
                      exhaustive_delta_exists, full_delta, full_matrix,
                      identity, matrix_order, orbit_size_by_factorials,
                      pool_embedding_classes, random_unimodular,
                      signed_perm_matrix, signed_perm_order, transpose)


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


class TestAgainstPoolSearch:
    # the search seeded from the largest-norm column, in Z^min(k, tr G),
    # against the earlier search that filtered full norm pools of Z^k:
    # the same representatives, orbit sizes, order and count
    @staticmethod
    def same_classes(G, k):
        want = pool_embedding_classes(G, k)
        got = enumerate_embeddings(G, k)
        assert got.classes == want.classes, (G, k)
        assert got.count == want.count
        return len(got.classes)

    def test_random_grams(self, rng):
        # G = E^T E for seeded random E with 1 to 5 columns and entries
        # in [-2, 2], kept when positive definite and tr(G) <= 8; into
        # Z^k for k from the rank to rank + 2 and for k above tr(G)
        tested = found = 0
        while tested < 150:
            m = rng.randint(1, 5)
            E = [[rng.choice((-2, -1, -1, 0, 0, 0, 1, 1, 2))
                  for _ in range(m)] for _ in range(rng.randint(m, m + 2))]
            gram = [[sum(r[i] * r[j] for r in E) for j in range(m)]
                    for i in range(m)]
            trace = sum(gram[j][j] for j in range(m))
            if trace > 8 or dense_bareiss_inertia(gram) != (m, 0, 0):
                continue
            for k in (m, m + 1, m + 2, trace + 1):
                found += self.same_classes(gram, k)
            tested += 1
        assert found

    @pytest.mark.parametrize("n, k", [(6, 6), (6, 7), (7, 8)])
    def test_k_minus_edge(self, n, k):
        edges = [(u, v, -1) for u in range(n) for v in range(u + 1, n)
                 if (u, v) != (0, 1)]
        self.same_classes(gl_lattice(CheckerboardGraph(n, edges)), k)

    @pytest.mark.parametrize("family", ["cycle", "wheel", "star"])
    def test_relabelled_families(self, family, rng):
        # every vertex dropped in turn from a relabelled C_n, W_n or S_n,
        # so the largest-norm column sits at every position
        for n in range(3, 7):
            if family == "cycle":
                edges = [(i, (i + 1) % n, -1) for i in range(n)]
            elif family == "wheel":
                edges = ([(i, (i + 1) % n, -1) for i in range(n)]
                         + [(i, n, -1) for i in range(n)])
            else:
                edges = [(0, i, -1) for i in range(1, n + 1)]
            size = n + (family != "cycle")
            label = list(range(size))
            rng.shuffle(label)
            g = CheckerboardGraph(size, [(label[u], label[v], w)
                                         for u, v, w in edges])
            for drop in range(size):
                G = gl_lattice(g, drop)
                for k in (G.rank, G.rank + 2):
                    self.same_classes(G, k)


class TestDeterminantExit:
    # with m the rank and n = min(k, tr G): no embedding when n < m, and
    # when n = m none unless det G is a square; both are answered before
    # the search, which starts from `_first_columns`, ever starts

    @pytest.fixture
    def searches(self, monkeypatch):
        """The norms of the first columns of the searches started, one
        entry per call of `embedsearch._first_columns`."""
        import eqknot.embedsearch as embedsearch
        calls = []
        first_columns = embedsearch._first_columns

        def counted(norm, n):
            calls.append(norm)
            return first_columns(norm, n)

        monkeypatch.setattr(embedsearch, "_first_columns", counted)
        return calls

    @staticmethod
    def check(G, k, searches):
        """enumerate_embeddings against the pool search, which has no
        exit; returns whether a search started."""
        before = len(searches)
        got = enumerate_embeddings(G, k)
        want = pool_embedding_classes(G, k)
        assert got.classes == want.classes, (G, k)
        assert got.count == want.count
        return len(searches) > before

    def test_random_grams_at_their_rank(self, rng, searches):
        # G = E^T E for seeded random E with m columns and m to m + 2
        # rows: square E gives a square det G, taller E often does not.
        # Into Z^m a search starts iff det G is a square, and into
        # Z^(m-1) never
        kinds = Counter()
        while min(kinds[True], kinds[False]) < 50:
            m = rng.randint(1, 5)
            E = [[rng.choice((-2, -1, -1, 0, 0, 0, 1, 1, 2))
                  for _ in range(m)] for _ in range(rng.randint(m, m + 2))]
            gram = [[sum(r[i] * r[j] for r in E) for j in range(m)]
                    for i in range(m)]
            if (sum(gram[j][j] for j in range(m)) > 10
                    or dense_bareiss_inertia(gram) != (m, 0, 0)):
                continue
            det = int((-1) ** m * char_poly(gram)[m])
            square = math.isqrt(det) ** 2 == det
            assert self.check(gram, m, searches) == square
            assert not self.check(gram, m - 1, searches)
            kinds[square] += 1

    @pytest.mark.parametrize("n", range(3, 8))
    def test_k_minus_edge_at_its_rank(self, n, searches):
        # det G counts the spanning trees of K_n minus an edge,
        # n^(n-3) (n-2): a square only for n = 3
        G = gl_lattice(CheckerboardGraph(n, TestKMinusEdgeLadder.edges(n)))
        assert G.rank == n - 1
        assert self.check(G, n - 1, searches) == (n == 3)
        assert not self.check(G, n - 2, searches)

    def test_k9_minus_edge_at_k8_skips_the_search(self, searches):
        # det G = 9^6 * 7 is not a square, so no embedding into Z^8, and
        # no first column is listed
        G = gl_lattice(CheckerboardGraph(9, TestKMinusEdgeLadder.edges(9)))
        embs = enumerate_embeddings(G, 8)
        assert embs.classes == () and embs.count == 0
        assert searches == []
        assert enumerate_embeddings(gl_lattice(CheckerboardGraph(
            3, TestKMinusEdgeLadder.edges(3))), 2).count == 8
        assert searches == [1]


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
            assert mat_mul(transpose(e.rows), e.rows) == ((2, 0), (0, 2))

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError):
            enumerate_embeddings([[0, 1], [1, 0]], 2)

    @pytest.mark.parametrize("gram", [
        [[2.0, 1], [1, 2.0]], [[True]], [[Fraction(2)]]])
    def test_rejects_non_int_entries(self, gram):
        with pytest.raises(ValueError, match="^matrix entries must be ints$"):
            enumerate_embeddings(gram, 3)

    def test_gram_postcondition(self):
        G = GramLattice([[2, 1], [1, 2]])
        embs = enumerate_embeddings(G, 3)
        assert embs.classes
        for e, _ in embs.classes:
            assert dense_mat_mul(transpose(e.rows), e.rows) == G.gram

    def test_representatives_sorted_and_canonical(self):
        # the documented order: representatives strictly increasing, each
        # a fixed point of canonical_form
        embs = enumerate_embeddings([[2, -1, 0], [-1, 2, -1], [0, -1, 2]], 4)
        reps = [full_matrix(e) for e, _ in embs.classes]
        assert len(reps) > 1
        assert all(a < b for a, b in zip(reps, reps[1:]))
        for e, _ in embs.classes:
            assert canonical_form(e) == e

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
            assert canonical_form(rep) == rep
            assert dense_mat_mul(transpose(rep.rows), rep.rows) == G.gram
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
        assert canonical_form(E) == E

    def test_idempotent_and_orbit_constant(self, rng):
        for _ in range(200):
            k = rng.randint(1, 5)
            m = rng.randint(1, 3)
            E = embedding(k, [tuple(rng.randint(-2, 2) for _ in range(m))
                              for _ in range(k)])
            C = canonical_form(E)
            assert canonical_form(C) == C
            perm = list(range(k))
            rng.shuffle(perm)
            signs = [rng.choice([1, -1]) for _ in range(k)]
            P = SignedPermutation(perm, signs)
            PE = mat_mul(signed_perm_matrix(P), full_matrix(E))
            assert canonical_form(embedding(k, PE)) == C


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
        E2 = Embedding(6, mat_mul(E1.rows, R))
        reps = {canonical_form(E1), canonical_form(E2)}
        assert len(reps) == 2
        # and they are the two classes of the 9_40 lattice in (Z^6, Id)
        embs = enumerate_embeddings(
            dense_mat_mul(transpose(E1.rows), E1.rows), 6)
        assert {c for c, _ in embs.classes} == reps


class TestOrbitClasses:
    def test_rank_one_single_class(self):
        embs = enumerate_embeddings([[1]], 1)
        assert len(orbit_classes(embs)) == 1

    def test_diagonal_two_single_class(self):
        embs = enumerate_embeddings([[2, 0], [0, 2]], 2)
        classes = orbit_classes(embs)
        assert len(classes) == 1
        assert classes[0][1] == 8

    def test_orbit_size_matches_factorials(self, rng):
        # many zero rows, as for k above tr(G); nonzero rows repeat
        for _ in range(300):
            m = rng.randint(1, 3)
            pool = [tuple(rng.randint(-2, 2) for _ in range(m))
                    for _ in range(rng.randint(1, 4))]
            rows = [rng.choice(pool) for _ in range(rng.randint(0, 12))]
            rows += [(0,) * m] * rng.choice([0, 1, 5, rng.randint(0, 3000)])
            rng.shuffle(rows)
            rows = tuple(rows)
            assert (_orbit_size(embedding(len(rows), rows))
                    == orbit_size_by_factorials(rows))
        # the zero rows are implied, so k = 10**20 costs nothing: e_1 has
        # 2k images, and two equal rows k(k - 1)/2 * 2^2
        k = 10**20
        assert _orbit_size(Embedding(k, [(1,)])) == 2 * k
        assert _orbit_size(Embedding(k, [(1,), (1,)])) == 2 * k * (k - 1)


@pytest.mark.parametrize("cls, args", [
    (Embedding, (2, [[1.7, 0], [Fraction(1, 2), 1]])),
    (Embedding, (2, [[True, 0], [0, 1]])),
    (Embedding, (1, [[1.0]])),
    (SignedPermutation, ((True, False), (1, 1))),
    (SignedPermutation, ((1.0, 0), (1, 1))),
    (SignedPermutation, ((1, 0), (1.0, True))),
    (SignedPermutation, ((1, 0), (Fraction(-1), 1))),
], ids=["embedding_float_fraction", "embedding_bool", "embedding_float",
        "perm_bool", "perm_float", "signs_float_bool", "signs_fraction"])
def test_rejects_non_int_entries(cls, args):
    # equal to ints by value, but neither truncated nor accepted
    with pytest.raises(ValueError):
        cls(*args)


class TestSignedPermutation:
    def test_order_from_cycles(self, rng):
        # 2-cycle with sign product -1 squares to -Id on the pair: order 4
        assert _signed_order([1, 0], [1, -1]) == 4
        assert _signed_order([1, 0], [1, 1]) == 2
        assert _signed_order([0, 1], [1, 1]) == 1
        assert _signed_order([0, 1], [-1, 1]) == 2
        # random signed permutations against the conftest oracle
        for _ in range(300):
            k = rng.randint(1, 10)
            perm = list(range(k))
            rng.shuffle(perm)
            signs = [rng.choice([1, -1]) for _ in range(k)]
            assert _signed_order(perm, signs) == signed_perm_order(perm, signs)

    def test_matrix_orthogonal(self, rng):
        for _ in range(50):
            k = rng.randint(1, 5)
            perm = list(range(k))
            rng.shuffle(perm)
            p = SignedPermutation(perm, [rng.choice([1, -1])
                                         for _ in range(k)])
            M = signed_perm_matrix(p)
            assert mat_mul(transpose(M), M) == identity(k)


def _solve_isometry(E, P):
    """Given embedding E and signed permutation P, solve E.R = P.E for an
    integer R, if possible. Independent construction of valid test pairs."""
    from fractions import Fraction
    rows = full_matrix(E)
    T = mat_mul(signed_perm_matrix(P), rows)
    k, m = E.k, E.source_rank
    # solve least-squares-free: (E^T E) R = E^T T exactly
    G = mat_mul(transpose(rows), rows)
    rhs = mat_mul(transpose(rows), T)
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
    return R if mat_mul(rows, R) == T else None


def _class_delta(E, R, order):
    """The canonical representative C of the class of E, and the delta
    that `donaldson_obstruction` gives C for the one lift R at symmetry
    order `order`: G = E^T E into Z^k, k = E.k, so k - rank G must be
    even, as sigma = rank G - k is a knot signature."""
    rows = full_matrix(E)
    G = dense_mat_mul(transpose(rows), rows)
    lift = LatticeIsometry(tuple(map(tuple, R)), matrix_order(R))
    rep = donaldson_obstruction(G, [lift], len(G) - E.k, order)
    C = canonical_form(E)
    return C, dict(rep.per_class)[C]


def _lifts(case, drop=None):
    """The isometries of the case's symmetry with lift sign +1 and -1,
    at the dropped vertex `drop`; the second is minus the first."""
    sym = case.symmetry
    lifts = [induced_isometry(case.graph, SymmetrySpec(
        sym.vertex_perm, sym.order, sym.kind, sign), drop) for sign in (1, -1)]
    assert lifts[1].matrix == tuple(tuple(-x for x in row)
                                    for row in lifts[0].matrix)
    return lifts


class TestEquivariantDelta:
    def test_identity(self):
        E = Embedding(2, [(1, 0), (0, 1)])
        d = equivariant_delta(E, [[1, 0], [0, 1]])
        assert d is not None and signed_perm_matrix(d) == identity(2)

    def test_e_identity_delta_is_r(self):
        R = [[0, 1], [1, 0]]
        E = Embedding(2, [(1, 0), (0, 1)])
        d = equivariant_delta(E, R)
        assert d is not None
        assert signed_perm_matrix(d) == ((0, 1), (1, 0))

    def test_fractional_isometry_not_truncated(self):
        # truncating 1/2 to 0 would give R = Id, matched by delta = Id;
        # an isometry must have int entries, so R is rejected
        E = Embedding(2, [(1, 0), (0, 1)])
        for R in ([[1, Fraction(1, 2)], [0, 1]], [[1, 0.5], [0, 1]],
                  [[1, 0], [0, Fraction(1)]], [[True, 0], [0, 1]]):
            with pytest.raises(ValueError,
                               match="^matrix entries must be ints$"):
                equivariant_delta(E, R)

    def test_order_constraint_strict(self):
        # delta^n = I, not order exactly n: R = I at n = 2 gives the
        # identity, and R = -I, of order 2, gives delta = -I at n = 2 but
        # no delta with delta^3 = I
        G = identity(2)
        one = LatticeIsometry(identity(2), 1)
        minus = LatticeIsometry(((-1, 0), (0, -1)), 2)

        def deltas(R, n):
            rep = donaldson_obstruction(G, [R], 0, n)
            return [d for _, d in rep.per_class]

        assert deltas(one, 2) == [SignedPermutation([0, 1], [1, 1])]
        assert deltas(minus, 2) == [SignedPermutation([0, 1], [-1, -1])]
        assert deltas(minus, 3) == [None]

    def test_singular_r_has_no_delta(self):
        # E.R has a zero row where E has a nonzero one, and a P sends
        # nonzero rows to nonzero rows
        assert equivariant_delta(Embedding(2, [(1,)]), [[0]]) is None
        # two classes of one row each with the same image, and a class
        # that is nobody's image: the class map is no bijection
        E = Embedding(2, [(1, 0), (0, 1)])
        assert equivariant_delta(E, [[1, 0], [1, 0]]) is None

    def test_image_class_of_other_size_has_no_delta(self):
        # R swaps the classes of e_1 (two rows) and e_2 (one row), so no
        # P matches the rows of one class to those of its image
        E = Embedding(3, [(1, 0), (1, 0), (0, 1)])
        assert equivariant_delta(E, [[0, 1], [1, 0]]) is None

    def test_zero_rows_free(self):
        # ambient rank exceeds the span: a delta on the one nonzero row,
        # the identity, as R = (1)
        E = Embedding(3, [(1,)])
        d = equivariant_delta(E, [[1]])
        assert d is not None and signed_perm_order(d.perm, d.signs) == 1
        assert mat_mul(signed_perm_matrix(d), E.rows) == E.rows

    def test_surplus_zero_rows_fixed(self):
        # five equal rows and three implied zero rows: delta is held on
        # the five rows, and R = (1) gives the identity
        E = Embedding(8, [(1,)] * 5)
        d = equivariant_delta(E, [[1]])
        assert d == SignedPermutation(range(5), (1,) * 5)
        assert full_delta(E, d) == SignedPermutation(range(8), (1,) * 8)

    def test_many_zero_rows(self):
        # the 10**20 - 1 zero rows are implied, so R = (1) gives the
        # identity on the one nonzero row
        E = Embedding(10**20, [(1,)])
        assert equivariant_delta(E, [[1]]) == SignedPermutation([0], [1])

    def test_leaf_builds_no_signed_permutation(self, monkeypatch):
        # G = (6) in Z^1007, whose classes include six equal rows, with
        # R = (-1) at order 3: R^3 != I rules the lift out before any
        # class is looked at, so no SignedPermutation is built
        built = []

        def counting(*args):
            built.append(args)
            return SignedPermutation(*args)

        monkeypatch.setattr(embedsearch, "SignedPermutation", counting)
        rep = donaldson_obstruction([[6]], [LatticeIsometry(((-1,),), 2)],
                                    -1006, 3)
        assert Embedding(1007, [(-1,)] * 6) in dict(rep.per_class)
        assert rep.obstructed and built == []

    def test_one_order_test_decides(self, monkeypatch):
        # R fixes e_1 and swaps e_2 and e_3 with sign product -1, so R has
        # order 4. At n = 2 one test of R.order rules the lift out and no
        # class is matched; the exhaustive oracle agrees that no delta has
        # delta^2 = I. At n = 4 the class gets a delta of order 4
        calls = []

        def counting(E, R):
            calls.append(E)
            return equivariant_delta(E, R)

        monkeypatch.setattr(embedsearch, "equivariant_delta", counting)
        R = LatticeIsometry(((1, 0, 0), (0, 0, 1), (0, -1, 0)), 4)
        rep = donaldson_obstruction(identity(3), [R], -2, 2)
        assert rep.obstructed and calls == []
        (E, _), = rep.per_class
        assert not exhaustive_delta_exists(E, R.matrix, 2)
        rep = donaldson_obstruction(identity(3), [R], -2, 4)
        (E, d), = rep.per_class
        assert calls == [E]
        assert signed_perm_order(d.perm, d.signs) == 4

    def test_same_delta_as_search_over_all_zero_rows(self, rng):
        # c copies of +-e_i for each i, shuffled, then z implied zero
        # rows, and R a signed permutation matrix, at orders n from 1 to
        # 6. With the rows sign-normalised, as in a canonical
        # representative, the matching, with each zero row fixed with
        # sign +1, is the first leaf of the backtracking over all k rows,
        # so it finds the same P where R^n = I, and where R^n != I the
        # backtracking finds no P with P^n = I. With mixed signs it may
        # find another P, so P is checked, its order is that of R, and
        # its existence is compared (k <= 5 only, as the exhaustive
        # oracle scans all 2^k * k! signed permutations)
        tested = mixed = 0
        while tested < 80:
            m, c, z = rng.randint(1, 2), rng.randint(1, 3), rng.randint(2, 4)
            if m * c + z > 8:
                continue
            tested += 1
            rows = [tuple(rng.choice((1, -1)) * (j == i) for j in range(m))
                    for i in range(m) for _ in range(c)]
            rng.shuffle(rows)
            E = Embedding(len(rows) + z, rows)
            normal = Embedding(E.k, [_normalize_row(r) for r in rows])
            image = list(range(m))
            rng.shuffle(image)
            R = [[rng.choice((1, -1)) * (j == image[i]) for j in range(m)]
                 for i in range(m)]
            order_R = matrix_order(R)
            matched = full_delta(normal, equivariant_delta(normal, R))
            got = equivariant_delta(E, R)
            if got is not None:
                assert got.k == len(E.rows)
                assert (mat_mul(signed_perm_matrix(got), E.rows)
                        == mat_mul(E.rows, R))
                assert signed_perm_order(got.perm, got.signs) == order_R
            for order in range(1, 7):
                kept = order % order_R == 0
                assert (delta_over_all_zero_rows(normal, R, order)
                        == (matched if kept else None)), (rows, R)
                if E.k > 5:
                    continue
                mixed += 1
                assert ((got is not None and kept)
                        == exhaustive_delta_exists(E, R, order)), (rows, R)
        assert mixed > 100

    def test_same_delta_on_census_classes(self):
        # every class of the CLI census at its default dropped vertex,
        # with the lifts of both signs and the case's order. The
        # representatives are canonical, so the matching, with each
        # implied zero row fixed, finds the P of the backtracking over
        # all rows
        from test_cli import _drop_vertex_cases
        tested = 0
        for name, doc in _drop_vertex_cases().items():
            case = parse_case(doc)
            G = gl_lattice(case.graph)
            if case.sigma_K is None or not is_positive_definite(G):
                continue
            order = case.symmetry.order
            for R in _lifts(case):
                rep = donaldson_obstruction(G, [R], case.sigma_K, order)
                for E, d in rep.per_class:
                    want = delta_over_all_zero_rows(E, R, order)
                    tested += 1
                    assert full_delta(E, d) == want, (name, E, R)
        assert tested > 300

    def test_delta_iff_search_over_all_zero_rows_finds_one(self):
        # every case of the CLI census at every dropped vertex, both lift
        # signs and n in {1, 2, 3, 4, 6, the case's order}: a class gets
        # a delta from donaldson_obstruction iff the backtracking over
        # all k rows finds one with delta^n = I, and each delta passes
        # delta.E = E.R and delta^n = I by dense products
        from test_cli import _drop_vertex_cases
        tested = found = 0
        for name, doc in _drop_vertex_cases().items():
            case = parse_case(doc)
            if case.sigma_K is None:
                continue
            for drop in range(case.graph.vertex_count):
                G = gl_lattice(case.graph, drop)
                if not is_positive_definite(G):
                    continue
                for R in _lifts(case, drop):
                    assert R.order == matrix_order(R.matrix)
                    for n in {1, 2, 3, 4, 6, case.symmetry.order}:
                        rep = donaldson_obstruction(G, [R], case.sigma_K, n)
                        for E, d in rep.per_class:
                            want = delta_over_all_zero_rows(E, R, n)
                            assert (d is None) == (want is None), (
                                name, drop, R, n, E)
                            tested += 1
                            if d is None:
                                continue
                            found += 1
                            P = signed_perm_matrix(full_delta(E, d))
                            rows = full_matrix(E)
                            assert (dense_mat_mul(P, rows)
                                    == dense_mat_mul(rows, R.matrix))
                            assert n % matrix_order(P) == 0
        assert tested > found > 0

    def test_exhaustive_oracle(self, rng):
        # random E and P, and R solving P.E = E.R, at orders 1 to 4: the
        # class of E gets a delta from donaldson_obstruction iff some P
        # with P.E = E.R has P^n = I
        tested = 0
        while tested < 100:
            k = rng.randint(2, 5)
            m = rng.randint(1, 3)
            E = embedding(k, [tuple(rng.randint(-1, 1) for _ in range(m))
                              for _ in range(k)])
            if (k - E.source_rank) % 2:
                continue
            perm = list(range(k))
            rng.shuffle(perm)
            P = SignedPermutation(perm, [rng.choice([1, -1])
                                         for _ in range(k)])
            R = _solve_isometry(E, P)
            if R is None:
                continue
            req = rng.choice([1, 2, 3, 4])
            C, got = _class_delta(E, R, req)
            assert (got is not None) == exhaustive_delta_exists(E, R, req)
            if got is not None:
                assert (mat_mul(signed_perm_matrix(got), C.rows)
                        == mat_mul(C.rows, R))
                assert req % signed_perm_order(got.perm, got.signs) == 0
            tested += 1


class TestDonaldsonObstruction:
    def test_unknot_like(self):
        R = LatticeIsometry(((1,),), 1)
        rep = donaldson_obstruction([[1]], [R], 0, 1)
        assert rep.k == 1
        assert not rep.obstructed

    def test_swap_two_orthogonal(self):
        R = LatticeIsometry(((0, 1), (1, 0)), 2)
        rep = donaldson_obstruction([[2, 0], [0, 2]], [R], 0, 2)
        assert not rep.obstructed
        assert any(d is not None for _, d in rep.per_class)

    def test_rejects_positive_sigma(self):
        R = LatticeIsometry(((1,),), 1)
        with pytest.raises(ValueError):
            donaldson_obstruction([[1]], [R], 2, 1)

    def test_first_kept_lift_gives_the_delta(self):
        # the lifts (-1), of order 2, and (1), of order 1, on G = (1) in
        # Z^1: at n = 2 both are kept and the first gives delta = (-1);
        # at n = 3 only the second is kept, and delta = (1)
        lifts = [LatticeIsometry(((-1,),), 2), LatticeIsometry(((1,),), 1)]
        for n, sign in ((2, -1), (3, 1)):
            rep = donaldson_obstruction([[1]], lifts, 0, n)
            assert [d for _, d in rep.per_class] == [
                SignedPermutation([0], [sign])]

    def test_lift_that_does_not_preserve_g_raises(self):
        # 9_40 at sigma -4: the lattice with vertex 1 dropped and R built
        # for another dropped vertex admit no delta, which must not read
        # as an obstruction; the matched pair is not obstructed
        from test_cli import NINE_40
        case = parse_case(json.loads(NINE_40.read_text()))
        g, s = case.graph, case.symmetry
        G = gl_lattice(g, 1)
        assert not donaldson_obstruction(
            G, [induced_isometry(g, s, 1)], -4, 2).obstructed
        for drop in (0, 2, 3, 4):
            R = induced_isometry(g, s, drop)
            with pytest.raises(ValueError, match="does not preserve"):
                donaldson_obstruction(G, [R], -4, 2)

    def test_basis_change_invariance(self, rng):
        G = ((2, 0), (0, 2))
        R = ((0, 1), (1, 0))
        base = donaldson_obstruction(G, [LatticeIsometry(R, 2)], 0, 2)
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
            rep = donaldson_obstruction(G2, [LatticeIsometry(R2, 2)], 0, 2)
            assert rep.obstructed == base.obstructed
            assert rep.class_count == base.class_count
