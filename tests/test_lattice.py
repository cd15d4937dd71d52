import copy
import pickle
import random
from fractions import Fraction

import pytest

from eqknot import (CheckerboardGraph, Embedding, GramLattice,
                    SignedPermutation, SymmetrySpec, is_positive_definite,
                    signature)
from eqknot.lattice import _freeze, _row_mul, _rows, mat_mul
from conftest import (block_sum, char_poly, conjugate, dense_bareiss_inertia,
                      dense_mat_mul, eigenspace_basis, identity,
                      inertia_by_descartes, random_unimodular, restrict_form,
                      transpose)

GRAM_946 = [[0, 2, -1, 0], [2, 0, 0, -1], [-1, 0, 0, 2], [0, -1, 2, 0]]
TAU_946 = [[0, -1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]]
GRAM_940_QUOTIENT = [[4, -1, -1, -1], [-1, 3, -1, 0],
                     [-1, -1, 4, -1], [-1, 0, -1, 3]]


class TestSignature:
    def test_negative_definite_2x2(self):
        s = signature([[-4, -2], [-2, -4]])
        assert (s.n_pos, s.n_neg, s.n_zero) == (0, 2, 0)
        assert s.sigma == -2

    def test_positive_definite_2x2(self):
        s = signature([[4, -2], [-2, 4]])
        assert (s.n_pos, s.n_neg, s.n_zero) == (2, 0, 0)
        assert s.sigma == 2

    def test_empty_form(self):
        s = signature([])
        assert (s.n_pos, s.n_neg, s.n_zero) == (0, 0, 0)

    def test_hyperbolic_plane(self):
        s = signature([[0, 1], [1, 0]])
        assert (s.n_pos, s.n_neg, s.n_zero) == (1, 1, 0)

    def test_zero_block_with_radical(self):
        s = signature([[0, 0], [0, 0]])
        assert (s.n_pos, s.n_neg, s.n_zero) == (0, 0, 2)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            signature([[0, 1], [2, 0]])

    def test_sylvester_oracle(self, rng):
        # inertia from congruence diagonalization vs char-poly Descartes
        for _ in range(200):
            m = rng.randint(1, 6)
            M = [[0] * m for _ in range(m)]
            for i in range(m):
                for j in range(i, m):
                    M[i][j] = M[j][i] = rng.randint(-5, 5)
            s = signature(M)
            assert (s.n_pos, s.n_neg, s.n_zero) == inertia_by_descartes(M)

    @staticmethod
    def _random_form(rng, kind):
        n = rng.randint(1, 9)
        if kind == "low_rank":
            # B^T D B with B of r < n rows: rank at most r
            r = rng.randint(0, n - 1)
            B = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(r)]
            D = [[rng.choice((-2, -1, 1, 2)) if i == j else 0
                  for j in range(r)] for i in range(r)]
            if not r:
                return [[0] * n for _ in range(n)]
            return [list(row) for row in conjugate(B, D)]
        if kind == "hyperbolic":
            # hyperbolic planes, zeros and a few nonzero squares, mixed by
            # a unimodular change of basis: zero pivots turn up mid-way
            D = [[0] * n for _ in range(n)]
            i = 0
            while i < n:
                pick = rng.random()
                if pick < 0.5 and i + 1 < n:
                    D[i][i + 1] = D[i + 1][i] = rng.choice((-2, -1, 1, 3))
                    i += 2
                    continue
                D[i][i] = 0 if pick < 0.75 else rng.choice((-3, -1, 2))
                i += 1
            U = random_unimodular(rng, n, rng.randint(0, 4))
            return [list(row) for row in conjugate(U, D)]
        M = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if kind == "fraction":
                    x = Fraction(rng.randint(-6, 6),
                                 rng.choice((1, 2, 3, 4, 6)))
                else:
                    x = rng.randint(-4, 4) if rng.random() < 0.6 else 0
                M[i][j] = M[j][i] = x
            if kind == "zero_diagonal" or (kind == "fraction"
                                           and rng.random() < 0.5):
                M[i][i] = 0
        return M

    @pytest.mark.parametrize("kind", ["dense", "zero_diagonal", "low_rank",
                                      "hyperbolic", "fraction"])
    def test_differential_descartes(self, rng, kind):
        # fraction-free elimination vs char-poly Descartes, n <= 9; a
        # rational form is rejected, and its integer multiple 12*M, which
        # as a positive scale keeps the inertia, is eliminated instead
        for _ in range(80):
            M = self._random_form(rng, kind)
            expected = inertia_by_descartes(M)
            if kind == "fraction":
                if any(type(x) is Fraction for row in M for x in row):
                    with pytest.raises(ValueError,
                                       match="^matrix entries must be ints$"):
                        signature(M)
                M = [[int(12 * x) for x in row] for row in M]
            s = signature(M)
            assert (s.n_pos, s.n_neg, s.n_zero) == expected, M

    @pytest.mark.parametrize("kind", ["dense", "zero_diagonal", "low_rank",
                                      "hyperbolic"])
    def test_determinant_is_the_last_pivot(self, rng, kind):
        # the determinant `signature` keeps against the constant term of
        # det(xI - M), which is det(-M) = (-1)^n det M
        for _ in range(80):
            M = self._random_form(rng, kind)
            G = GramLattice(M)
            s = signature(G)
            n = len(M)
            assert G._det == (-1) ** n * char_poly(M)[n], M
            assert (G._det == 0) == (s.n_zero > 0)
        for M, det in (([], 1), ([[0, 1], [1, 0]], -1), ([[0, 0], [0, 0]], 0),
                       (GRAM_946, 9), (GRAM_940_QUOTIENT, 75)):
            G = GramLattice(M)
            signature(G)
            assert G._det == det

    def test_congruence_invariance(self, rng):
        for _ in range(200):
            m = rng.randint(1, 5)
            M = [[0] * m for _ in range(m)]
            for i in range(m):
                for j in range(i, m):
                    M[i][j] = M[j][i] = rng.randint(-5, 5)
            U = random_unimodular(rng, m)
            assert signature(conjugate(U, M)) == signature(M)


def _triple(M):
    s = signature(M)
    return (s.n_pos, s.n_neg, s.n_zero)


def _relabel(rng, M):
    """P^T M P for a random signed permutation P."""
    n = len(M)
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return [[signs[i] * signs[j] * M[perm[i]][perm[j]] for j in range(n)]
            for i in range(n)]


def _graph_form(rng, n, edges):
    """A form supported on a graph: random diagonal, zero included, and a
    random nonzero weight on each edge."""
    M = [[0] * n for _ in range(n)]
    for i in range(n):
        M[i][i] = rng.choice((0, 0, 1, -1, 2, -2, 3, -5))
    for a, b in edges:
        M[a][b] = M[b][a] = rng.choice((1, -1, 2, -3))
    return M


def _small_block(rng):
    """A random form of rank <= 4: dense, zero-diagonal, a hyperbolic
    plane or a radical."""
    kind = rng.randrange(4)
    if kind == 0:
        h = rng.choice((1, -2, 3))
        return [[0, h], [h, 0]]
    n = rng.randint(1, 4)
    if kind == 1:
        return [[0] * n for _ in range(n)]
    M = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            M[i][j] = M[j][i] = rng.randint(-3, 3)
        if kind == 2:
            M[i][i] = 0
    return M


class TestSparseAgainstDense:
    """signature, whose pivot order and row scales depend on the sparsity
    pattern, against dense Bareiss in index order, at ranks up to 48."""

    def test_relabelled_paths_cycles_trees(self, rng):
        for n in (*range(1, 13), 16, 24, 31, 40, 48):
            for shape in ("path", "cycle", "tree"):
                if shape == "tree":
                    edges = [(rng.randrange(v), v) for v in range(1, n)]
                else:
                    edges = [(i, i + 1) for i in range(n - 1)]
                    if shape == "cycle" and n > 2:
                        edges.append((n - 1, 0))
                M = _relabel(rng, _graph_form(rng, n, edges))
                assert _triple(M) == dense_bareiss_inertia(M), M

    def test_relabelled_block_sums(self, rng):
        for _ in range(150):
            blocks = []
            while sum(map(len, blocks)) < rng.randint(1, 48):
                blocks.append(_small_block(rng))
            M = _relabel(rng, block_sum(blocks))
            assert _triple(M) == dense_bareiss_inertia(M), M

    def test_late_pivots_and_late_addition_trick(self, rng):
        # 1x1 blocks |c| > 1 have the fewest nonzeros and go first, so
        # prev moves off 1 while the other rows keep scale 1; the small
        # blocks then pivot on rows never rewritten. In v v^T the first
        # pivot leaves the other rows of v with zero diagonals at the new
        # scale, while the rows e (0 in v, zero diagonal) keep scale 1:
        # the addition trick then pairs rows of two scales
        for _ in range(200):
            blocks = [[[rng.choice((2, -3, 5, -7))]]
                      for _ in range(rng.randint(1, 3))]
            n, m = rng.randint(2, 4), rng.randint(1, 3)
            v = [rng.choice((1, -1)) for _ in range(n)] + [0] * m
            M = [[a * b for b in v] for a in v]
            for e in range(n, n + m):
                for t in rng.sample(range(n + m), rng.randint(1, 3)):
                    if t != e:
                        M[e][t] = M[t][e] = rng.choice((1, -1, 2))
            blocks += [M, _small_block(rng)]
            rng.shuffle(blocks)
            M = _relabel(rng, block_sum(blocks))
            assert _triple(M) == dense_bareiss_inertia(M), M
        M = block_sum([[[3]], [[0, 2], [2, 0]], [[-5]], [[2, 1], [1, 2]]])
        assert _triple(M) == dense_bareiss_inertia(M) == (4, 2, 0)

    def test_additive_over_direct_sums(self, rng):
        for _ in range(100):
            A = _relabel(rng, block_sum([_small_block(rng) for _ in range(3)]))
            B = _small_block(rng)
            total = _triple(block_sum([A, B]))
            assert total == tuple(map(sum, zip(_triple(A), _triple(B))))

    def test_signed_permutation_invariance(self, rng):
        for n in (5, 12, 30, 48):
            M = _graph_form(rng, n, [(rng.randrange(v), v)
                                     for v in range(1, n)])
            for _ in range(5):
                assert _triple(_relabel(rng, M)) == _triple(M)


class TestGramLatticeRejects:
    @pytest.mark.parametrize("gram", [
        [[1, 2], [2]], [[1], [2, 3]], [[1, 2, 3], [2, 1, 0]], [[1, 0]],
        [[1, 0], [0, 1], [0, 0]]])
    def test_ragged_or_not_square(self, gram):
        with pytest.raises(ValueError, match="^gram matrix must be square$"):
            GramLattice(gram)

    @pytest.mark.parametrize("gram", [
        [[0, 1], [2, 0]], [[1, 0, 0], [0, 1, 0], [1, 0, 1]],
        [[1, 2], [3, 1]], [[1, 1], [0, 1]]])
    def test_asymmetric(self, gram):
        with pytest.raises(ValueError,
                           match="^gram matrix must be symmetric$"):
            GramLattice(gram)

    @pytest.mark.parametrize("gram", [
        [[0.1]], [[True, 0], [0, 1]], [[2.0, 1], [1, 2]],
        [[1, Fraction(1, 2)], [Fraction(1, 3), 1]], [[1, True], [0, 1]],
        [[Fraction(2)]]])
    def test_non_int_entries(self, gram):
        # floats, bools and Fractions, even integral or asymmetric ones
        with pytest.raises(ValueError, match="^matrix entries must be ints$"):
            GramLattice(gram)
        with pytest.raises(ValueError, match="^matrix entries must be ints$"):
            signature(gram)

    def test_symmetric_across_entry_types(self):
        # symmetric as values (Fraction(2, 2) == 1), rejected for the type
        with pytest.raises(ValueError, match="^matrix entries must be ints$"):
            GramLattice([[1, Fraction(2, 2)], [1, Fraction(1, 2)]])
        assert GramLattice([]).gram == ()


def test_freeze_entries():
    M = _freeze([[2, -1], (-1, 3)])
    assert M == ((2, -1), (-1, 3)) and type(M[1]) is tuple
    assert _freeze([]) == ()
    for bad in (Fraction(4, 2), Fraction(1, 2), True, 2.0, None, "1"):
        with pytest.raises(ValueError, match="^matrix entries must be ints$"):
            _freeze([[1, 0], [bad, -3]])


class TestDefiniteness:
    def test_identity(self):
        assert is_positive_definite([[1, 0, 0, 0], [0, 1, 0, 0],
                                     [0, 0, 1, 0], [0, 0, 0, 1]])

    def test_zero_form(self):
        assert not is_positive_definite([[0]])

    def test_9_40_quotient_gram(self):
        # independent check: all leading principal minors positive
        def det(M):
            M = [row[:] for row in M]
            n = len(M)
            out = Fraction(1)
            for c in range(n):
                piv = next((r for r in range(c, n) if M[r][c] != 0), None)
                if piv is None:
                    return Fraction(0)
                if piv != c:
                    M[c], M[piv] = M[piv], M[c]
                    out = -out
                out *= M[c][c]
                for r in range(c + 1, n):
                    f = Fraction(M[r][c], 1) / M[c][c]
                    M[r] = [a - f * b for a, b in zip(M[r], M[c])]
            return out

        minors = [det([row[:k] for row in GRAM_940_QUOTIENT[:k]])
                  for k in range(1, 5)]
        assert all(d > 0 for d in minors)
        assert is_positive_definite(GRAM_940_QUOTIENT)
        assert signature(GRAM_940_QUOTIENT).sigma == 4


class TestEigenspaces:
    def test_identity_plus(self):
        basis = eigenspace_basis([[1, 0], [0, 1]], 1)
        assert len(basis) == 2

    def test_identity_minus(self):
        assert eigenspace_basis([[1, 0], [0, 1]], -1) == []

    def test_946_plus_eigenspace(self):
        # tau: a <-> -b, c <-> -d; the +1 space is spanned by a-b, c-d
        basis = eigenspace_basis(TAU_946, 1)
        assert len(basis) == 2
        for v in basis:
            img = tuple(sum(TAU_946[i][j] * v[j] for j in range(4))
                        for i in range(4))
            assert img == v
            assert v[0] == -v[1] and v[2] == -v[3]

    def test_dimension_sum(self, rng):
        for _ in range(50):
            n = rng.randint(1, 5)
            # random involution: signed permutation with paired swaps
            perm = list(range(n))
            idx = list(range(n))
            rng.shuffle(idx)
            for a, b in zip(idx[::2], idx[1::2]):
                perm[a], perm[b] = perm[b], perm[a]
            signs = [rng.choice([1, -1]) for _ in range(n)]
            # force involution: sign consistency on 2-cycles
            R = [[0] * n for _ in range(n)]
            for i in range(n):
                R[i][perm[i]] = signs[i] if perm[i] != i else rng.choice([1, -1])
            for i in range(n):
                if perm[i] > i:
                    R[perm[i]][i] = R[i][perm[i]]
            plus = eigenspace_basis(R, 1)
            minus = eigenspace_basis(R, -1)
            assert len(plus) + len(minus) == n

    def test_rejects_non_involution(self):
        with pytest.raises(ValueError):
            eigenspace_basis([[1, 1], [0, 1]], 1)

    @pytest.mark.parametrize("R", [[[0, 1]], [[1], [0, 1]], [[1, 0]]])
    def test_rejects_non_square(self, R):
        with pytest.raises(ValueError, match="^matrix is not an involution$"):
            eigenspace_basis(R, 1)


class TestRestrictForm:
    def test_standard_basis(self):
        G = GramLattice(GRAM_946)
        B = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
        assert restrict_form(G, B) == G.gram

    def test_946_plus_restriction(self):
        B = [(1, -1, 0, 0), (0, 0, 1, -1)]
        assert restrict_form(GRAM_946, B) == ((-4, -2), (-2, -4))

    def test_946_minus_restriction(self):
        B = [(1, 1, 0, 0), (0, 0, 1, 1)]
        assert restrict_form(GRAM_946, B) == ((4, -2), (-2, 4))

    def test_eigenbases_block_diagonalize(self):
        plus = eigenspace_basis(TAU_946, 1)
        minus = eigenspace_basis(TAU_946, -1)
        both = restrict_form(GRAM_946, plus + minus)
        p = len(plus)
        for i in range(p):
            for j in range(p, p + len(minus)):
                assert both[i][j] == 0
        # the blocks carry the inertia of G: (0, 2, 0) on ker(R - I) and
        # (2, 0, 0) on ker(R + I)
        assert dense_bareiss_inertia([row[:p] for row in both[:p]]) == (0, 2, 0)
        assert dense_bareiss_inertia([row[p:] for row in both[p:]]) == (2, 0, 0)
        assert dense_bareiss_inertia(both) == tuple(signature(GRAM_946))


def _dense_mul(A, B, m):
    """A·B by the definition, for A with len(B) columns and B with m."""
    return tuple(tuple(sum(A[i][t] * B[t][j] for t in range(len(B)))
                       for j in range(m)) for i in range(len(A)))


class TestMatMul:
    @staticmethod
    def _random(rng, rows, cols, fractions):
        def entry():
            if rng.random() < 0.4:
                return 0
            if fractions and rng.random() < 0.5:
                return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            return rng.randint(-3, 3)
        M = [[entry() for _ in range(cols)] for _ in range(rows)]
        if rows and rng.random() < 0.3:
            M[rng.randrange(rows)] = [0] * cols
        return M

    def test_matches_definition(self, rng):
        for _ in range(300):
            k, n, m = (rng.randint(0, 5) for _ in range(3))
            fractions = rng.random() < 0.5
            A = self._random(rng, k, n, fractions)
            B = self._random(rng, n, m, fractions)
            got = mat_mul(A, B)
            if n:
                assert got == _dense_mul(A, B, m)
            else:
                assert got == tuple(() for _ in range(k))
            for row in got:
                assert len(row) == (m if n else 0)
                assert all(isinstance(x, (int, Fraction)) for x in row)

    def test_exact_fractions(self):
        A = [[Fraction(1, 2), 0], [0, 0], [1, Fraction(1, 3)]]
        B = [[Fraction(1, 3), 1, 0], [3, 0, Fraction(-2, 3)]]
        got = mat_mul(A, B)
        assert got == ((Fraction(1, 6), Fraction(1, 2), 0), (0, 0, 0),
                       (Fraction(4, 3), 1, Fraction(-2, 9)))
        assert isinstance(got[0][0], Fraction) and got[0][0] != 0

    def test_empty(self):
        assert mat_mul([], [[1, 2]]) == ()
        assert mat_mul([[], []], []) == ((), ())
        assert mat_mul([[0, 0]], [[1, 2, 3], [4, 5, 6]]) == ((0, 0, 0),)
        for A, B in (([], [[1, 2]]), ([[], []], []),
                     ([[0, 0]], [[1, 2, 3], [4, 5, 6]])):
            assert mat_mul(A, B) == dense_mat_mul(A, B)

    def test_matches_dense_oracle(self, rng):
        for _ in range(300):
            k, n, m = (rng.randint(0, 6) for _ in range(3))
            fractions = rng.random() < 0.5
            A = self._random(rng, k, n, fractions)
            B = self._random(rng, n, m, fractions)
            assert mat_mul(A, B) == dense_mat_mul(A, B)

    @staticmethod
    def _signed_perm(rng, n):
        perm = list(range(n))
        rng.shuffle(perm)
        return [[rng.choice([1, -1]) if j == perm[i] else 0
                 for j in range(n)] for i in range(n)]

    def test_signed_permutations(self, rng):
        for _ in range(100):
            n = rng.randint(1, 12)
            P, Q = self._signed_perm(rng, n), self._signed_perm(rng, n)
            M = self._random(rng, n, n, rng.random() < 0.5)
            for A, B in ((P, Q), (P, M), (M, P), (transpose(P), P)):
                assert mat_mul(A, B) == dense_mat_mul(A, B)
            assert mat_mul(transpose(P), P) == identity(n)

    def test_dense_column(self, rng):
        # an induced isometry whose dropped vertex is moved has one
        # column equal to -eps everywhere
        for _ in range(100):
            n = rng.randint(1, 10)
            R = self._signed_perm(rng, n)
            c, eps = rng.randrange(n), rng.choice([1, -1])
            for row in R:
                row[c] = -eps
            M = self._random(rng, n, n, rng.random() < 0.5)
            for A, B in ((R, R), (transpose(R), M), (M, R), (R, M)):
                assert mat_mul(A, B) == dense_mat_mul(A, B)

    def test_rows_hold_exactly_the_nonzero_entries(self, rng):
        # the isometry checks compare sparse rows, so a product's rows
        # must drop the entries that cancel
        for _ in range(300):
            k, n, m = (rng.randint(0, 6) for _ in range(3))
            vals = [0, 1, -1, Fraction(1, 2), Fraction(-1, 2)]
            A = [[rng.choice(vals) for _ in range(n)] for _ in range(k)]
            B = [[rng.choice(vals) for _ in range(m)] for _ in range(n)]
            got = _row_mul(_rows(A), _rows(B))
            assert got == _rows(dense_mat_mul(A, B))
            assert all(all(row.values()) for row in got)


class TestInertiaKept:
    def test_signature_eliminates_once_per_lattice(self, inertia_calls):
        G = GramLattice(GRAM_940_QUOTIENT)
        assert signature(G) == (4, 0, 0)
        assert is_positive_definite(G) and signature(G).sigma == 4
        assert inertia_calls == [4]
        # a plain matrix, or an equal but new lattice, is eliminated again
        assert signature(GRAM_940_QUOTIENT) == signature(GramLattice(G.gram))
        assert inertia_calls == [4, 4, 4]

    def test_kept_inertia_is_not_part_of_the_value(self):
        G, H = GramLattice(GRAM_946), GramLattice(GRAM_946)
        signature(G)
        assert G == H and hash(G) == hash(H) and repr(G) == repr(H)


def _values():
    return [GramLattice([[2, -1], [-1, 3]]),
            CheckerboardGraph(2, [(0, 1, -1)], name="c2"),
            CheckerboardGraph(3, [[0, 1, 1], [1, 2, -1]]),
            SymmetrySpec([1, 0], 2, lift_sign=1),
            SymmetrySpec([1, 2, 0], 3, "periodic", -1),
            Embedding(2, [[1, 0], [0, -1]]),
            SignedPermutation([1, 0], [1, -1])]


class TestValueTypes:
    """The validated types keep the behaviour they had as frozen
    dataclasses: repr text, equality within one class, hashing, and no
    assignment."""

    def test_repr(self):
        assert [repr(v) for v in _values()] == [
            "GramLattice(gram=((2, -1), (-1, 3)))",
            "CheckerboardGraph(vertex_count=2, edges=((0, 1, -1),), "
            "name='c2')",
            "CheckerboardGraph(vertex_count=3, edges=((0, 1, 1), "
            "(1, 2, -1)), name=None)",
            "SymmetrySpec(vertex_perm=(1, 0), order=2, "
            "kind='strong_inversion', lift_sign=1)",
            "SymmetrySpec(vertex_perm=(1, 2, 0), order=3, kind='periodic', "
            "lift_sign=-1)",
            "Embedding(k=2, rows=((1, 0), (0, -1)))",
            "SignedPermutation(perm=(1, 0), signs=(1, -1))",
        ]

    def test_equal_values_hash_equal(self):
        for a, b in zip(_values(), _values()):
            assert a is not b and a == b and not a != b
            assert hash(a) == hash(b)
        assert len(set(_values())) == len(_values())

    def test_no_equality_across_classes(self):
        values = _values()
        for i, a in enumerate(values):
            for j, b in enumerate(values):
                assert (a == b) == (i == j)
        assert values[0] != (values[0].gram,)
        assert values[-1] != ((1, 0), (1, -1))

        class Sub(GramLattice):
            __slots__ = ()

        G = values[0]
        assert Sub(G.gram) != G and G != Sub(G.gram)
        assert Sub(G.gram) == Sub(G.gram)

    def test_assignment_raises_attribute_error(self):
        for v, field in zip(_values(), ["gram", "vertex_count", "edges",
                                        "vertex_perm", "lift_sign",
                                        "matrix", "signs"]):
            with pytest.raises(AttributeError):
                setattr(v, field, None)
            with pytest.raises(AttributeError):
                delattr(v, field)
            with pytest.raises(AttributeError):
                v.extra = 1
        G = _values()[0]
        with pytest.raises(AttributeError):
            G._sig = None

    def test_copy_and_pickle_round_trip(self):
        for v in _values():
            for w in (copy.copy(v), copy.deepcopy(v),
                      pickle.loads(pickle.dumps(v))):
                assert w == v and type(w) is type(v)
