from itertools import permutations

import pytest

from eqknot import (CheckerboardGraph, SymmetrySpec, gl_full_form, gl_lattice,
                    induced_isometry, is_automorphism, is_positive_definite,
                    knot_signature, signature)
from eqknot.lattice import mat_mul
from conftest import (automorphism_by_counter, dense_mat_mul,
                      random_connected_graph, transpose)

# 9_40 checkerboard graph: K5 minus the edge between the two weight-3
# vertices, every edge weight -1. Reconstructed from the embedding vectors
# below, whose Gram matrix reproduces the labeled graph.
NINE_40_EDGES = [(u, v, -1) for u in range(5) for v in range(u + 1, 5)
                 if (u, v) != (1, 3)]
NINE_40_VECTORS = [
    (1, -1, -1, 1, 0, 0),
    (1, 1, 1, 0, 0, 0),
    (-1, 1, -1, 0, -1, 0),
    (0, 0, 0, -1, 1, 1),
    (-1, -1, 1, 0, 0, -1),
]


def nine_40():
    return CheckerboardGraph(5, NINE_40_EDGES, name="9_40")


class TestGraphValidation:
    def test_rejects_loop(self):
        with pytest.raises(ValueError):
            CheckerboardGraph(2, [(0, 0, -1)])

    def test_rejects_disconnected(self):
        with pytest.raises(ValueError):
            CheckerboardGraph(4, [(0, 1, -1), (2, 3, -1)])

    def test_rejects_bad_weight(self):
        # non-int weights equal to +-1 (floats, bools) are rejected too
        for w in (2, 0, 1.0, -1.0, True, "1"):
            with pytest.raises(ValueError, match="edge weight must be"):
                CheckerboardGraph(2, [(0, 1, w)])

    def test_rejects_bool_vertex_count_or_endpoint(self):
        # bools are ints by value (True == 1) but not integers here
        with pytest.raises(TypeError, match="vertex count must be"):
            CheckerboardGraph(True, [])
        for e in ((0, True, -1), (True, 0, -1)):
            with pytest.raises(TypeError, match="edge endpoint must be"):
                CheckerboardGraph(2, [e])

    def test_vertex_weight_derived(self):
        # the diagonal is minus the sum of the incident edge weights
        g = CheckerboardGraph(2, [(0, 1, -1), (0, 1, -1), (0, 1, 1)])
        assert gl_full_form(g).gram == ((1, -1), (-1, 1))


class TestFullForm:
    def test_single_vertex(self):
        g = CheckerboardGraph(1, [])
        assert gl_full_form(g).gram == ((0,),)

    def test_two_vertices_one_negative_edge(self):
        g = CheckerboardGraph(2, [(0, 1, -1)])
        assert gl_full_form(g).gram == ((1, -1), (-1, 1))

    def test_9_40_matches_embedding_gram(self):
        # oracle: Gram matrix of the five explicit embedding vectors
        expected = tuple(
            tuple(sum(a * b for a, b in zip(u, v)) for v in NINE_40_VECTORS)
            for u in NINE_40_VECTORS)
        assert gl_full_form(nine_40()).gram == expected
        diag = tuple(expected[i][i] for i in range(5))
        assert diag == (4, 3, 4, 3, 4)

    def test_row_sums_zero_random(self, rng):
        for _ in range(200):
            g = random_connected_graph(rng)
            M = gl_full_form(g).gram
            assert all(sum(row) == 0 for row in M)


class TestQuotientLattice:
    def test_two_vertex_drop_last(self):
        g = CheckerboardGraph(2, [(0, 1, -1)])
        assert gl_lattice(g).gram == ((1,),)

    def test_9_40_drop_vertex_4(self):
        assert gl_lattice(nine_40(), 4).gram == (
            (4, -1, -1, -1), (-1, 3, -1, 0), (-1, -1, 4, -1), (-1, 0, -1, 3))

    def test_drop_vertex_independence(self, rng):
        for _ in range(50):
            g = random_connected_graph(rng)
            sigs = {signature(gl_lattice(g, d))
                    for d in range(g.vertex_count)}
            assert len(sigs) == 1

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            gl_lattice(nine_40(), 5)

    def test_all_negative_weights_positive_definite(self, rng):
        # graph-Laplacian argument: quotient lattice of an all-(-1) graph
        for _ in range(200):
            g = random_connected_graph(rng, weights=(-1,))
            if len(g.edges) == 0:
                continue
            assert is_positive_definite(gl_lattice(g))


def star_with_leaf_cycles(cycles):
    """A star, centre vertex 0, whose leaves 1, 2, ... are permuted in
    cycles of the given lengths; every edge weight is -1."""
    n = 1 + sum(cycles)
    perm = list(range(n))
    start = 1
    for length in cycles:
        for i in range(length):
            perm[start + i] = start + (i + 1) % length
        start += length
    return CheckerboardGraph(n, [(0, v, -1) for v in range(1, n)]), perm


def cycle_graph(n, weights=(-1,)):
    """The n-cycle 0 - 1 - ... - (n-1) - 0, edge (i, i+1) of weight
    weights[i % len(weights)]."""
    return CheckerboardGraph(n, [(i, (i + 1) % n, weights[i % len(weights)])
                                 for i in range(n)])


def wheel_graph(n):
    """Hub 0 joined to every vertex of the rim cycle 1, ..., n; every edge
    weight -1."""
    return CheckerboardGraph(n + 1, [(0, i, -1) for i in range(1, n + 1)]
                             + [(i, i % n + 1, -1) for i in range(1, n + 1)])


def complete_graph(n):
    return CheckerboardGraph(n, [(u, v, -1) for u in range(n)
                                 for v in range(u + 1, n)])


def isometry_cases():
    """(id, graph, vertex permutation) triples, each permutation a
    weighted-graph automorphism."""
    yield "9_40", nine_40(), [2, 3, 0, 1, 4]
    for n in (3, 4, 5, 6):
        yield f"C{n}-rotation", cycle_graph(n), [(i + 1) % n for i in range(n)]
        yield f"C{n}-reflection", cycle_graph(n), [-i % n for i in range(n)]
    # alternating weights: rotation by two and a reflection swapping 0, 1
    yield "C6+-rotation2", cycle_graph(6, (-1, 1)), [(i + 2) % 6
                                                    for i in range(6)]
    yield "C4+-reflection", cycle_graph(4, (-1, 1)), [(1 - i) % 4
                                                     for i in range(4)]
    for n in (3, 4, 5):
        rim = list(range(1, n + 1))
        yield f"W{n}-rotation", wheel_graph(n), [0] + rim[1:] + rim[:1]
        yield f"W{n}-reflection", wheel_graph(n), [0] + rim[::-1]
    for cycles in ((2,), (3,), (2, 3), (1, 2), (4,)):
        g, perm = star_with_leaf_cycles(cycles)
        yield f"star{'-'.join(map(str, cycles))}", g, perm
    for n in (3, 4, 5):
        yield f"K{n}-cycle", complete_graph(n), [(i + 1) % n for i in range(n)]
        yield f"K{n}-swap", complete_graph(n), [1, 0] + list(range(2, n))
    yield "K5-3x2", complete_graph(5), [1, 2, 0, 4, 3]


class TestInducedIsometry:
    def test_identity_symmetry(self):
        g = nine_40()
        s = SymmetrySpec([0, 1, 2, 3, 4], 2, "periodic", 1)
        R = induced_isometry(g, s)
        assert R.matrix == tuple(tuple(1 if i == j else 0 for j in range(4))
                                 for i in range(4))
        assert R.order == 1

    def test_9_40_swap(self):
        g = nine_40()
        s = SymmetrySpec([2, 3, 0, 1, 4], 2, "strong_inversion", 1)
        assert is_automorphism(g, s.vertex_perm)
        R = induced_isometry(g, s)
        G = gl_lattice(g).gram
        assert mat_mul(mat_mul(transpose(R.matrix), G), R.matrix) == G
        assert R.order == 2
        # basis vectors v0 <-> v2, v1 <-> v3
        assert R.matrix[2][0] == 1 and R.matrix[0][2] == 1
        assert R.matrix[3][1] == 1 and R.matrix[1][3] == 1

    def test_dropped_vertex_moves(self):
        g = CheckerboardGraph(2, [(0, 1, -1)])
        s = SymmetrySpec([1, 0], 2, "strong_inversion", 1)
        R = induced_isometry(g, s)
        assert R.matrix == ((-1,),)
        assert R.order == 2

    def test_rejects_non_automorphism(self):
        g = CheckerboardGraph(3, [(0, 1, -1), (1, 2, -1), (1, 2, -1)])
        s = SymmetrySpec([1, 0, 2], 2, "strong_inversion", 1)
        with pytest.raises(ValueError):
            induced_isometry(g, s)

    @pytest.mark.parametrize("dropped", [-1, 5])
    def test_rejects_dropped_vertex_out_of_range(self, dropped):
        s = SymmetrySpec([2, 3, 0, 1, 4], 2, "strong_inversion", 1)
        with pytest.raises(ValueError, match="dropped_vertex out of range"):
            induced_isometry(nine_40(), s, dropped)

    def test_isometry_random(self, rng):
        # automorphism-induced maps with lift sign +1 always preserve
        # the form and have order dividing the symmetry order
        for _ in range(100):
            n = rng.randint(2, 5)
            edges = [(u, v, -1) for u in range(n) for v in range(u + 1, n)]
            g = CheckerboardGraph(n, edges)  # complete graph: all perms act
            perm = list(range(n))
            rng.shuffle(perm)
            p2 = [perm[perm[i]] for i in range(n)]
            if p2 != list(range(n)):
                continue
            s = SymmetrySpec(perm, 2, "strong_inversion", 1)
            R = induced_isometry(g, s)
            G = gl_lattice(g).gram
            assert mat_mul(mat_mul(transpose(R.matrix), G), R.matrix) == G
            assert 2 % R.order == 0

    def test_order_840(self):
        # leaf cycles of lengths 3, 5, 7 and 8: order lcm = 840; with the
        # centre dropped the lattice is I_23 and R permutes its basis
        g, perm = star_with_leaf_cycles((3, 5, 7, 8))
        R = induced_isometry(g, SymmetrySpec(perm, 840, "periodic", 1), 0)
        assert R.order == 840
        assert induced_isometry(
            g, SymmetrySpec(perm, 840, "periodic", -1), 0).order == 840

    @pytest.mark.parametrize("cycles, eps, order, negated_order", [
        ((3,), -1, 6, 3), ((3,), 1, 3, 6), ((2, 3), -1, 6, 6),
        ((5,), -1, 10, 5), ((4,), -1, 4, 4), ((1,), -1, 2, 1),
        ((1,), 1, 1, 2)])
    def test_exact_order_with_lift_sign(self, cycles, eps, order,
                                        negated_order):
        # R = eps * P for P permuting the basis of I_n with order L =
        # lcm(cycles); -P has order lcm(L, 2), as no power of P is -I
        g, perm = star_with_leaf_cycles(cycles)
        R = induced_isometry(g, SymmetrySpec(perm, 60, "periodic", eps), 0)
        assert R.order == order
        assert induced_isometry(
            g, SymmetrySpec(perm, 60, "periodic", -eps), 0).order == (
            negated_order)

    @pytest.mark.parametrize("case", [
        (f"K{n}-{''.join(map(str, perm))}", complete_graph(n), list(perm))
        for n in range(1, 6) for perm in permutations(range(n))]
        + list(isometry_cases()), ids=lambda case: case[0])
    def test_order_is_least_power_to_identity(self, case):
        # the closed-form order against the least d >= 1 with R^d = I,
        # found by dense products, for every dropped vertex and lift sign
        _, g, perm = case
        m = g.vertex_count - 1
        I = tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
        for v in range(g.vertex_count):
            for eps in (1, -1):
                R = induced_isometry(
                    g, SymmetrySpec(perm, 60, "periodic", eps), v)
                power, d = R.matrix, 1
                while power != I:
                    assert d < 120  # R^120 = I, as perm^60 = id
                    power, d = dense_mat_mul(power, R.matrix), d + 1
                assert R.order == d

    @pytest.mark.parametrize("case", list(isometry_cases()),
                             ids=lambda case: case[0])
    def test_preserves_form_with_finite_order(self, case):
        # R^T G R = G and R^order = I, by dense products, for every
        # dropped vertex and both lift signs
        _, g, perm = case
        assert is_automorphism(g, perm)
        m = g.vertex_count - 1
        I = tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
        for v in range(g.vertex_count):
            G = gl_lattice(g, v).gram
            for eps in (1, -1):
                R = induced_isometry(
                    g, SymmetrySpec(perm, 60, "periodic", eps), v)
                assert dense_mat_mul(dense_mat_mul(transpose(R.matrix), G),
                                     R.matrix) == G
                power = R.matrix
                for _ in range(R.order - 1):
                    power = dense_mat_mul(power, R.matrix)
                assert power == I


def symmetric_multigraph(rng, n):
    """A random connected signed multigraph on n vertices with a random
    automorphism perm: random edges (repeats allowed, weights mixed) and
    a spanning path, each closed under perm. Returns (graph, perm)."""
    perm = list(range(n))
    rng.shuffle(perm)
    seeds = [(i, i + 1, rng.choice((-1, 1))) for i in range(n - 1)]
    seeds += [(*rng.sample(range(n), 2), rng.choice((-1, 1)))
              for _ in range(rng.randint(0, n))]
    edges = []
    for u, v, w in seeds:
        a, b = u, v
        while True:
            edges.append((a, b, w))
            a, b = perm[a], perm[b]
            if (a, b) == (u, v):
                break
    return CheckerboardGraph(n, edges), perm


class TestIsAutomorphism:
    def test_agrees_with_counter_oracle(self, rng):
        # symmetric multigraphs with their automorphism, then near misses:
        # a flipped weight, an added parallel edge, another permutation,
        # and sequences that are not permutations of range(n)
        trues = total = 0
        for _ in range(300):
            g, perm = symmetric_multigraph(rng, rng.randint(2, 7))
            n = g.vertex_count
            j = rng.randrange(len(g.edges))
            flipped = CheckerboardGraph(n, [(a, b, -w if i == j else w)
                                            for i, (a, b, w)
                                            in enumerate(g.edges)])
            doubled = CheckerboardGraph(n, [*g.edges, g.edges[j]])
            other = rng.sample(range(n), n)
            bad = [perm[:-1], perm + [n], [0] * n,
                   [p if i else n for i, p in enumerate(perm)],
                   [-1 if p == 0 else p for p in perm]]
            for h in (g, flipped, doubled):
                for q in (perm, other, list(range(n)), *bad):
                    got = is_automorphism(h, q)
                    assert got == automorphism_by_counter(h, q), (h, q)
                    trues += got
                    total += 1
        assert 0 < trues < total

    def test_random_connected_graphs(self, rng):
        for _ in range(100):
            g = random_connected_graph(rng)
            for q in permutations(range(g.vertex_count)):
                assert is_automorphism(g, q) == automorphism_by_counter(g, q)


class TestKnotSignature:
    def test_9_40(self):
        assert knot_signature(nine_40(), 6) == -2

    def test_unknot(self):
        g = CheckerboardGraph(1, [])
        assert knot_signature(g, 0) == 0

    def test_one_crossing_unknot(self):
        g = CheckerboardGraph(2, [(0, 1, -1)])
        assert knot_signature(g, 1) == 0

    def test_rejects_bad_count(self):
        with pytest.raises(ValueError):
            knot_signature(nine_40(), 10)


class TestSymmetrySpec:
    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            SymmetrySpec([1, 0], 3, "strong_inversion", 1)

    def test_rejects_perm_order_mismatch(self):
        with pytest.raises(ValueError):
            SymmetrySpec([1, 2, 0], 2, "periodic", 1)

    def test_huge_order_checked_by_cycle_lengths(self):
        # cycle lengths 1 and 2 divide 10**18; a 3-cycle does not
        s = SymmetrySpec([1, 0, 2], 10**18, "periodic", 1)
        assert s.order == 10**18
        with pytest.raises(ValueError):
            SymmetrySpec([1, 2, 0], 10**18, "periodic", 1)

    def test_rejects_bool_in_perm(self):
        for perm in ([True, 0], [1, False], [1.0, 0]):
            with pytest.raises(ValueError, match="not a permutation"):
                SymmetrySpec(perm, 2, "strong_inversion", 1)

    def test_rejects_auto_sign(self):
        # non-int signs equal to +-1 (floats, bools) are rejected too
        for sign in (0, 1.0, -1.0, True, False, "1"):
            with pytest.raises(ValueError, match="lift_sign must be"):
                SymmetrySpec([1, 0], 2, "strong_inversion", sign)
