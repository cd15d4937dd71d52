"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import random
import time

from eqknot import (BoundsInput, CheckerboardGraph, GramLattice,
                    SignedPermutation, SymmetrySpec, aggregate,
                    canonical_form, donaldson_obstruction,
                    enumerate_embeddings, gl_full_form, gl_lattice,
                    gsig_direct_sum, gsig_genus_bound, gsig_involution,
                    gsig_periodic_bound, induced_isometry, rh_bound,
                    signature)
from eqknot.lattice import mat_mul
from conftest import (brute_force_classes, brute_force_embeddings,
                      conjugate, embedding, exhaustive_delta_exists,
                      full_matrix, random_connected_graph,
                      random_unimodular, signed_perm_matrix)
from test_embedsearch import _class_delta, _solve_isometry

GRAM_946 = [[0, 2, -1, 0], [2, 0, 0, -1], [-1, 0, 0, 2], [0, -1, 2, 0]]
TAU_946 = [[0, -1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, -1, 0]]


def nine_40():
    edges = [(u, v, -1) for u in range(5) for v in range(u + 1, 5)
             if (u, v) != (1, 3)]
    return CheckerboardGraph(5, edges, name="9_40")


def test_criterion_1_9_40_obstruction():
    t0 = time.monotonic()
    g = nine_40()
    G = gl_lattice(g)
    s = SymmetrySpec([2, 3, 0, 1, 4], 2, "strong_inversion", 1)
    R = induced_isometry(g, s)
    rep = donaldson_obstruction(G, [R], -2, 2)
    elapsed = time.monotonic() - t0
    assert rep.k == 6
    assert rep.class_count == 2
    assert all(d is None for _, d in rep.per_class)
    assert rep.obstructed
    assert elapsed < 5.0
    print(f"\nPASS criterion 1: 9_40 obstruction (k=6, 2 classes, no delta, "
          f"obstructed) in {elapsed:.2f}s")


def test_criterion_2_9_40_pinned_genus():
    g = nine_40()
    G = gl_lattice(g)
    s = SymmetrySpec([2, 3, 0, 1, 4], 2, "strong_inversion", 1)
    R = induced_isometry(g, s)
    rep = donaldson_obstruction(G, [R], -2, 2)
    bounds = aggregate(BoundsInput(sigma_K=-2, g4_K=1,
                                   equivariant_unknotting_moves=2),
                       obstruction=rep)
    assert bounds.best_lower == 2
    assert bounds.best_upper == 2
    assert bounds.consistent
    print("\nPASS criterion 2: 9_40 pinned equivariant 4-genus = 2")


def test_criterion_3_9_46_gsignature():
    t0 = time.monotonic()
    from conftest import dense_bareiss_inertia, eigenspace_basis, restrict_form
    plus = eigenspace_basis(TAU_946, 1)
    minus = eigenspace_basis(TAU_946, -1)
    assert restrict_form(GRAM_946, plus) == ((-4, -2), (-2, -4))
    assert restrict_form(GRAM_946, minus) == ((4, -2), (-2, 4))
    assert dense_bareiss_inertia(restrict_form(GRAM_946, plus)) == (0, 2, 0)
    assert dense_bareiss_inertia(restrict_form(GRAM_946, minus)) == (2, 0, 0)
    rep = gsig_involution(GRAM_946, TAU_946)
    assert (rep.sigma_plus, rep.sigma_minus, rep.gsig) == (-2, 2, -4)
    # n-fold equivariant connect sum: -4n, butterfly bound 2n
    G, R = GramLattice([]), []
    for n in range(1, 5):
        rep_n = gsig_direct_sum(G, R, GRAM_946, TAU_946)
        G, R = _block(G, R, GRAM_946, TAU_946)
        assert rep_n.gsig == -4 * n
        assert gsig_genus_bound(rep_n.gsig) == 2 * n
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"\nPASS criterion 3: 9_46 g-signature -4, restrictions exact, "
          f"sums -4n, bound 2n ({elapsed:.2f}s)")


def _block(G1, R1, G2, R2):
    if not isinstance(G1, GramLattice):
        G1 = GramLattice(G1)
    n1, n2 = G1.rank, len(G2)
    G = [[0] * (n1 + n2) for _ in range(n1 + n2)]
    R = [[0] * (n1 + n2) for _ in range(n1 + n2)]
    for i in range(n1):
        for j in range(n1):
            G[i][j] = G1.gram[i][j]
            R[i][j] = R1[i][j]
    for i in range(n2):
        for j in range(n2):
            G[n1 + i][n1 + j] = G2[i][j]
            R[n1 + i][n1 + j] = R2[i][j]
    return GramLattice(G), R


def test_criterion_4_montesinos_family():
    for t in (1, 3, 5, 7):
        assert gsig_periodic_bound(2, -2, t - 1) == t
        assert rh_bound(2, (t - 1) // 2, 2 * t + 3) == 2 * t
        rep = aggregate(BoundsInput(period_n=2, sigma_K=-2,
                                    sigma_quotient=t - 1,
                                    g4top_quotient=(t - 1) // 2,
                                    linking_lambda=2 * t + 3,
                                    genus_upper=2 * t))
        assert rep.best_lower == 2 * t
        assert rep.best_upper == 2 * t
    print("\nPASS criterion 4: Montesinos family bounds t and 2t, "
          "genus pinned at 2t for t in {1,3,5,7}")


def test_criterion_5_example_6_12():
    assert gsig_periodic_bound(2, -4, 2) == 4
    assert rh_bound(2, 1, 1) == 2
    print("\nPASS criterion 5: 22-crossing periodic knot bounds "
          "(g-signature 4 vs riemann-hurwitz 2)")


def test_criterion_6_oracle_equivalence():
    t0 = time.monotonic()
    rng = random.Random(940946)
    # pruned enumeration vs brute force
    done = 0
    while done < 100:
        m = rng.randint(1, 3)
        k = rng.randint(m, 4)
        A = [[rng.randint(-1, 1) for _ in range(m)] for _ in range(k)]
        gram = [[sum(A[r][i] * A[r][j] for r in range(k)) for j in range(m)]
                for i in range(m)]
        if any(abs(x) > 4 for row in gram for x in row):
            continue
        G = GramLattice(gram)
        from eqknot import is_positive_definite
        if not is_positive_definite(G):
            continue
        embs = enumerate_embeddings(G, k)
        assert list(embs.classes) == brute_force_classes(G, k)
        assert embs.count == len(brute_force_embeddings(G, k))
        done += 1
    # delta search vs exhaustive signed permutations
    done = 0
    while done < 100:
        k = rng.randint(2, 5)
        m = rng.randint(1, 3)
        E = embedding(k, [tuple(rng.randint(-1, 1) for _ in range(m))
                          for _ in range(k)])
        if (k - E.source_rank) % 2:  # sigma = rank - k must be even
            continue
        perm = list(range(k))
        rng.shuffle(perm)
        P = SignedPermutation(perm, [rng.choice([1, -1]) for _ in range(k)])
        R = _solve_isometry(E, P)
        if R is None:
            continue
        req = rng.choice([1, 2, 3, 4])
        _, got = _class_delta(E, R, req)
        assert (got is not None) == exhaustive_delta_exists(E, R, req)
        done += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    print(f"\nPASS criterion 6: oracle equivalence on 100+100 random cases "
          f"({elapsed:.1f}s)")


def test_criterion_7_property_suites():
    rng = random.Random(511)
    # row sums of the full Gordon-Litherland form vanish
    for _ in range(200):
        g = random_connected_graph(rng)
        assert all(sum(row) == 0 for row in gl_full_form(g).gram)
    # signature is a congruence invariant
    for _ in range(200):
        m = rng.randint(1, 5)
        M = [[0] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                M[i][j] = M[j][i] = rng.randint(-5, 5)
        assert signature(conjugate(random_unimodular(rng, m), M)) == signature(M)
    # canonical form: idempotent and constant on orbits
    for _ in range(200):
        k, m = rng.randint(1, 5), rng.randint(1, 3)
        E = embedding(k, [tuple(rng.randint(-2, 2) for _ in range(m))
                          for _ in range(k)])
        C = canonical_form(E)
        assert canonical_form(C) == C
        perm = list(range(k))
        rng.shuffle(perm)
        P = SignedPermutation(perm, [rng.choice([1, -1]) for _ in range(k)])
        moved = embedding(k, mat_mul(signed_perm_matrix(P), full_matrix(E)))
        assert canonical_form(moved) == C
    # g-signature: antipode negation, additivity, rank bound
    from test_gsignature import _random_pair
    for _ in range(200):
        G1, S1 = _random_pair(rng, 3)
        G2, S2 = _random_pair(rng, 3)
        g1 = gsig_involution(G1, S1).gsig
        neg = tuple(tuple(-x for x in row) for row in S1)
        assert gsig_involution(G1, neg).gsig == -g1
        assert gsig_direct_sum(G1, S1, G2, S2).gsig == g1 + gsig_involution(G2, S2).gsig
        assert abs(g1) <= G1.rank
    print("\nPASS criterion 7: property suites (200 cases each, "
          "zero failures)")
