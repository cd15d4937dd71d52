"""Walkthrough: the equivariant embedding obstruction for the knot 9_40.

The positive-definite checkerboard surface of the strongly invertible
alternating diagram of 9_40 has checkerboard graph K5 minus one edge
(between the two degree-3 vertices), every edge of weight -1. The strong
inversion acts on the graph by swapping two opposite pairs of vertices.

If the equivariant 4-genus were -sigma/2 = 1, the Gordon-Litherland
lattice would embed into (Z^6, Id) compatibly with the symmetry. We
generate one embedding per class up to signed permutations of the
ambient basis, and check each class for an intertwining automorphism of
exact order 2. None exists, so the equivariant 4-genus is at least 2;
two equivariant crossing changes give the unknot, so it is exactly 2.
"""

from eqknot import (BoundsInput, CheckerboardGraph, SymmetrySpec, aggregate,
                    donaldson_obstruction, gl_lattice, induced_isometry,
                    knot_signature)

edges = [(u, v, -1) for u in range(5) for v in range(u + 1, 5)
         if (u, v) != (1, 3)]
graph = CheckerboardGraph(5, edges, name="9_40")

G = gl_lattice(graph)
print("Gordon-Litherland lattice (basis v0..v3):")
for row in G.gram:
    print("  ", row)
print("signature of the lattice:", knot_signature(graph, 6) + 6)
print("knot signature (6 positive crossings):", knot_signature(graph, 6))

symmetry = SymmetrySpec([2, 3, 0, 1, 4], order=2, kind="strong_inversion",
                        lift_sign=1)
R = induced_isometry(graph, symmetry)
print("\ninduced isometry (v0<->v2, v1<->v3), order", R.order)

report = donaldson_obstruction(G, R, sigma_K=-2, order=2)
print(f"\nambient rank k = {report.k}")
print(f"embedding classes up to Aut(Z^k, Id): {report.class_count}")
for i, (rep, delta) in enumerate(report.per_class):
    print(f"  class {i}: delta", "found" if delta else "does not exist")
print("obstructed:", report.obstructed)
print(report.conclusion)

bounds = aggregate(BoundsInput(sigma_K=-2, g4_K=1,
                               equivariant_unknotting_moves=2),
                   obstruction=report)
print(f"\naggregated: {bounds.best_lower} <= equivariant 4-genus "
      f"<= {bounds.best_upper}")
