"""Walkthrough: the g-signature of the directed strongly invertible knot
9_46 (antipodal direction) from a butterfly surface.

The butterfly surface has H_1 basis {a, b, c, d}; the strong inversion
exchanges a with -b and c with -d. The Gordon-Litherland pairing G has
signature -2 on the (+1)-eigenspace of the involution R and +2 on the
(-1)-eigenspace, so the g-signature is -4 and the butterfly 4-genus is
at least 2. Since I + R and I - R map onto those eigenspaces and pull G
back to 2(G + GR) and 2(G - GR), the two signatures are those of the
integer matrices G + GR and G - GR; no eigenspace basis is needed.
Equivariant connect sums multiply this: the n-fold sum has g-signature
-4n, butterfly 4-genus exactly 2n, while staying (non-equivariantly)
slice.
"""

from eqknot import (GramLattice, gsig_direct_sum, gsig_genus_bound,
                    gsig_involution, signature)
from eqknot.lattice import mat_mul

gram = GramLattice([[0, 2, -1, 0],
                    [2, 0, 0, -1],
                    [-1, 0, 0, 2],
                    [0, -1, 2, 0]])
tau = [[0, -1, 0, 0],
       [-1, 0, 0, 0],
       [0, 0, 0, -1],
       [0, 0, -1, 0]]

gr = mat_mul(gram.gram, tau)
for name, sign in (("G + GR", 1), ("G - GR", -1)):
    form = [[x + sign * y for x, y in zip(row, row_r)]
            for row, row_r in zip(gram.gram, gr)]
    print(f"{name} = {form}, signature {signature(form).sigma}")

report = gsig_involution(gram, tau)
print(f"\nsigma on H(+1) = {report.sigma_plus}, "
      f"sigma on H(-1) = {report.sigma_minus}")
print("g-signature:", report.gsig)
print("butterfly 4-genus >=", gsig_genus_bound(report.gsig))

double = gsig_direct_sum(gram, tau, gram, tau)
print("\ntwo-fold equivariant connect sum: g-signature", double.gsig,
      "-> butterfly 4-genus >=", gsig_genus_bound(double.gsig))
