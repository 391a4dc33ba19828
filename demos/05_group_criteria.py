"""Group-action vanishing criteria from eigenvalue profiles.

A profile records, per conjugacy class, the eigenvalue exponents of the
action on the differentials of a curve.  Two criteria are evaluated
exactly, in integer arithmetic modulo the cyclotomic polynomial:

  * griffiths-level: (wedge^3 V)^G = 0, forcing the Ceresa class to be
    torsion modulo algebraic equivalence;
  * chow-level: the invariants of the primitive degree-3 cohomology vanish,
    forcing torsion modulo rational equivalence.

Run with:  python demos/05_group_criteria.py
"""

from ceresa_kit import (
    chow_criterion_applies,
    dihedral_genus,
    dihedral_profile,
    dihedral_vanishing,
    dim_inv_wedge3,
    griffiths_criterion_applies,
    preset_profile,
)
from ceresa_kit.repcrit import dihedral_witness_triple, invariant_dim

for name in ("picard_c3", "c9_x4px", "klein_c7"):
    profile = preset_profile(name)
    d_v = dim_inv_wedge3(profile, "V")
    d3 = dim_inv_wedge3(profile, "H1")
    d1 = invariant_dim(profile, "H1")
    print(f"{name}: group order {profile.group_order}, dim V = {profile.dim}")
    print(f"  dim (wedge^3 V)^G = {d_v};"
          f" dim (wedge^3 H1)^G = {d3}; dim (H1)^G = {d1}")
    print(f"  griffiths criterion: {griffiths_criterion_applies(profile)};"
          f" chow criterion: {chow_criterion_applies(profile)}")
    print()

# The dihedral cover families y^m = ((x+1)/(x-1))^a ((x+t)/(x-t))^b admit a
# purely combinatorial test: the criterion fails exactly when three distinct
# eigencharacter indices sum to m.
print("dihedral cover families:")
for m, a, b in [(5, 1, 2), (6, 1, 2), (7, 1, 2), (9, 1, 3), (12, 3, 4), (15, 3, 5)]:
    genus = dihedral_genus(m, a, b)
    ok = dihedral_vanishing(m, a, b)
    witness = dihedral_witness_triple(m, a, b)
    spectrum = dihedral_profile(m, a, b).generator
    detail = "holds" if ok else f"fails (triple {'+'.join(map(str, witness))})"
    print(f"  (m, a, b) = ({m}, {a}, {b}): genus {genus}, spectrum {spectrum}")
    print(f"    criterion {detail}")
