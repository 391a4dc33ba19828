"""Exact-arithmetic toolkit for Ceresa-cycle torsion of Picard curves.

The package decides whether the Ceresa class of a smooth plane quartic
y^3 = x^4 + a x^2 + b x + c is torsion in the Chow group (it always is in
the Griffiths group), generates the explicit one-parameter torsion
families, evaluates group-action vanishing criteria from eigenvalue data,
and ships the genus-3 automorphism strata table with its verdicts.

Everything is computed over the rationals with ``fractions.Fraction``;
there are no floats and no tolerances.
"""

from .errors import DomainError, ProfileError
from .exactmath import UPoly, cyclotomic_polynomial, rat
from .quartic import (
    DepressedQuartic,
    QuarticInvariants,
    from_invariant_point,
    gm_scale,
    invariants,
    moduli_equal_geometric,
    moduli_equal_rational,
)
from .elliptic import (
    ECPoint,
    INFINITY,
    WeierstrassCurve,
    add,
    affine,
    negate,
    rational_torsion_j0,
    scalar_mul,
    torsion_order_q,
    velu_3isogeny,
)
from .ceresa import (
    CeresaVerdict,
    ChowVerdict,
    PicardCurve,
    bielliptic_consistency,
    decide,
    e0_rational_torsion,
    family_generate,
    picard_invariant_point,
    scan,
)
from .repcrit import (
    ActionProfile,
    ConjClass,
    CyclicProfile,
    chow_criterion_applies,
    cyclic_profile,
    dihedral_genus,
    dihedral_profile,
    dihedral_vanishing,
    dim_inv_wedge3,
    griffiths_criterion_applies,
    preset_profile,
)
from .strata import StratumRecord, stratum_info, verdict_consistency

__version__ = "0.1.0"
