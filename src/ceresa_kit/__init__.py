"""Exact-arithmetic toolkit for Ceresa-cycle torsion of Picard curves.

The package decides whether the Ceresa class of a smooth plane quartic
y^3 = x^4 + a x^2 + b x + c is torsion in the Chow group (it always is in
the Griffiths group), generates the explicit one-parameter torsion
families, evaluates group-action vanishing criteria from eigenvalue data,
and ships the genus-3 automorphism strata table with its verdicts.

Everything is computed over the rationals with ``fractions.Fraction``;
there are no floats and no tolerances.
"""

# Each export, and each submodule, is resolved on first use (PEP 562), so
# that importing the package, or its CLI, loads no module it does not run.
_EXPORTS = {
    "errors": ("DomainError", "ProfileError"),
    "exactmath": ("UPoly", "cyclotomic_polynomial", "rat"),
    "quartic": ("DepressedQuartic", "QuarticInvariants", "from_invariant_point", "gm_scale",
                "invariants", "moduli_equal_geometric", "moduli_equal_rational"),
    "elliptic": ("ECPoint", "INFINITY", "WeierstrassCurve", "add", "affine", "negate",
                 "rational_torsion_j0", "scalar_mul", "torsion_order_q", "velu_3isogeny"),
    "ceresa": ("CeresaVerdict", "ChowVerdict", "PicardCurve", "bielliptic_consistency", "decide",
               "e0_rational_torsion", "family_generate", "picard_invariant_point", "scan"),
    "repcrit": ("ActionProfile", "ConjClass", "CyclicProfile", "chow_criterion_applies",
                "cyclic_profile", "dihedral_genus", "dihedral_profile", "dihedral_vanishing",
                "dim_inv_wedge3", "griffiths_criterion_applies", "preset_profile"),
    "strata": ("StratumRecord", "stratum_info", "verdict_consistency"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = tuple(_MODULE_OF)
_SUBMODULES = (*_EXPORTS, "value")

__version__ = "0.1.0"


def __getattr__(name: str):
    # A submodule, as once bound by importing them all, or an export.
    module = name if name in _SUBMODULES else _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    loaded = import_module(f"{__name__}.{module}")
    return loaded if module == name else getattr(loaded, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_SUBMODULES, *_MODULE_OF})
