"""Exact good quotients of subtorus actions on toric varieties.

Everything is integer or rational arithmetic over explicit fans; no
floating point enters any verdict.  The layers, bottom up: integer
lattices (intlat), rational cones (cones), fans and their open
selections (fans), the quotient engine (quotients), quasitorus
presentations (cox), finite symmetries and the conclusion checkers
(symmetry), definition-level oracles (oracles), the verification corpus
(corpus), problem files (problemfile), and the command front end (cli).
"""

from .cones import BoundExceededError, Cone, hilbert_basis, monoid_generators
from .cox import (
    CoxPresentation,
    MonomialSection,
    PolynomialSection,
    canonical_section,
    cox_presentation,
    isotropy_at,
    lift_open,
    quasitorus_action,
    round_trip,
    verify_globally_defined,
    zero_set_identity_holds,
)
from .fans import (
    Fan,
    FanAutomorphism,
    SizeGuardError,
    SubfanSelection,
    enumerate_open_subsets,
    is_complete,
    is_simplicial,
)
from .intlat import IntMatrix, Sublattice
from .oracles import mutually_generate, oracle_orbit_labels, oracle_saturated
from .quotients import (
    Obstruction,
    QuotientFan,
    SubtorusAction,
    enumerate_good_subsets,
    good_quotient,
    is_saturated,
    max_saturated_inside,
    normalize_action,
    remark_suite,
    staged_quotient,
    t_maximal_subsets,
)
from .symmetry import (
    GroupActionData,
    SymmetryGroup,
    eq1_crosscheck,
    generate_symmetry_group,
    verify_corollary,
    verify_theorem_conclusions,
    w_set,
)

__all__ = [
    "BoundExceededError",
    "Cone",
    "CoxPresentation",
    "Fan",
    "FanAutomorphism",
    "GroupActionData",
    "IntMatrix",
    "MonomialSection",
    "Obstruction",
    "PolynomialSection",
    "QuotientFan",
    "SizeGuardError",
    "SubfanSelection",
    "Sublattice",
    "SubtorusAction",
    "SymmetryGroup",
    "canonical_section",
    "cox_presentation",
    "enumerate_good_subsets",
    "enumerate_open_subsets",
    "eq1_crosscheck",
    "generate_symmetry_group",
    "good_quotient",
    "hilbert_basis",
    "is_complete",
    "is_saturated",
    "is_simplicial",
    "isotropy_at",
    "lift_open",
    "max_saturated_inside",
    "monoid_generators",
    "mutually_generate",
    "normalize_action",
    "oracle_orbit_labels",
    "oracle_saturated",
    "quasitorus_action",
    "remark_suite",
    "round_trip",
    "staged_quotient",
    "t_maximal_subsets",
    "verify_corollary",
    "verify_globally_defined",
    "verify_theorem_conclusions",
    "w_set",
    "zero_set_identity_holds",
]
