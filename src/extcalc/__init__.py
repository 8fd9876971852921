"""extcalc: exact calculus of admissible abelian groups and the extension
types of their infinite symmetric products.

The core objects are admissible groups (finite direct sums of localizations
of Z, cyclic p-groups, and Prufer groups), graded groups built from them,
Bockstein bases and dimension functions, and the decision procedures that
classify symmetric products of Moore and Eilenberg-MacLane type.  Everything
is exact: integer linear algebra over arbitrary-precision ints, no floats.
"""

from types import ModuleType as _ModuleType

from .abelian import (
    ALL_PRIMES,
    AdmissibleGroup,
    Cyclic,
    ExtNat,
    INFINITY,
    Localization,
    NO_PRIMES,
    PrimePattern,
    PrimeSet,
    PrimeTriple,
    Prufer,
    Q,
    SigmaSet,
    TRIVIAL,
    Z,
    cyclic,
    fresh_prime,
    localized,
    prufer,
    sigma,
    sigma_matches_localization,
    tau,
    tau_closure,
)
from .bockstein import (
    BocksteinFunction,
    MinimalWedge,
    Violation,
    coef_dimension,
    covering_dimension,
    infinite_gap_witness,
    minimal_wedge,
    sp_in_ae,
    unit_gap_witness,
    validate_bockstein,
)
from .dsl import format_graded, format_group, format_sigma, parse_graded, parse_group
from .errors import DomainError, ExtcalcError, ParseError
from .exttype import (
    ClauseFailure,
    ClauseReport,
    LocalizationType,
    MooreEmVerdict,
    NoFiniteType,
    RationalType,
    classify_finite_type,
    has_compact_type,
    mod_p_trivial,
    moore_matches_em,
    sp_factors_as_em,
)
from .graded import (
    EMPTY_GRADED,
    GradedGroup,
    GradedOrderVerdict,
    dimension_profile,
    graded_order_leq,
    homological_dimension,
    homology_with_coefficients,
    cohomology_with_coefficients,
    moore_graded,
    pairing,
    smash,
    suspend,
    vanishing_check,
)
from .presentation import (
    ChainComplex,
    IntMatrix,
    SNFResult,
    chain_homology,
    det,
    group_from_presentation,
    invariant_factors,
    matmul,
    snf,
    tensor_from_presentations,
    tor_from_presentations,
)

__version__ = "0.1.0"

# Every public name imported above, without the submodules the imports bind.
__all__ = ["__version__"] + [
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
]
