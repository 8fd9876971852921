"""extcalc: exact calculus of admissible abelian groups and the extension
types of their infinite symmetric products.

The core objects are admissible groups (finite direct sums of localizations
of Z, cyclic p-groups, and Prufer groups), graded groups built from them,
Bockstein bases and dimension functions, and the decision procedures that
classify symmetric products of Moore and Eilenberg-MacLane type.  Everything
is exact: integer linear algebra over arbitrary-precision ints, no floats.

Importing the package loads none of its modules: a public name (or a
submodule) is imported from its home module on first access (PEP 562).
"""

__version__ = "0.1.0"

# Every public name, by the module that defines it.
_PUBLIC = {
    "abelian": """ALL_PRIMES AdmissibleGroup Cyclic ExtNat INFINITY Localization NO_PRIMES PrimePattern PrimeSet
        PrimeTriple Prufer Q SigmaSet TRIVIAL Z cyclic fresh_prime localized prufer sigma sigma_matches_localization
        tau tau_closure""",
    "bockstein": """BocksteinFunction MinimalWedge Violation coef_dimension covering_dimension infinite_gap_witness
        minimal_wedge sp_in_ae unit_gap_witness validate_bockstein""",
    "dsl": "format_graded format_group format_sigma parse_graded parse_group",
    "errors": "DomainError ExtcalcError ParseError",
    "exttype": """ClauseFailure ClauseReport FiniteType MooreEmVerdict classify_finite_type has_compact_type
        mod_p_trivial moore_matches_em sp_factors_as_em""",
    "graded": """GradedGroup GradedOrderVerdict dimension_profile graded_order_leq homological_dimension
        homology_with_coefficients cohomology_with_coefficients moore_graded pairing smash suspend vanishing_check""",
    "presentation": """ChainComplex IntMatrix SNFResult chain_homology group_from_presentation invariant_factors
        matmul snf tensor_from_presentations tor_from_presentations""",
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names.split()}
_SUBMODULES = frozenset(_PUBLIC) | {"cli", "primes"}

__all__ = ["__version__", *_HOME]


def __getattr__(name):
    # `__import__` with a fromlist returns the submodule itself
    if name in _SUBMODULES:
        return __import__(f"{__name__}.{name}", fromlist=("*",))
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(__import__(f"{__name__}.{_HOME[name]}", fromlist=(name,)), name)
    return value
