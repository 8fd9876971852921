"""Extension types of infinite symmetric products.

SP of a connected countable CW complex behaves, for extension-theoretic
purposes, like a product of Eilenberg-MacLane spaces built from the
complex's reduced homology; comparing extension types therefore reduces to
comparing Bockstein bases degree by degree.  This module implements the
induced decision procedures: when SP of a complex has the extension type of
a single K(G, n), when that type is invisible to mod-p considerations, and
which complexes share their type with a finite-dimensional space (a
localized circle or a rational Eilenberg-MacLane space).
"""

from __future__ import annotations

from functools import partial
from typing import Optional, Union

from .abelian import (
    AdmissibleGroup, PrimePattern, PrimeSet, Q, SigmaSet, _checked_group, _checked_int, _checked_prime, _record,
    localized, sigma, sigma_matches_localization, tau_closure,
)
from .errors import DomainError
from .graded import GradedGroup, _checked_graded, moore_graded

RATIONAL_ONLY = SigmaSet.build(True, PrimePattern.EMPTY, {})

_check_connected = partial(
    _checked_graded, least=1, message="connected complex data may not carry homology in degrees < 1",
    code="degree_zero_entry",
)


def _distinguishing_prime(s1: SigmaSet, s2: SigmaSet) -> Optional[int]:
    """A prime where the two bases differ; None for a Q-level difference."""
    if s1.rational != s2.rational:
        return None
    return next((p for p in s1.primes_to_inspect(s2) if s1.at(p) != s2.at(p)), None)


@_record
class ClauseFailure:
    """One failed clause, with the degree and, when relevant, a witnessing
    prime (None means the difference already shows at Q)."""

    clause: str
    degree: Optional[int]
    prime: Optional[int]
    note: str

    def to_json(self):
        return {"clause": self.clause, "degree": self.degree, "prime": self.prime, "note": self.note}


@_record
class ClauseReport:
    verdict: bool
    failures: tuple[ClauseFailure, ...]

    def to_json(self):
        return {"verdict": self.verdict, "failures": [f.to_json() for f in self.failures]}


def sp_factors_as_em(k: GradedGroup, group: AdmissibleGroup, n: int) -> ClauseReport:
    """Does SP of a complex with reduced homology `k` have the extension
    type of K(group, n)?

    Three clauses, all checked so failures are complete:

    a. no homology strictly between degrees 1 and n,
    b. the degree-n homology has the same Bockstein basis as `group`,
    c. every degree >= n has its basis inside tau(group).
    """
    _checked_group(group, "comparison group must be nontrivial")
    _checked_int(n, 1, code="bad_degree", message="target degree must be >= 1")
    _check_connected(k)
    failures = []
    for i, _ in k.entries:
        if 1 <= i < n:
            failures.append(ClauseFailure("a", i, None, "nontrivial homology below the target degree"))
    sg = sigma(group)
    kn = k.at(n)
    if kn.is_trivial:
        failures.append(ClauseFailure("b", n, None, "no homology in the target degree"))
    else:
        sn = sigma(kn)
        if sn != sg:
            failures.append(
                ClauseFailure("b", n, _distinguishing_prime(sn, sg), "Bockstein basis differs from the comparison group")
            )
    tg = tau_closure(sg)
    for i, g in k.entries:
        if i >= n:
            si = sigma(g)
            primes = (None,) if si.rational and not tg.rational else si.escapes(tg)  # None: it escapes at Q
            if primes:
                failures.append(ClauseFailure("c", i, primes[0], "Bockstein basis escapes tau of the comparison group"))
    return ClauseReport(not failures, tuple(failures))


def mod_p_trivial(k: GradedGroup, p: int) -> bool:
    """Whether SP of the complex is invisible mod p: no degree's Bockstein
    basis contains Z/p^oo, so p-torsion considerations impose nothing."""
    _checked_prime(p)
    _check_connected(k)
    return not any(PrimePattern.PRUFER & sigma(g).at(p) for _, g in k.entries)


@_record
class LocalizationType:
    """Extension type of a circle localized at `primes` (K(Z_(l), 1))."""

    primes: PrimeSet

    def to_json(self):
        return {"kind": "localization", "primes": self.primes.to_json(), "degree": 1}


@_record
class RationalType:
    """Extension type of a rational Eilenberg-MacLane space K(Q, degree)."""

    degree: int

    def to_json(self):
        return {"kind": "rational", "primes": None, "degree": self.degree}


@_record
class NoFiniteType:
    """SP shares its extension type with no finite-dimensional space."""

    def to_json(self):
        return {"kind": "none", "primes": None, "degree": None}


FiniteType = Union[LocalizationType, RationalType, NoFiniteType]


def classify_finite_type(k: GradedGroup) -> FiniteType:
    """Finite-dimensional extension type of SP of the complex, if any.

    The only candidates are localized circles and rational Eilenberg-MacLane
    spaces; try the circle reading of degree-1 homology first, then the
    rational reading of the lowest degree.
    """
    _check_connected(k)
    if k.is_zero:
        raise DomainError("the trivial complex has no classification", code="trivial_complex")
    g1 = k.at(1)
    if not g1.is_trivial:
        primes = sigma_matches_localization(sigma(g1))
        if primes is not None and sp_factors_as_em(k, localized(primes), 1).verdict:
            return LocalizationType(primes)
    lowest = k.degrees[0]
    if sigma(k.at(lowest)) == RATIONAL_ONLY and sp_factors_as_em(k, Q, lowest).verdict:
        return RationalType(lowest)
    return NoFiniteType()


def has_compact_type(k: GradedGroup) -> bool:
    """Whether SP of the complex has the extension type of a compact space;
    the circle is the only compact candidate."""
    verdict = classify_finite_type(k)
    return isinstance(verdict, LocalizationType) and verdict.primes.is_all


@_record
class MooreEmVerdict:
    """Whether a Moore complex's SP is an Eilenberg-MacLane space.

    In degree 1 this happens exactly for localizations (then `localization`
    is set); in higher degrees exactly for the rational basis (then
    `rational` is set).
    """

    matches: bool
    localization: Optional[PrimeSet]
    rational: bool

    def to_json(self):
        return {
            "matches": self.matches,
            "localization": self.localization.to_json() if self.localization is not None else None,
            "rational_case": self.rational,
        }


def moore_matches_em(group: AdmissibleGroup, n: int) -> MooreEmVerdict:
    moore_graded(group, n)  # its checks and messages are this function's
    s = sigma(group)
    if n == 1:
        primes = sigma_matches_localization(s)
        return MooreEmVerdict(primes is not None, primes, False)
    rational = s == RATIONAL_ONLY
    return MooreEmVerdict(rational, None, rational)
