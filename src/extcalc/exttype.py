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

from typing import Optional

from .abelian import (
    AdmissibleGroup, PrimeIndexed, PrimePattern, PrimeSet, SigmaSet, _checked_group, _checked_int, _checked_prime,
    _record, sigma, sigma_matches_localization, tau_closure,
)
from .errors import DomainError
from .graded import GradedGroup, _connected, moore_graded

RATIONAL_ONLY = SigmaSet.build(True, PrimePattern.EMPTY, {})


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
    _connected(k)
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
        if sn != sg:  # the witness: None when they differ at Q, else the first prime where they do
            walk = PrimeIndexed.pointwise(sn, sg)
            prime = None if sn.rational != sg.rational else next(p for p, (a, b) in walk if a != b)
            failures.append(ClauseFailure("b", n, prime, "Bockstein basis differs from the comparison group"))
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
    _connected(k)
    return not any(PrimePattern.PRUFER & sigma(g).at(p) for _, g in k.entries)


@_record
class FiniteType:
    """The finite-dimensional extension type of SP of a complex: "localization"
    (a circle localized at `primes`, K(Z_(l), 1)), "rational" (K(Q, degree))
    or "none" (no finite-dimensional space shares it)."""

    kind: str
    primes: Optional[PrimeSet] = None
    degree: Optional[int] = None

    def to_json(self):
        primes = None if self.primes is None else self.primes.to_json()
        return {"kind": self.kind, "primes": primes, "degree": self.degree}


def classify_finite_type(k: GradedGroup) -> FiniteType:
    """Finite-dimensional extension type of SP of the complex, if any.

    The only candidates are K(H, n) for the lowest nonzero homology H, in
    degree n: a localized circle (n = 1 and sigma(H) = sigma(Z_(l))) or a
    rational space (sigma(H) = {Q}).  Clauses a and b of `sp_factors_as_em`
    hold for H itself, so a candidate holds iff every higher degree's basis
    lies in tau(sigma(H)), which is sigma(H): tau adds nothing to the basis
    of a localization.
    """
    _connected(k)
    if k.is_zero:
        raise DomainError("the trivial complex has no classification", code="trivial_complex")
    (n, h), *higher = k.entries
    s = sigma(h)
    primes = sigma_matches_localization(s) if n == 1 else None
    if (primes is None and s != RATIONAL_ONLY) or not all(sigma(g).issubset(s) for _, g in higher):
        return FiniteType("none")
    return FiniteType("rational", None, n) if primes is None else FiniteType("localization", primes, 1)


def has_compact_type(k: GradedGroup) -> bool:
    """Whether SP of the complex has the extension type of a compact space;
    the circle is the only compact candidate."""
    verdict = classify_finite_type(k)
    return verdict.kind == "localization" and verdict.primes.is_all


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
        localization = None if self.localization is None else self.localization.to_json()
        return {"matches": self.matches, "localization": localization, "rational_case": self.rational}


def moore_matches_em(group: AdmissibleGroup, n: int) -> MooreEmVerdict:
    """The classification of the Moore complex M(group, n), read as a verdict."""
    t = classify_finite_type(moore_graded(group, n))
    return MooreEmVerdict(t.kind != "none", t.primes, t.kind == "rational")
