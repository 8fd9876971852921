"""Dimension functions on the Bockstein basis.

A compactum X induces the function H -> dim_H(X) on the Bockstein test
groups {Q} u {Z/p, Z/p^oo, Z_(p) : p prime}.  Functions arising this way
satisfy five per-prime inequalities, and conversely every function
satisfying them is realized by some compactum, so the package works with
the functions themselves: finitely many exceptional primes over a default
triple, exactly like SigmaSet but valued in extended naturals.

The dimension of such a "symbolic compactum" with respect to an admissible
coefficient group G is the maximum of the function over sigma(G); this is
the computational content of the first Bockstein theorem and is what every
decision procedure below reduces to.  The two witness constructions build
functions separating a pair of coefficient groups either by an infinite gap
or by exactly one.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from .abelian import (
    BOCKSTEIN_FLAGS, AdmissibleGroup, ExtNat, PrimeIndexed, PrimePattern, PrimeTriple, _checked_int, _checked_kind,
    _checked_prime, _record, sigma, tau_closure,
)
from .errors import DomainError, ParseError
from .graded import GradedGroup, _checked_graded
from .primes import isprime


class BocksteinFunction(PrimeIndexed[ExtNat, PrimeTriple]):
    """An extended-natural value for every Bockstein group, stored as the
    value on Q, a default triple, and finitely many exceptional primes."""

    @classmethod
    def build(cls, rational, default: PrimeTriple, exceptions=()) -> "BocksteinFunction":
        exceptions = {_checked_prime(p): _checked_triple(t) for p, t in dict(exceptions).items()}
        return cls._build(_checked_value(rational), _checked_triple(default), exceptions)

    @classmethod
    def constant(cls, value) -> "BocksteinFunction":
        return cls.build(value, PrimeTriple.constant(value))

    def to_json(self):
        return self._to_json("Q", self.rational.to_json(), PrimeTriple.to_json)

    @classmethod
    def from_json(cls, data) -> "BocksteinFunction":
        if not isinstance(data, dict):
            raise ParseError("a Bockstein function document must be a JSON object", code="bad_document")
        unknown = set(data) - {"Q", "default", "exceptions"}
        if unknown:
            raise ParseError(f"unknown keys {sorted(unknown)}", code="bad_document")
        if "Q" not in data or "default" not in data:
            raise ParseError("a Bockstein function document needs Q and default", code="bad_document")
        try:
            rational = ExtNat.of(data["Q"])
        except ValueError as exc:
            raise ParseError(str(exc), code="bad_document") from exc
        default = PrimeTriple.from_json(data["default"])
        listed = data.get("exceptions", {})
        if not isinstance(listed, dict):
            raise ParseError("exceptions must be a JSON object keyed by prime", code="bad_document")
        exceptions = {}
        for key, raw in listed.items():
            try:
                p = int(key)
            except (TypeError, ValueError) as exc:
                raise ParseError(f"exception key {key!r} is not a prime", code="bad_document") from exc
            if not isprime(p):
                raise ParseError(f"exception key {key!r} is not a prime", code="bad_document")
            # one spelling per prime, so "2" and "02" cannot both name 2
            if str(p) != key:
                raise ParseError(f"exception key {key!r} is not in canonical decimal form", code="bad_document")
            exceptions[p] = PrimeTriple.from_json(raw)
        return cls._build(rational, default, exceptions)


_checked_alpha = partial(_checked_kind, kind=BocksteinFunction, name="a Bockstein function")


def _checked_value(value) -> ExtNat:
    """`value` (an int, an ExtNat or "inf") as an ExtNat, else `bad_dimension`."""
    try:
        return ExtNat.of(value)
    except ValueError as exc:
        raise DomainError(str(exc), code="bad_dimension") from None


def _checked_triple(t) -> PrimeTriple:
    return PrimeTriple(*map(_checked_value, _checked_kind(t, PrimeTriple, "a PrimeTriple")))


# ---------------------------------------------------------------------------
# Validation.


@_record
class Violation:
    """One failed inequality; prime None means the default triple."""

    prime: Optional[int]
    rule: int
    detail: str

    def to_json(self):
        return {"prime": self.prime, "rule": self.rule, "detail": self.detail}


def _triple_violations(prime: Optional[int], q: ExtNat, t: PrimeTriple) -> list[Violation]:
    where = f"p={prime}" if prime is not None else "default"
    out = []
    if not (t.prufer <= t.cyclic <= t.prufer + 1):
        out.append(Violation(prime, 1, f"{where}: need a(Z/p^oo) <= a(Z/p) <= a(Z/p^oo)+1, got {t.prufer}, {t.cyclic}"))
    if not t.cyclic <= t.local:
        out.append(Violation(prime, 2, f"{where}: need a(Z/p) <= a(Z_(p)), got {t.cyclic} > {t.local}"))
    if not q <= t.local:
        out.append(Violation(prime, 3, f"{where}: need a(Q) <= a(Z_(p)), got {q} > {t.local}"))
    if not t.local <= max(q, t.prufer + 1):
        out.append(Violation(prime, 4, f"{where}: need a(Z_(p)) <= max(a(Q), a(Z/p^oo)+1), got {t.local}"))
    if not t.prufer <= max(q, t.local - 1):
        out.append(Violation(prime, 5, f"{where}: need a(Z/p^oo) <= max(a(Q), a(Z_(p))-1), got {t.prufer}"))
    return out


def validate_bockstein(alpha: BocksteinFunction) -> list[Violation]:
    """All violated inequalities; the empty list certifies realizability.

    The value 0 is accepted wherever the inequalities allow it, even though
    the witness constructions themselves only emit values >= 1.
    """
    out = _triple_violations(None, _checked_alpha(alpha).rational, alpha.default)
    for p, t in alpha.exceptions:
        out.extend(_triple_violations(p, alpha.rational, t))
    return out


# ---------------------------------------------------------------------------
# Dimension evaluation.


def coef_dimension(alpha: BocksteinFunction, group: AdmissibleGroup) -> ExtNat:
    """dim with respect to `group`: the maximum of alpha over sigma(group).

    Finitely computable because sigma and alpha are both eventually uniform
    in the prime: one generic prime stands in for all unlisted ones.
    """
    s, alpha = sigma(group), _checked_alpha(alpha)
    values = [alpha.rational] if s.rational else []
    for p in s.primes_to_inspect(alpha):
        values.extend(alpha.at(p).select(s.at(p)))
    return max(values)


def covering_dimension(alpha: BocksteinFunction) -> ExtNat:
    """The supremum of alpha over the whole basis (the dimension w.r.t. Z)."""
    return max(_checked_alpha(alpha).rational, *alpha.default, *(v for _, t in alpha.exceptions for v in t))


def sp_in_ae(alpha: BocksteinFunction, k: GradedGroup) -> bool:
    """Whether the infinite symmetric product of a complex with reduced
    homology `k` extends over the compactum realizing alpha.

    True iff dim with respect to k's degree-i homology is at most i, for
    every nontrivial degree.  Empty homology (a point) always extends.
    """
    alpha, k = _checked_alpha(alpha), _checked_graded(k, 1, "complex homology must live in degrees >= 1")
    return all(coef_dimension(alpha, g) <= i for i, g in k.entries)


# ---------------------------------------------------------------------------
# The minimal complex.


class MinimalWedge(PrimeIndexed[Optional[int], PrimeTriple]):
    """Wedge summands K(H, degree) over the finite-valued part of alpha.

    Values hold the degree as an int or None when the value was infinite and
    the summand is absent; `default` describes every prime not listed in
    `exceptions`, so the description is finite even when the wedge is not.
    """

    def listed_summands(self) -> set[tuple[str, int]]:
        """Concrete (group name, degree) pairs at the exceptional primes."""
        out = set()
        if self.rational is not None:
            out.add(("Q", self.rational))
        for p, t in self.exceptions:
            for f, deg in zip(BOCKSTEIN_FLAGS, t):
                if deg is not None:
                    out.add((f.display.format(p=p), deg))
        return out

    def to_json(self):
        return self._to_json("rational", self.rational, lambda t: t.to_json(lambda deg: deg))


def _finite(v: ExtNat) -> Optional[int]:
    return v.value if v.is_finite else None


def minimal_wedge(alpha: BocksteinFunction) -> MinimalWedge:
    """The wedge of Eilenberg-MacLane spaces K(H, alpha(H)) over all basis
    groups with finite value; its symmetric-product type is the minimal one
    extending over the compactum realizing alpha."""
    return MinimalWedge.combine(_finite, lambda t: PrimeTriple._make(map(_finite, t)), _checked_alpha(alpha))


# ---------------------------------------------------------------------------
# Witness constructions.


def infinite_gap_witness(dim_group: AdmissibleGroup, sep_group: AdmissibleGroup, m: int) -> BocksteinFunction:
    """A dimension function worth m on `dim_group` but infinity on
    `sep_group`.

    Takes m on sigma(G), m+1 on tau(G) \\ sigma(G), infinity elsewhere; this
    satisfies the realizability inequalities, and the separating group must
    meet the infinite layer, i.e. sigma(F) may not sit inside tau(G).
    """
    _checked_int(m, 1, code="bad_dimension", message="separation degree m must be >= 1")
    s = sigma(dim_group)
    t = tau_closure(s)
    if sigma(sep_group).issubset(t):
        raise DomainError(
            "no infinite gap: the separating group's basis lies in tau of the base group",
            code="not_separable",
        )
    layer = partial(ExtNat.layered, m)
    return BocksteinFunction.combine(
        layer, lambda sp, tp: PrimeTriple._make([layer(f.flag in sp, f.flag in tp) for f in BOCKSTEIN_FLAGS]), s, t
    )


def unit_gap_witness(
    dim_group: AdmissibleGroup, sep_group: AdmissibleGroup, m: int
) -> tuple[BocksteinFunction, str]:
    """A dimension function worth m on `dim_group` and m+1 on `sep_group`.

    Case I bumps Z/q and Z_(q) to m+1 at the smallest prime q whose cyclic
    test group separates the bases; case II, applicable when only
    localizations separate, bumps Z_(q) alone.  Everything else stays at m,
    so the covering dimension is m+1.  Returns the function and the case
    label.
    """
    _checked_int(m, 1, code="bad_dimension", message="separation degree m must be >= 1")
    sf = sigma(sep_group)
    sg = sigma(dim_group)
    base, up = PrimeTriple.constant(ExtNat(m)), ExtNat(m + 1)
    case_i, case_ii = base._replace(cyclic=up, local=up), base._replace(local=up)
    for label, flag, bumped in ("I", PrimePattern.CYCLIC, case_i), ("II", PrimePattern.LOCAL, case_ii):
        q = min(sf.escapes(sg, flag), default=None)
        if q is not None:
            return BocksteinFunction._build(ExtNat(m), base, {q: bumped}), label
    raise DomainError(
        "no unit gap: no cyclic or localization test group separates the bases",
        code="not_applicable",
    )
