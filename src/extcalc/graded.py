"""Graded groups and the coefficient calculus on them.

A GradedGroup is a finitely supported family of admissible groups indexed by
integer degrees.  Two readings are used side by side:

* homology data of a connected countable CW complex (support in degrees
  >= 1, e.g. the reduced homology of a Moore complex), and
* cohomology data of a compact metric space, stored with degree d holding
  H^d(X); negative-degree slots only ever appear in pairing outputs, where
  a complex is paired against a compactum and the natural index is the
  difference of the two gradings.

Coefficient operations are degreewise tensor/Tor; the dimension order reads sigma.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

from .abelian import (
    AdmissibleGroup,
    Cyclic,
    ExtNat,
    INFINITY,
    Localization,
    PrimeIndexed,
    PrimePattern,
    PrimeSet,
    PrimeTriple,
    Prufer,
    Q,
    TRIVIAL,
    _checked_int,
    _trusted,
    fresh_prime,
    sigma,
)
from .errors import DomainError


@dataclass(frozen=True)
class GradedGroup:
    """Finitely many nontrivial admissible groups indexed by degree.

    >>> GradedGroup.of({1: Q, 2: TRIVIAL}) == GradedGroup.of({1: Q})
    True
    """

    entries: tuple[tuple[int, AdmissibleGroup], ...]

    @classmethod
    def of(cls, mapping) -> "GradedGroup":
        items = []
        for degree, group in dict(mapping).items():
            _checked_int(degree, code="bad_degree", message="a graded group is indexed by degrees")
            if not group.is_trivial:
                items.append((degree, group))
        items.sort()
        return cls(tuple(items))

    def at(self, degree: int) -> AdmissibleGroup:
        for d, g in self.entries:
            if d == degree:
                return g
        return TRIVIAL

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.entries)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def shift(self, r: int) -> "GradedGroup":
        return GradedGroup(tuple((d + r, g) for d, g in self.entries))

    def direct_sum(self, other: "GradedGroup") -> "GradedGroup":
        return _collect(self.entries + other.entries)

    def min_degree(self) -> ExtNat:
        """Least degree with a nonzero entry; infinity when there is none."""
        return ExtNat(_natural(self).entries[0][0]) if self.entries else INFINITY

    def support_primes(self) -> tuple[int, ...]:
        out = set()
        for _, g in self.entries:
            out.update(g.support_primes())
        return tuple(sorted(out))

    def __repr__(self):
        from .dsl import format_graded

        return f"GradedGroup({format_graded(self)})"


EMPTY_GRADED = GradedGroup(())


def _collect(terms) -> GradedGroup:
    """Sum (degree, group) terms degreewise."""
    out = {}
    for d, g in terms:
        out[d] = out[d] + g if d in out else g
    return GradedGroup.of(out)


def _natural(k: GradedGroup) -> GradedGroup:
    """`k` itself when no degree is negative: dimensions are natural numbers,
    and only pairing outputs reach below degree 0."""
    if k.entries and k.entries[0][0] < 0:
        raise DomainError(f"a dimension needs degrees >= 0, got degree {k.entries[0][0]}", code="bad_degree")
    return k


def _require_coefficient(group: AdmissibleGroup):
    if group.is_trivial:
        raise DomainError("coefficient group must be nontrivial", code="trivial_group")


def homology_with_coefficients(k: GradedGroup, group: AdmissibleGroup) -> GradedGroup:
    """Homology of a complex with given homology `k` and coefficients `group`.

    Universal coefficients degreewise: degree n holds
    (k_n (x) G) (+) Tor(k_{n-1}, G).
    """
    _require_coefficient(group)
    return _collect(term for d, g in k.entries for term in ((d, g.tensor(group)), (d + 1, g.tor(group))))


def homological_dimension(k: GradedGroup, group: AdmissibleGroup) -> ExtNat:
    """Least degree where homology with these coefficients is nonzero."""
    return homology_with_coefficients(_natural(k), group).min_degree()


def smash(k: GradedGroup, l: GradedGroup) -> GradedGroup:
    """Homology of a smash product, by the Kunneth rule (all Tor terms are
    direct summands here, so the answer is exact, not just up to extension)."""
    return _collect((i + d, h) for d, g in l.entries for i, h in homology_with_coefficients(k, g).entries)


def suspend(k: GradedGroup, r: int) -> GradedGroup:
    """Homology of the r-fold suspension: shift every degree up by r."""
    return k.shift(_checked_int(r, 0, code="bad_degree", message="suspension count must be nonnegative"))


def cohomology_with_coefficients(x: GradedGroup, group: AdmissibleGroup) -> GradedGroup:
    """Cohomology of a compactum with stored cohomology `x` and coefficients
    `group`: degree d holds (G (x) x_d) (+) Tor(G, x_{d+1}).

    The Tor partner sits one stored degree up because stored degrees run
    opposite to the reversed grading in which the coefficient formula is
    stated.
    """
    _require_coefficient(group)
    return _collect(term for d, g in x.entries for term in ((d, group.tensor(g)), (d - 1, group.tor(g))))


def pairing(x: GradedGroup, k: GradedGroup) -> tuple[GradedGroup, GradedGroup]:
    """Pair a compactum (cohomology data `x`) against a complex (homology
    data `k`).

    Output degree n holds the mixed cohomology in reversed degree n, where a
    complex contribution in degree j against a compactum contribution in
    stored degree d lands at n = j - d; negative n can occur.  The two
    components compute the same answer along the two expansion orders and
    must agree degreewise.
    """
    via_cohomology = _collect((j - d, h) for j, g in k.entries for d, h in cohomology_with_coefficients(x, g).entries)
    via_homology = _collect((i - d, h) for d, g in x.entries for i, h in homology_with_coefficients(k, g).entries)
    return via_cohomology, via_homology


def vanishing_check(x: GradedGroup, k: GradedGroup, m: int) -> tuple[bool, bool, bool]:
    """Three equivalent vanishing statements, each computed independently.

    1. the pairing of x and k vanishes in all output degrees <= -m,
    2. homology of k with coefficients x_d vanishes in degrees i <= d - m,
    3. cohomology of x with coefficients k_j vanishes in degrees i >= j + m.
    """
    _checked_int(m, code="bad_degree", message="the vanishing test takes a degree m")
    paired = pairing(x, k)[0]
    first = all(n > -m for n in paired.degrees)
    second = all(
        i > d - m
        for d, g in x.entries
        for i in homology_with_coefficients(k, g).degrees
    )
    third = all(
        i < j + m
        for j, g in k.entries
        for i in cohomology_with_coefficients(x, g).degrees
    )
    return first, second, third


@dataclass(frozen=True)
class GradedOrderVerdict:
    """Outcome of the graded dimension-order test.

    When `holds`, every coefficient in `checked` satisfies dim(k) <= dim(l);
    otherwise `witness` names the first failing coefficient with both
    dimensions.
    """

    holds: bool
    checked: tuple[AdmissibleGroup, ...]
    witness: Optional[tuple[AdmissibleGroup, ExtNat, ExtNat]] = None


def _entry_profile(d: int, group: AdmissibleGroup) -> PrimeIndexed:
    # d where the tensor term is nonzero, d+1 where only the Tor term is
    s, P, lowest = sigma(group), PrimePattern, partial(ExtNat.layered, d)
    return PrimeIndexed.combine(
        lowest,
        lambda pat: PrimeTriple(
            cyclic=lowest(P.CYCLIC in pat, P.PRUFER in pat),
            prufer=lowest(P.LOCAL in pat, P.PRUFER in pat),
            local=lowest(s.rational or P.PRUFER in pat),
        ),
        s,
    )


def dimension_profile(k: GradedGroup) -> PrimeIndexed:
    """homological_dimension(k, H) for every Bockstein test group H: a value on
    Q and a Z/p, Z/p^oo, Z_(p) triple at each prime.  An entry G in degree d
    gives d where G (x) H is nonzero and d+1 where only Tor(G, H) is, read from
    sigma(G): Q needs Q, Z/p needs Z/p, Z/p^oo needs Z_(p), Z_(p) needs Q or
    Z/p^oo, and the Tor terms need p-torsion, which puts Z/p^oo in sigma(G)."""
    # _make of a list: a generator's tuple is sized for 10 and shrunk, filling CPython's free lists
    return PrimeIndexed.combine(
        lambda *values: min(values),
        lambda *triples: PrimeTriple._make([min(values) for values in zip(*triples)]),
        PrimeIndexed.build(INFINITY, PrimeTriple.constant(INFINITY)),
        *(_entry_profile(d, g) for d, g in _natural(k).entries),
    )


def graded_order_leq(k: GradedGroup, l: GradedGroup) -> GradedOrderVerdict:
    """Decide dim-order over the canonical coefficient family: Q, and Z/p,
    Z/p^oo, Z_(p) at the inputs' primes and at one fresh prime.

    A failure is definitive; a pass certifies the inequality for every
    admissible coefficient group, since each one's dimension is determined
    by the family's (uniformity in the prime covers the rest).
    """
    left, right = dimension_profile(k), dimension_profile(l)
    primes = set(k.support_primes()).union(l.support_primes())
    primes.add(fresh_prime(primes))
    family, dims_k, dims_l = [Q], [left.rational], [right.rational]
    for p in sorted(primes):
        # p is a support prime or fresh_prime's, so the atoms take the trusted path
        local = Localization(_trusted(PrimeSet, False, (p,)))
        atoms = PrimeTriple(cyclic=_trusted(Cyclic, p, 1), prufer=_trusted(Prufer, p), local=local)
        family += map(AdmissibleGroup.of, atoms)
        dims_k += left.at(p)
        dims_l += right.at(p)
    witness = next(((g, dk, dl) for g, dk, dl in zip(family, dims_k, dims_l) if not dk <= dl), None)
    return GradedOrderVerdict(witness is None, tuple(family), witness)


def moore_graded(group: AdmissibleGroup, degree: int) -> GradedGroup:
    """Homology of a Moore complex: one group concentrated in one degree."""
    if group.is_trivial:
        raise DomainError("a Moore complex needs a nontrivial group", code="trivial_group")
    _checked_int(degree, 1, code="bad_degree", message="a Moore complex needs degree >= 1")
    return GradedGroup.of({degree: group})
