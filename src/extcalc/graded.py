"""Graded groups and the coefficient calculus on them.

A GradedGroup is a finitely supported family of admissible groups indexed by
integer degrees.  Two readings are used side by side:

* homology data of a connected countable CW complex (support in degrees
  >= 1, e.g. the reduced homology of a Moore complex), and
* cohomology data of a compact metric space, stored with degree d holding
  H^d(X); negative-degree slots only ever appear in pairing outputs, where
  a complex is paired against a compactum and the natural index is the
  difference of the two gradings.

Coefficient operations are one `smash`, which walks the entry pairs once,
adds each pair's tensor and Tor atom terms to one list per output degree and
builds each degree's group once.  Homology with coefficients G is the smash
with G in degree 0, and cohomology is homology on the reflected grading
(degree d moved to -d).  Where a smash starts is read, not built: `_profile`
gives its least degree against each Bockstein test group from the `_OFFSETS`
table, and `SigmaSet.read` takes the least of those over sigma(G).
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from .abelian import (
    FULL_PATTERN, AdmissibleGroup, Cyclic, ExtNat, INFINITY, Localization, PrimeIndexed, PrimePattern,
    PrimeSet, PrimeTriple, Prufer, Q, TRIVIAL, _CYCLIC_PRUFER, _atom_pairs, _checked_group, _checked_int, _checked_kind,
    _indexed, _record, _required, _trusted, fresh_prime, sigma,
)
from .errors import DomainError


@_record
class GradedGroup:
    """Finitely many nontrivial admissible groups indexed by degree: the
    constructor (which `of` calls) takes a mapping of degrees to groups or
    (degree, group) pairs, summing the groups of a repeated degree.

    >>> GradedGroup([(2, Q), (1, Q), (2, TRIVIAL), (2, Q)]) == GradedGroup.of({1: Q, 2: Q + Q})
    True
    """

    entries: tuple[tuple[int, AdmissibleGroup], ...]

    def __post_init__(self):
        entries, out = self.entries, {}
        try:
            for d, g in entries.items() if hasattr(entries, "items") else entries:
                _checked_int(d, code="bad_degree", message="a graded group is indexed by degrees")
                out[d] = out[d] + _checked_group(g) if d in out else _checked_group(g)
        except (TypeError, ValueError):  # not a mapping or a collection of pairs
            raise _required("a mapping of degrees to groups", entries) from None
        object.__setattr__(self, "entries", tuple(sorted((d, g) for d, g in out.items() if not g.is_trivial)))

    @classmethod
    def of(cls, mapping) -> "GradedGroup":
        return cls(mapping)

    def at(self, degree: int) -> AdmissibleGroup:
        return next((g for d, g in self.entries if d == degree), TRIVIAL)

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def shift(self, r: int) -> "GradedGroup":
        _checked_int(r, code="bad_degree", message="a graded group shifts by a whole number of degrees")
        return _trusted(GradedGroup, tuple([(d + r, g) for d, g in self.entries]))  # still sorted, still nonzero

    def min_degree(self) -> ExtNat:
        """Least degree with a nonzero entry; infinity when there is none."""
        return ExtNat(_natural(self).entries[0][0]) if self.entries else INFINITY

    def support_primes(self) -> tuple[int, ...]:
        return tuple(sorted({p for _, g in self.entries for p in g.support_primes()}))

    def __repr__(self):
        from .dsl import format_graded

        return f"GradedGroup({format_graded(self)})"


def _checked_graded(k, least=None, message="", *, code="bad_degree") -> GradedGroup:
    """`k` when it is a GradedGroup with no degree below `least`; otherwise a
    DomainError, `not_a_group`, or `code` with `message` (a `{}` in it stands
    for the lowest degree)."""
    _checked_kind(k, GradedGroup, "a graded group")
    if least is not None and k.entries and k.entries[0][0] < least:
        raise DomainError(message.format(k.entries[0][0]), code=code)
    return k


# Dimensions are natural numbers, and only pairing outputs reach below degree 0.
_natural = partial(_checked_graded, least=0, message="a dimension needs degrees >= 0, got degree {}")
# The reduced homology of a connected complex starts in degree 1.
_connected = partial(_checked_graded, least=1, code="degree_zero_entry",
                     message="connected complex data may not carry homology in degrees < 1")


# How far above an entry G's degree its smash with a test group H starts, by G's pattern at p: 0 when H (x) G is
# nonzero, 1 when only Tor(H, G) is, None when neither.  By sigma's definition Z/p (x) G needs Z/p in sigma(G) and
# Z/p^oo (x) G needs Z_(p), and Tor needs p-torsion, which puts Z/p^oo in.  Z_(p) (x) G needs any of the three, or Q
# in sigma(G), which `_profile` reads separately, as it does for Q itself.
_OFFSETS = {PrimePattern.EMPTY: PrimeTriple(None, None, None), PrimePattern.PRUFER: PrimeTriple(1, 1, 0),
            _CYCLIC_PRUFER: PrimeTriple(0, 1, 0), FULL_PATTERN: PrimeTriple(0, 0, 0)}


def _profile(k: GradedGroup) -> PrimeIndexed:
    """The least degree of smash(k, {0: H}), None when it is zero, for each test group H (on Q, a PrimeTriple at each
    prime), k of any degrees.  The entries rise by 1 or more, the greatest offset, so the first to meet H gives it."""
    entries = [(d, sigma(g)) for d, g in _checked_graded(k).entries]

    def at_prime(*patterns):
        values = [None, None, None]
        for (d, s), a in zip(entries, patterns):
            for i, offset in enumerate(_OFFSETS[a]):
                if values[i] is None and offset is not None:
                    values[i] = d + offset
            if s.rational and values[2] is None:
                values[2] = d
        return PrimeTriple._make(values)

    rational = next((d for d, s in entries if s.rational), None)
    return PrimeIndexed.combine(lambda *_: rational, at_prime, *[s for _, s in entries])


def _lowest(k: GradedGroup, l: GradedGroup) -> Optional[int]:
    """The lowest degree of smash(k, l), None when it is zero: the least j + v over the entries (j, h) of l and the
    values v of k's profile on sigma(h)."""
    profile = _profile(k)
    values = [j + v for j, h in _checked_graded(l).entries for v in sigma(h).read(profile) if v is not None]
    return min(values, default=None)


def homology_with_coefficients(k: GradedGroup, group: AdmissibleGroup) -> GradedGroup:
    """Homology of a complex with given homology `k` and coefficients `group`, by universal coefficients:
    degree n holds (k_n (x) G) (+) Tor(k_{n-1}, G), which makes it the smash of k with G in degree 0."""
    return smash(k, _trusted(GradedGroup, ((0, _checked_group(group, "coefficient group must be nontrivial")),)))


def homological_dimension(k: GradedGroup, group: AdmissibleGroup) -> ExtNat:
    """Least degree where homology with these coefficients is nonzero, smash with `group` in degree 0: ExtNat(None),
    infinity, when `_lowest` finds none."""
    return ExtNat(_lowest(_natural(k), GradedGroup({0: _checked_group(group, "coefficient group must be nontrivial")})))


def smash(k: GradedGroup, l: GradedGroup) -> GradedGroup:
    """Homology of a smash product, by the Kunneth rule (all Tor terms are direct summands here, so the answer is
    exact, not just up to extension): degree n sums k_i (x) l_j over i + j = n and Tor(k_i, l_j) over i + j = n - 1.
    One pass: each entry pair adds its atom terms to its two degrees' lists, and each degree is built once."""
    k, l = _checked_graded(k), _checked_graded(l)
    indexed, terms = [(j, _indexed(h)) for j, h in l.entries], {}
    for i, g in k.entries:
        for j, h in indexed:
            _atom_pairs(g.summands, h, terms.setdefault(i + j, []), terms.setdefault(i + j + 1, []))
    return _trusted(GradedGroup, tuple([(d, AdmissibleGroup(t)) for d, t in sorted(terms.items()) if t]))


def suspend(k: GradedGroup, r: int) -> GradedGroup:
    """Homology of the r-fold suspension: shift every degree up by r."""
    r = _checked_int(r, 0, code="bad_degree", message="suspension count must be nonnegative")
    return _checked_graded(k).shift(r)


def _reflect(x: GradedGroup) -> GradedGroup:
    """x with each degree d moved to -d, its entries reversed to stay sorted:
    the grading in which a compactum's stored cohomology reads as homology."""
    return _trusted(GradedGroup, tuple([(-d, g) for d, g in reversed(_checked_graded(x).entries)]))


def cohomology_with_coefficients(x: GradedGroup, group: AdmissibleGroup) -> GradedGroup:
    """Cohomology of a compactum with stored cohomology `x` and coefficients
    `group`: degree d holds (G (x) x_d) (+) Tor(G, x_{d+1}), which is homology
    with coefficients on the reflected grading."""
    _checked_group(group, "coefficient group must be nontrivial")  # before x, as in homology_with_coefficients
    return _reflect(homology_with_coefficients(_reflect(x), group))


def pairing(x: GradedGroup, k: GradedGroup) -> tuple[GradedGroup, GradedGroup]:
    """Pair a compactum (cohomology data `x`) against a complex (homology
    data `k`): the smash of k with x on the reflected grading.

    Output degree n holds the mixed cohomology in reversed degree n, where a
    complex contribution in degree j against a compactum contribution in
    stored degree d lands at n = j - d; negative n can occur.  The one smash
    is returned in both components, as `vanishing_check` returns one reading
    three times; the tests check it against the Kunneth formula on chains.
    """
    paired = smash(_reflect(x), k)
    return paired, paired


def vanishing_check(x: GradedGroup, k: GradedGroup, m: int) -> tuple[bool, bool, bool]:
    """Three equivalent vanishing statements.

    1. the pairing of x and k vanishes in all output degrees <= -m,
    2. homology of k with coefficients x_d vanishes in degrees i <= d - m,
    3. cohomology of x with coefficients k_j vanishes in degrees i >= j + m.

    Each says the smash of k with x on the reflected grading has no degree <= -m: one reading of sigma.
    """
    _checked_int(m, code="bad_degree", message="the vanishing test takes a degree m")
    lowest = _lowest(_reflect(x), k)
    return (lowest is None or lowest > -m,) * 3


@_record
class GradedOrderVerdict:
    """Outcome of the graded dimension-order test.

    When `holds`, every coefficient in `checked` satisfies dim(k) <= dim(l);
    otherwise `witness` names the first failing coefficient with both
    dimensions.
    """

    holds: bool
    checked: tuple[AdmissibleGroup, ...]
    witness: Optional[tuple[AdmissibleGroup, ExtNat, ExtNat]] = None


def dimension_profile(k: GradedGroup) -> PrimeIndexed:
    """homological_dimension(k, H) for every Bockstein test group H: a value on
    Q and a Z/p, Z/p^oo, Z_(p) triple at each prime, `_profile` in ExtNats."""
    return PrimeIndexed.combine(ExtNat, lambda t: PrimeTriple._make(map(ExtNat, t)), _profile(_natural(k)))


def graded_order_leq(k: GradedGroup, l: GradedGroup) -> GradedOrderVerdict:
    """Decide dim-order over the canonical coefficient family: Q, and Z/p,
    Z/p^oo, Z_(p) at the inputs' primes and at one fresh prime.

    A failure is definitive; a pass certifies the inequality for every
    admissible coefficient group, since each one's dimension is determined
    by the family's (uniformity in the prime covers the rest).
    """
    left, right = _profile(_natural(k)), _profile(_natural(l))
    primes = set(k.support_primes()).union(l.support_primes())
    primes.add(fresh_prime(primes))
    family, dims_k, dims_l = [Q], [left.rational], [right.rational]
    for p in sorted(primes):
        # p is a support prime or fresh_prime's, so the atoms take the trusted path, and a one-atom group is canonical
        local = _trusted(Localization, _trusted(PrimeSet, False, (p,)))
        atoms = PrimeTriple(cyclic=_trusted(Cyclic, p, 1), prufer=_trusted(Prufer, p), local=local)
        family += [_trusted(AdmissibleGroup, ((atom, 1),)) for atom in atoms]
        dims_k += left.at(p)
        dims_l += right.at(p)
    witness = next(((g, ExtNat(dk), ExtNat(dl)) for g, dk, dl in zip(family, dims_k, dims_l)
                    if dl is not None and (dk is None or dk > dl)), None)  # None, infinity, is greatest
    return GradedOrderVerdict(witness is None, tuple(family), witness)


def moore_graded(group: AdmissibleGroup, degree: int) -> GradedGroup:
    """Homology of a Moore complex: one group concentrated in one degree."""
    _checked_group(group, "a Moore complex needs a nontrivial group")
    _checked_int(degree, 1, code="bad_degree", message="a Moore complex needs degree >= 1")
    return GradedGroup.of({degree: group})
