"""Admissible abelian groups and their symbolic tensor/torsion calculus.

The groups handled here are exactly the finite direct sums of four kinds of
building blocks:

* ``Localization(l)`` -- the subring Z_(l) of Q whose denominators avoid the
  primes in ``l``; this covers Z (all primes), Q (no primes) and Z[1/p],
* ``Cyclic(p, k)``    -- the cyclic group Z/p^k of prime-power order,
* ``Prufer(p)``       -- the Prufer group Z/p^oo.

Every finitely generated abelian group lands in this class after splitting
cyclic factors into prime-power pieces, and the class is closed under tensor
product and Tor.  Both functors are computed atom-by-atom from closed-form
tables and extended bilinearly over direct sums.

The module also implements the Bockstein basis sigma(G) -- the set of
"test groups" Q, Z/p, Z/p^oo, Z_(p) that detect G in homological dimension
theory -- together with its closure tau(G).  Although sigma(G) speaks about
infinitely many primes, all but finitely many behave identically, so a
default pattern plus finitely many exceptions represents it exactly; the
same shape, PrimeIndexed, also carries Bockstein functions and wedges.
"""

from __future__ import annotations

import enum
import functools
import itertools
import operator
from collections import Counter
from typing import Any, Generic, NamedTuple, TypeVar

from .errors import DomainError, ParseError
from .primes import factorint, isprime


# ---------------------------------------------------------------------------
# Naturals extended with infinity.


@functools.total_ordering
class ExtNat:
    """A natural number or infinity.

    Ordered and hashable; compares against plain ints.  Addition with a
    natural is defined and infinity absorbs it; subtraction saturates at 0.

    >>> ExtNat(3) + 1
    ExtNat(4)
    >>> INFINITY + 5 == INFINITY
    True
    >>> max(ExtNat(2), INFINITY)
    ExtNat(oo)
    """

    __slots__ = ("_value",)

    def __init__(self, value: int | None = None):
        if value is not None and (not _is_int(value) or value < 0):
            raise ValueError(f"ExtNat takes a nonnegative int or None for infinity, got {value!r}")
        self._value = value

    @classmethod
    def of(cls, value: "ExtNat | int | str") -> "ExtNat":
        """Coerce an int, an ExtNat, or the JSON spelling \"inf\"."""
        if isinstance(value, ExtNat):
            return value
        if value == "inf":
            return INFINITY
        if _is_int(value):
            return cls(value)
        raise ValueError(f"cannot read {value!r} as a natural or infinity")

    @property
    def is_finite(self) -> bool:
        return self._value is not None

    @property
    def value(self) -> int:
        if self._value is None:
            raise ValueError("infinity has no finite value")
        return self._value

    def _coerce(self, other) -> "ExtNat":
        if isinstance(other, ExtNat):
            return other
        if _is_int(other):
            return ExtNat(other)
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._value == other._value

    def __lt__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._value is None:
            return False
        if other._value is None:
            return True
        return self._value < other._value

    def __hash__(self):
        return hash(self._value)  # ExtNat(3) == 3, so the two hash alike

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._value is None or other._value is None:
            return INFINITY
        return ExtNat(self._value + other._value)

    __radd__ = __add__

    def __sub__(self, other):
        # Saturating: n - m is 0 when m >= n; infinity minus a natural stays infinite.
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._value is None:
            return INFINITY
        if other._value is None:
            raise ValueError("cannot subtract infinity")
        return ExtNat(max(0, self._value - other._value))

    @staticmethod
    def layered(m: int, inner: bool, outer: bool = False) -> "ExtNat":
        """m on the inner layer, m+1 on the outer layer only, infinity elsewhere:
        sigma and tau in the witnesses, tensor and Tor in dimension profiles."""
        return ExtNat(m) if inner else ExtNat(m + 1) if outer else INFINITY

    def to_json(self):
        return "inf" if self._value is None else self._value

    def __str__(self):
        return "oo" if self._value is None else str(self._value)

    def __repr__(self):
        return f"ExtNat({self})"


INFINITY = ExtNat(None)


# ---------------------------------------------------------------------------
# Prime sets.


def _record(cls):
    """`cls` as a frozen record of its annotated fields: the `__init__` (which
    ends in `__post_init__` when there is one), `__eq__`, `__hash__`, `__repr__`
    and `__match_args__` of `dataclass(frozen=True)`, generated as source the
    way dataclasses does, so they run as fast, without its import at start-up.
    A field with a class-level value takes it as its default."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    params = "".join(f", {n}=_defaults[{n!r}]" if n in defaults else f", {n}" for n in names)
    body = [f"_set(self, {n!r}, {n})" for n in names]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    mine = "(" + "".join(f"self.{n}," for n in names) + ")"
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    scope = {"_set": object.__setattr__, "_defaults": defaults}
    exec(
        f"def __init__(self{params}):\n    {'; '.join(body) or 'pass'}\n"
        "def __eq__(self, other):\n"
        "    if other.__class__ is self.__class__:\n"
        f"        return {mine} == {mine.replace('self.', 'other.')}\n"
        "    return NotImplemented\n"
        f"def __hash__(self):\n    return hash({mine})\n"
        f"def __repr__(self):\n    return f'{{self.__class__.__qualname__}}({shown})'\n",
        scope,
    )
    for name in ("__init__", "__eq__", "__hash__", "__repr__"):
        if cls.__dict__.get(name) is None:  # a class that defines __eq__ has __hash__ None
            setattr(cls, name, scope[name])
    cls.__setattr__ = cls.__delattr__ = _frozen
    cls.__match_args__ = names
    return cls


def _frozen(self, name, *value):
    raise AttributeError(f"field {name!r} of a frozen record cannot change")


def _trusted(cls, *values):
    """The frozen record `cls` with these field values, without the checks
    of `__post_init__`: primality is checked where input enters (the DSL, the
    JSON readers, the public constructors), not again for known primes."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__match_args__, values):
        object.__setattr__(obj, name, value)
    return obj


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _checked_prime(p) -> int:
    if not (_is_int(p) and isprime(p)):
        raise DomainError(f"{p!r} is not prime", code="not_prime")
    return p


def _checked_int(value, least=None, *, code, message):
    """`value` when it is an int (not a bool) of at least `least`; otherwise a
    DomainError with `code` and `message` (a `{}` in it stands for the value),
    which a non-integer follows with the note that an integer is required."""
    if not _is_int(value):
        raise DomainError(f"{message.format(value)}; an integer is required, not {value!r}", code=code)
    if least is not None and value < least:
        raise DomainError(message.format(value), code=code)
    return value


def _checked_kind(value, kind, name):
    """`value` when it is an instance of `kind`; otherwise a DomainError
    `not_a_group`, the one code for a value of another kind, saying that
    `name` is required."""
    if not isinstance(value, kind):
        raise DomainError(f"{name} is required, not {value!r}", code="not_a_group")
    return value


def _checked_group(group, trivial=None) -> "AdmissibleGroup":
    """`group` when it is an AdmissibleGroup, and nontrivial when `trivial`
    (the message for a trivial one) is given; otherwise a DomainError,
    `not_a_group` or `trivial_group`."""
    _checked_kind(group, AdmissibleGroup, "an admissible group")
    if trivial is not None and group.is_trivial:
        raise DomainError(trivial, code="trivial_group")
    return group


@_record
class PrimeSet:
    """A finite or cofinite set of primes.

    ``members`` is strictly increasing.  When ``cofinite`` is true the set is
    "all primes except members"; the empty cofinite set is the set of all
    primes and the empty finite set is the empty set.
    """

    cofinite: bool
    members: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "members", tuple(map(_checked_prime, sorted(set(self.members)))))

    @classmethod
    def of(cls, *primes: int) -> "PrimeSet":
        return cls(False, primes)

    @classmethod
    def excluding(cls, *primes: int) -> "PrimeSet":
        return cls(True, primes)

    def __contains__(self, p: int) -> bool:
        return (p not in self.members) if self.cofinite else (p in self.members)

    @property
    def is_all(self) -> bool:
        return self.cofinite and not self.members

    @property
    def is_empty(self) -> bool:
        return not self.cofinite and not self.members

    def intersect(self, other: "PrimeSet") -> "PrimeSet":
        return self._intersect(_checked_kind(other, PrimeSet, "a prime set"))

    def _intersect(self, other: "PrimeSet") -> "PrimeSet":  # the tensor table's, on atoms' prime sets
        if self.cofinite and other.cofinite:
            return _trusted(PrimeSet, True, tuple(sorted(set(self.members).union(other.members))))
        fin, other = (other, self) if self.cofinite else (self, other)
        # tuple() of a list: a generator's tuple is sized for 10 and shrunk, filling CPython's free lists
        return _trusted(PrimeSet, False, tuple([p for p in fin.members if p in other]))

    def to_json(self):
        return {"kind": "cofinite" if self.cofinite else "finite", "primes": list(self.members)}


ALL_PRIMES = PrimeSet.excluding()
NO_PRIMES = PrimeSet.of()


def fresh_prime(used) -> int:
    """The smallest prime not in `used`, a collection of ints."""
    try:
        used = set(used)
    except TypeError:  # not iterable, or holding an unhashable value
        raise DomainError(f"a collection of primes is required, not {used!r}", code="not_a_group") from None
    p = 2
    while p in used or not isprime(p):
        p += 1
    return p


# ---------------------------------------------------------------------------
# Atoms.


@_record
class Localization:
    """Z localized at a set of primes: Z_(l) is Z for l = all, Q for l = none."""

    primes: PrimeSet

    def __post_init__(self):
        _checked_kind(self.primes, PrimeSet, "a prime set")


@_record
class Cyclic:
    """The cyclic group of order prime**power."""

    prime: int
    power: int

    def __post_init__(self):
        _checked_prime(self.prime)
        _checked_int(self.power, 1, code="bad_power", message="cyclic atom needs an integer power >= 1, got {!r}")


@_record
class Prufer:
    """The Prufer group Z/p^oo, the union of all Z/p^k."""

    prime: int

    def __post_init__(self):
        _checked_prime(self.prime)


Atom = Localization | Cyclic | Prufer


def _atom_key(a: Atom):
    # Localizations first (Z-like before Q-like), then cyclics by prime and
    # power, then Prufer groups; gives the canonical display order.
    match a:
        case Localization(primes=ps):
            return (0, 0 if ps.cofinite else 1, ps.members)
        case Cyclic(prime=p, power=k):
            return (1, p, k)
        case Prufer(prime=p):
            return (2, p, 0)


def _atom_support(a: Atom):
    match a:
        case Localization(primes=ps):
            return ps.members
        case Cyclic(prime=p) | Prufer(prime=p):
            return (p,)


# ---------------------------------------------------------------------------
# Groups.


@_record
class AdmissibleGroup:
    """A finite direct sum of atoms, stored canonically.

    ``summands`` is a sorted tuple of (atom, multiplicity) pairs with positive
    multiplicities; two groups are isomorphic iff the records are equal.

    >>> cyclic(12)
    AdmissibleGroup(Z/4 + Z/3)
    >>> cyclic(4) + cyclic(2) + cyclic(4) == cyclic(2) + cyclic(4) + cyclic(4)
    True
    """

    summands: tuple[tuple[Atom, int], ...]

    @classmethod
    def of(cls, *atoms: Atom) -> "AdmissibleGroup":
        return cls.from_counts(Counter(atoms))

    @classmethod
    def from_counts(cls, counts) -> "AdmissibleGroup":
        items = []
        for a, n in dict(counts).items():
            if type(n) is not int or n < 0:  # every group sum runs this loop, so not _checked_int
                raise DomainError(f"multiplicity must be an integer >= 0, got {n!r}", code="bad_multiplicity")
            if n:
                items.append((a, n))
        items.sort(key=lambda item: _atom_key(item[0]))
        return cls(tuple(items))

    @property
    def is_trivial(self) -> bool:
        return not self.summands

    def atoms(self):
        """Iterate atoms with repetition."""
        for a, n in self.summands:
            yield from itertools.repeat(a, n)

    def __add__(self, other: "AdmissibleGroup") -> "AdmissibleGroup":
        if not isinstance(other, AdmissibleGroup):
            return NotImplemented  # Python's rule for operators: `Z + 5` is a TypeError
        counts = Counter(dict(self.summands))
        for a, n in other.summands:
            counts[a] += n
        return AdmissibleGroup.from_counts(counts)

    def support_primes(self) -> tuple[int, ...]:
        """Primes mentioned by any atom (localization lists count)."""
        out = set()
        for a, _ in self.summands:
            out.update(_atom_support(a))
        return tuple(sorted(out))

    def tensor(self, other: "AdmissibleGroup") -> "AdmissibleGroup":
        """Tensor product over Z, computed bilinearly from the atom table."""
        return self._bilinear(other, _tensor_atoms)

    def tor(self, other: "AdmissibleGroup") -> "AdmissibleGroup":
        """Tor over Z, computed bilinearly from the atom table."""
        return self._bilinear(other, _tor_atoms)

    def _bilinear(self, other: "AdmissibleGroup", table) -> "AdmissibleGroup":
        # Both tables vanish on torsion atoms at different primes, so a
        # torsion atom meets only the localizations and its own prime's atoms.
        flat, by_prime = [], {}
        for b, m in _checked_group(other).summands:
            if type(b) is Localization:
                flat.append((b, m))
            else:
                by_prime.setdefault(b.prime, []).append((b, m))
        at_prime = {p: flat + atoms for p, atoms in by_prime.items()}
        counts = Counter()
        for a, n in self.summands:
            for b, m in other.summands if type(a) is Localization else at_prime.get(a.prime, flat):
                if (c := table(a, b)) is not None:
                    counts[c] += n * m
        return AdmissibleGroup.from_counts(counts)

    def __repr__(self):
        from .dsl import format_group  # local import: dsl depends on this module

        return f"AdmissibleGroup({format_group(self)})"


TRIVIAL = AdmissibleGroup(())
Z = AdmissibleGroup.of(Localization(ALL_PRIMES))
Q = AdmissibleGroup.of(Localization(NO_PRIMES))


def cyclic(n: int) -> AdmissibleGroup:
    """Z/n split into prime-power atoms; n must be at least 2."""
    _checked_int(n, 2, code="bad_modulus", message="cyclic group modulus must be >= 2, got {}")
    return AdmissibleGroup.of(*(_trusted(Cyclic, p, e) for p, e in factorint(n).items()))


def prufer(p: int) -> AdmissibleGroup:
    return AdmissibleGroup.of(Prufer(p))


def localized(primes: PrimeSet) -> AdmissibleGroup:
    return AdmissibleGroup.of(Localization(primes))


# ---------------------------------------------------------------------------
# The tensor and Tor tables.
#
# Localizations are flat, so Tor vanishes whenever one side is a
# localization.  Prufer groups are divisible, so tensoring them with any
# torsion group dies; against Z_(l) they survive iff their prime is in l.
# Within one prime, gcd(p^k, p^m) = p^min(k, m) drives both tables, so a
# nonzero answer other than an intersection of localizations is an operand.


def _tensor_atoms(a: Atom, b: Atom) -> Atom | None:
    match (a, b):
        case (Localization(primes=l1), Localization(primes=l2)):
            return _trusted(Localization, l1._intersect(l2))
        case (Localization(primes=l), Cyclic(prime=p) | Prufer(prime=p)):
            return b if p in l else None
        case (Cyclic(prime=p) | Prufer(prime=p), Localization(primes=l)):
            return a if p in l else None
        case (Cyclic(prime=p, power=k), Cyclic(prime=q, power=m)):
            return (a if k <= m else b) if p == q else None
        case _:
            # Prufer x Prufer and Prufer x Cyclic vanish (divisible x torsion).
            return None


def _tor_atoms(a: Atom, b: Atom) -> Atom | None:
    match (a, b):
        case (Localization(), _) | (_, Localization()):
            return None
        case (Cyclic(prime=p, power=k), Cyclic(prime=q, power=m)):
            return (a if k <= m else b) if p == q else None
        case (Prufer(prime=p), Cyclic(prime=q) | Prufer(prime=q)):
            return b if p == q else None
        case (Cyclic(prime=p), Prufer(prime=q)):
            return a if p == q else None


# ---------------------------------------------------------------------------
# Values indexed by Q and the primes.


R = TypeVar("R")
V = TypeVar("V")


@_record
class PrimeIndexed(Generic[R, V]):
    """A value on Q plus a value at every prime, uniform in the prime
    outside finitely many exceptions.

    ``default`` is the value at every prime not listed in ``exceptions``;
    ``exceptions`` is sorted by prime and lists only values different from
    the default, so equal objects describe equal functions.
    """

    rational: R
    default: V
    exceptions: tuple[tuple[int, V], ...]

    @classmethod
    def build(cls, rational: R, default: V, exceptions=()):
        pairs = sorted((p, v) for p, v in dict(exceptions).items() if v != default)
        return cls(rational, default, tuple(pairs))

    _build = build  # `build` unchecked, for a subclass whose `build` checks its primes

    @classmethod
    def combine(cls, rational_fn, value_fn, *items: "PrimeIndexed"):
        """The `cls` instance holding rational_fn of the items' values on Q
        and, at every prime, value_fn of their values at that prime."""
        tables = [dict(x.exceptions) for x in items]
        defaults = [x.default for x in items]
        primes = set().union(*tables)
        return cls._build(
            rational_fn(*(x.rational for x in items)),
            value_fn(*defaults),
            {p: value_fn(*(t.get(p, d) for t, d in zip(tables, defaults))) for p in primes},
        )

    def at(self, p: int) -> V:
        for q, v in self.exceptions:
            if q == p:
                return v
        return self.default

    @property
    def exception_primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.exceptions)

    def primes_to_inspect(self, *others: "PrimeIndexed") -> tuple[int, ...]:
        """The exception primes of self and others in increasing order, then
        the smallest prime none of them lists, which stands for every
        unlisted prime: a pointwise question about these objects holds at
        every prime iff it holds at each prime returned."""
        primes = set(self.exception_primes).union(*(x.exception_primes for x in others))
        return tuple(sorted(primes)) + (fresh_prime(primes),)

    def _to_json(self, rational_key: str, rational, value_json):
        return {
            rational_key: rational,
            "default": value_json(self.default),
            "exceptions": {str(p): value_json(v) for p, v in self.exceptions},
        }


# ---------------------------------------------------------------------------
# Bockstein basis.


class PrimePattern(enum.Flag):
    """Which of the three p-local Bockstein groups are present at a prime."""

    EMPTY = 0
    CYCLIC = enum.auto()  # Z/p
    PRUFER = enum.auto()  # Z/p^oo
    LOCAL = enum.auto()   # Z_(p)


FULL_PATTERN = PrimePattern.CYCLIC | PrimePattern.PRUFER | PrimePattern.LOCAL
_CYCLIC_PRUFER = PrimePattern.CYCLIC | PrimePattern.PRUFER


class BocksteinFlag(NamedTuple):
    """How one p-local test group is spelled: ``name`` in sigma documents
    and as the PrimeTriple field, ``key`` in Bockstein function and wedge
    documents, ``display`` in text with ``{p}`` standing for the prime."""

    flag: PrimePattern
    name: str
    key: str
    display: str


BOCKSTEIN_FLAGS = (
    BocksteinFlag(PrimePattern.CYCLIC, "cyclic", "Zp", "Z/{p}"),
    BocksteinFlag(PrimePattern.PRUFER, "prufer", "ZpInf", "Z/{p}^oo"),
    BocksteinFlag(PrimePattern.LOCAL, "local", "Zploc", "Z_({p})"),
)


class PrimeTriple(NamedTuple):
    """One value on each p-local test group at a prime, its fields named
    and ordered as BOCKSTEIN_FLAGS: ExtNats in Bockstein functions and
    dimension profiles, a degree or None in minimal wedges, the test groups
    themselves in `leqgr`'s family."""

    cyclic: Any
    prufer: Any
    local: Any

    @classmethod
    def constant(cls, value) -> "PrimeTriple":
        return cls(value, value, value)

    def select(self, pattern: PrimePattern) -> list:
        """The values on the test groups in `pattern`."""
        return [v for f, v in zip(BOCKSTEIN_FLAGS, self) if f.flag & pattern]

    def to_json(self, value_json=ExtNat.to_json):
        return {f.key: value_json(v) for f, v in zip(BOCKSTEIN_FLAGS, self)}

    @classmethod
    def from_json(cls, data) -> "PrimeTriple":
        keys = [f.key for f in BOCKSTEIN_FLAGS]
        if not isinstance(data, dict) or set(data) != set(keys):
            raise ParseError(f"a triple needs exactly the keys {', '.join(keys)}", code="bad_document")
        try:
            return cls(*(ExtNat.of(data[key]) for key in keys))
        except ValueError as exc:
            raise ParseError(str(exc), code="bad_document") from exc


def pattern_flags(pat: PrimePattern) -> tuple[str, ...]:
    return tuple(f.name for f in BOCKSTEIN_FLAGS if f.flag & pat)


def _join(*values):
    return functools.reduce(operator.or_, values)


class SigmaSet(PrimeIndexed[bool, PrimePattern]):
    """A set of Bockstein groups: ``rational`` records whether Q belongs and
    the pattern at a prime which of Z/p, Z/p^oo, Z_(p) do."""

    def escapes(self, other: "SigmaSet", flags: PrimePattern = FULL_PATTERN) -> tuple[int, ...]:
        """The primes, in `primes_to_inspect` order, where self has a test
        group in `flags` that `other` lacks."""
        _checked_sigma(other)
        return tuple(p for p in self.primes_to_inspect(other) if self.at(p) & flags not in other.at(p))

    def issubset(self, other: "SigmaSet") -> bool:
        return (_checked_sigma(other).rational or not self.rational) and not self.escapes(other)

    def union(self, *others: "SigmaSet") -> "SigmaSet":
        return SigmaSet.combine(_join, _join, self, *(_checked_sigma(s) for s in others))

    def to_json(self):
        return self._to_json("rational", self.rational, lambda pat: list(pattern_flags(pat)))


_checked_sigma = functools.partial(_checked_kind, kind=SigmaSet, name="a Bockstein basis")


def sigma(group: AdmissibleGroup) -> SigmaSet:
    """The Bockstein basis of a nontrivial admissible group.

    Membership is defined by tensor/Tor tests:

    * Q       belongs iff Q (x) G is nonzero,
    * Z/p     belongs iff Z/p (x) G is nonzero,
    * Z_(p)   belongs iff Z/p^oo (x) G is nonzero,
    * Z/p^oo  belongs iff Tor(Z/p^oo, G) is nonzero or Z/p (x) G is nonzero.

    Both functors are additive, so sigma of a sum is the union over its
    summands, taken in one pass; each atom answers in closed form:

    * Z_(l)   gives Q and, at each prime in l, all of Z/p, Z/p^oo, Z_(p),
    * Z/p^k   gives Z/p and Z/p^oo at p,
    * Z/p^oo  gives Z/p^oo at p.

    >>> sigma(cyclic(12)).to_json()
    {'rational': False, 'default': [], 'exceptions': {'2': ['cyclic', 'prufer'], '3': ['cyclic', 'prufer']}}
    """
    _checked_group(group, "the Bockstein basis of the trivial group is undefined")
    rational, at, outside = False, {}, None  # outside: the primes no cofinite localization holds
    for a, _ in group.summands:
        if type(a) is Localization:
            rational, ps = True, a.primes
            if ps.cofinite:
                outside = set(ps.members) if outside is None else outside.intersection(ps.members)
            else:
                at.update(dict.fromkeys(ps.members, FULL_PATTERN))
        # The patterns at a prime form a chain, Z/p^oo < +Z/p < +Z_(p), so a union keeps the larger.
        elif type(a) is Prufer:
            at.setdefault(a.prime, PrimePattern.PRUFER)
        elif at.get(a.prime) is not FULL_PATTERN:
            at[a.prime] = _CYCLIC_PRUFER
    if outside is None:
        return SigmaSet.build(rational, PrimePattern.EMPTY, at)
    return SigmaSet.build(True, FULL_PATTERN, {p: at.get(p, PrimePattern.EMPTY) for p in outside})


def tau_closure(s: SigmaSet) -> SigmaSet:
    """Close a Bockstein basis under the tau rules.

    Q and Z/p^oo memberships are unchanged; Z/p joins exactly when Z/p^oo is
    in, and Z_(p) joins exactly when both Z/p^oo and Q are in.  The result
    always contains the input.
    """
    closed = FULL_PATTERN if _checked_sigma(s).rational else _CYCLIC_PRUFER
    return SigmaSet.combine(bool, lambda pat: closed if PrimePattern.PRUFER in pat else PrimePattern.EMPTY, s)


def tau(group: AdmissibleGroup) -> SigmaSet:
    return tau_closure(sigma(group))


def sigma_matches_localization(s: SigmaSet) -> PrimeSet | None:
    """The prime set l with s = sigma(Z_(l)), or None when no l works.

    sigma(Z_(l)) contains Q and, at each prime, either all three p-local
    groups (p in l) or none (p not in l); anything else matches no
    localization.
    """
    if not _checked_sigma(s).rational:
        return None
    if s.default not in (PrimePattern.EMPTY, FULL_PATTERN):
        return None
    if any(pat not in (PrimePattern.EMPTY, FULL_PATTERN) for _, pat in s.exceptions):
        return None
    if s.default == FULL_PATTERN:
        return PrimeSet.excluding(*(p for p, pat in s.exceptions if pat == PrimePattern.EMPTY))
    return PrimeSet.of(*(p for p, pat in s.exceptions if pat == FULL_PATTERN))
