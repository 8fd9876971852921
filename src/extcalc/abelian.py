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

import bisect
import functools
import itertools
import operator
from typing import Any, Generic, NamedTuple, TypeVar

from .errors import DomainError, ParseError
from .primes import factorint, isprime, nextprime


# ---------------------------------------------------------------------------
# Naturals extended with infinity.


@functools.total_ordering
class ExtNat:
    """A natural number or infinity.

    Ordered and hashable; compares against plain ints.  Addition with a
    natural is defined and infinity absorbs it.

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
    A field with a class-level value takes it as its default.  Also generated:
    `cls._new(*fields)` (on a subclass too), which fills a new record's
    `__dict__` without `__post_init__`'s checks and conversions, for values
    that are already checked and canonical, never for input.  It names the
    fields only as string keys, so none (`SNFResult.d`) clashes with a local."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    params = "".join(f", {n}=_defaults[{n!r}]" if n in defaults else f", {n}" for n in names)
    body = [f"_set(self, {n!r}, {n})" for n in names]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    mine = "(" + "".join(f"self.{n}," for n in names) + ")"
    shown = ", ".join(f"{n}={{self.{n}!r}}" for n in names)
    filled = "".join(f"; fields[{n!r}] = _{i}" for i, n in enumerate(names))
    scope = {"_set": object.__setattr__, "_alloc": object.__new__, "_defaults": defaults}
    exec(
        f"def __init__(self{params}):\n    {'; '.join(body) or 'pass'}\n"
        f"def _new(cls{''.join(f', _{i}' for i in range(len(names)))}):\n"
        f"    self = _alloc(cls); fields = self.__dict__{filled}\n    return self\n"
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
    cls._new = classmethod(scope["_new"])
    cls.__setattr__ = cls.__delattr__ = _frozen
    cls.__match_args__ = names
    return cls


def _frozen(self, name, *value):
    raise AttributeError(f"field {name!r} of a frozen record cannot change")


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


def _required(name, value, code="not_a_group") -> DomainError:
    """The DomainError `code` saying that `name` is required, not `value`."""
    return DomainError(f"{name} is required, not {value!r}", code=code)


def _checked_kind(value, kind, name):
    """`value` when it is an instance of `kind`; otherwise `_required(name)`:
    `not_a_group` is the one code for a value of another kind."""
    if not isinstance(value, kind):
        raise _required(name, value)
    return value


def _converted(value, convert, name, code="not_a_group"):
    """convert(value) of a collection a record takes (to a dict, set, tuple or
    canonical form); `_required(name, code)` if it fails."""
    try:
        return convert(value)
    except (TypeError, ValueError):  # not a collection, unhashable, or (dict) not of pairs
        raise _required(name, value, code) from None


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
        members = _converted(self.members, lambda m: sorted(set(m)), "a collection of primes")
        object.__setattr__(self, "members", tuple(map(_checked_prime, members)))

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

    def _intersect(self, other: "PrimeSet") -> "PrimeSet":  # the tensor table's, on atoms' prime sets
        if self.cofinite and other.cofinite:
            return PrimeSet._new(True, tuple(sorted(set(self.members).union(other.members))))
        fin, other = (other, self) if self.cofinite else (self, other)
        # tuple() of a list: a generator's tuple is sized for 10 and shrunk, filling CPython's free lists
        return PrimeSet._new(False, tuple([p for p in fin.members if p in other]))

    def to_json(self):
        return {"kind": "cofinite" if self.cofinite else "finite", "primes": list(self.members)}


ALL_PRIMES = PrimeSet.excluding()
NO_PRIMES = PrimeSet.of()


def fresh_prime(used) -> int:
    """The smallest prime not in `used`, a collection of ints."""
    used = _converted(used, set, "a collection of primes")
    p = 2
    while p in used:
        p = nextprime(p)
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


def _summand_key(summand: tuple[Atom, int]):
    # Localizations first (Z-like before Q-like), then cyclics by prime and
    # power, then Prufer groups; gives the canonical display order.
    a = summand[0]
    if type(a) is Localization:
        return (0, 0 if a.primes.cofinite else 1, a.primes.members)
    if type(a) is Cyclic:
        return (1, a.prime, a.power)
    if type(a) is Prufer:
        return (2, a.prime, 0)
    raise _required("an atom", a)


# ---------------------------------------------------------------------------
# Groups.


@_record
class AdmissibleGroup:
    """A finite direct sum of atoms, stored canonically: the constructor (which `of`
    and `from_counts` call) takes a mapping of atoms to multiplicities or such pairs and
    stores ``summands`` as sorted pairs with positive multiplicities, so isomorphic groups are equal.

    >>> cyclic(12)
    AdmissibleGroup(Z/4 + Z/3)
    >>> cyclic(4) + cyclic(2) + cyclic(4) == cyclic(2) + cyclic(4) + cyclic(4)
    True
    """

    summands: tuple[tuple[Atom, int], ...]

    def __post_init__(self):
        summands, counts = self.summands, {}
        try:
            for a, n in summands.items() if hasattr(summands, "items") else summands:
                if type(n) is not int or n < 0:  # every group sum runs this loop, so not _checked_int
                    raise DomainError(f"multiplicity must be an integer >= 0, got {n!r}", code="bad_multiplicity")
                if n:  # pairs may repeat an atom: its multiplicities add
                    counts[a] = counts.get(a, 0) + n
        except (TypeError, ValueError):  # not a mapping or a collection of pairs, or an unhashable atom
            raise _required("a mapping of atoms to multiplicities", summands) from None
        object.__setattr__(self, "summands", tuple(sorted(counts.items(), key=_summand_key)))

    @classmethod
    def of(cls, *atoms: Atom) -> "AdmissibleGroup":
        return cls.from_counts([(a, 1) for a in atoms])

    @classmethod
    def from_counts(cls, counts) -> "AdmissibleGroup":
        return cls(counts)

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
        return AdmissibleGroup.from_counts(self.summands + other.summands)

    def support_primes(self) -> tuple[int, ...]:
        """Primes mentioned by any atom (localization lists count)."""
        primes = {p for a, _ in self.summands for p in (a.primes.members if type(a) is Localization else (a.prime,))}
        return tuple(sorted(primes))

    def tensor(self, other: "AdmissibleGroup") -> "AdmissibleGroup":
        """Tensor product over Z, computed bilinearly from the atom table."""
        _atom_pairs(self.summands, _indexed(_checked_group(other)), terms := [], None)
        return AdmissibleGroup.from_counts(terms)

    def tor(self, other: "AdmissibleGroup") -> "AdmissibleGroup":
        """Tor over Z, computed bilinearly from the atom table."""
        _atom_pairs(self.summands, _indexed(_checked_group(other)), None, terms := [])
        return AdmissibleGroup.from_counts(terms)

    def __repr__(self):
        from .dsl import format_group  # local import: dsl depends on this module

        return f"AdmissibleGroup({format_group(self)})"


TRIVIAL = AdmissibleGroup(())
Z = AdmissibleGroup.of(Localization(ALL_PRIMES))
Q = AdmissibleGroup.of(Localization(NO_PRIMES))


def cyclic(n: int) -> AdmissibleGroup:
    """Z/n split into prime-power atoms; n must be at least 2."""
    _checked_int(n, 2, code="bad_modulus", message="cyclic group modulus must be >= 2, got {}")
    return AdmissibleGroup.of(*(Cyclic._new(p, e) for p, e in factorint(n).items()))


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
    if type(a) is Localization:
        if type(b) is Localization:
            return Localization._new(a.primes._intersect(b.primes))
        return b if b.prime in a.primes else None
    if type(b) is Localization:
        return a if a.prime in b.primes else None
    if type(a) is Cyclic and type(b) is Cyclic and a.prime == b.prime:
        return a if a.power <= b.power else b
    return None  # Prufer x Prufer and Prufer x Cyclic vanish (divisible x torsion), as do two primes' torsion atoms


def _tor_atoms(a: Atom, b: Atom) -> Atom | None:
    if type(a) is Localization or type(b) is Localization or a.prime != b.prime:
        return None
    if type(a) is Prufer:  # Tor(Z/p^oo, H) is H's p-torsion
        return b
    return a if type(b) is Prufer or a.power <= b.power else b


def _indexed(group: AdmissibleGroup):
    """`group`'s summands as `_atom_pairs` meets them: all of them, and at each prime p of a torsion atom the
    localizations with p's torsion atoms, then p's torsion atoms alone; built once per group, however many meet it."""
    flat, by_prime = [(b, m) for b, m in group.summands if type(b) is Localization], {}
    for b, m in group.summands[len(flat):]:  # the canonical order lists the localizations first
        by_prime.setdefault(b.prime, []).append((b, m))
    return group.summands, flat, {p: flat + atoms for p, atoms in by_prime.items()}, by_prime


def _atom_pairs(summands, index, tensor: list | None, tor: list | None):
    """Append the terms of G (x) H to `tensor` and of Tor(G, H) to `tor` (None: not wanted), G with these summands
    and H `_indexed`. Both tables vanish on torsion atoms at different primes, and Tor on a localization, so a
    torsion atom meets H's localizations and its prime's atoms in the tensor table, and those atoms alone in Tor's."""
    every, flat, at_prime, by_prime = index
    for a, n in summands:
        local = type(a) is Localization
        if tensor is not None:
            meets = every if local else at_prime.get(a.prime, flat)
            tensor += [(c, n * m) for b, m in meets if (c := _tensor_atoms(a, b)) is not None]
        if tor is not None and not local:
            tor += [(c, n * m) for b, m in by_prime.get(a.prime, ()) if (c := _tor_atoms(a, b)) is not None]


# ---------------------------------------------------------------------------
# Values indexed by Q and the primes.


R = TypeVar("R")
V = TypeVar("V")


@_record
class PrimeIndexed(Generic[R, V]):
    """A value on Q plus a value at every prime, uniform in the prime
    outside finitely many exceptions.

    ``default`` is the value at every prime not listed in ``exceptions``, which the constructor (`build`
    calls it) takes as a mapping of primes to values or such pairs and stores sorted by prime, with only
    values unequal to the default: equal objects, equal functions.  It is the one check of every kind:
    each key must be prime (`not_prime`), then a subclass's hooks check each value, `rational` and the default.
    """

    rational: R
    default: V
    exceptions: tuple[tuple[int, V], ...] = ()

    _rational_check = _entry_check = staticmethod(lambda value: value)  # a subclass's checks: return it or raise

    def __post_init__(self):  # each key, then its value, in the mapping's order
        listed, entry = _converted(self.exceptions, dict, "a mapping of primes to values").items(), self._entry_check
        self._canonical(self.rational, self.default, sorted([(_checked_prime(p), entry(v)) for p, v in listed]))

    def _canonical(self, rational, default, pairs):
        """Check `rational` and the default, and store them with the `pairs`, (prime, checked value) in increasing
        prime, whose value is not the default: the constructor's work after its key and value checks."""
        rational, default = self._rational_check(rational), self._entry_check(default)
        exceptions = tuple([(p, v) for p, v in pairs if v != default])
        self.__dict__.update(rational=rational, default=default, exceptions=exceptions)  # past the frozen __setattr__

    @classmethod
    def build(cls, rational: R, default: V, exceptions=()):
        return cls(rational, default, exceptions)

    @classmethod
    def combine(cls, rational_fn, value_fn, *items: "PrimeIndexed"):
        """The `cls` instance holding rational_fn of the items' values on Q
        and, at every prime, value_fn of their values at that prime."""
        primes, columns = _listed(items)
        out = object.__new__(cls)  # the items' keys are primes already: only their values are checked
        values = zip(primes, map(cls._entry_check, itertools.starmap(value_fn, zip(*columns))))
        out._canonical(rational_fn(*(x.rational for x in items)), value_fn(*(x.default for x in items)), values)
        return out

    @staticmethod
    def pointwise(*items: "PrimeIndexed"):
        """(p, (the items' values at p)) for each prime some item lists, in increasing order, then (the least
        prime none lists, (their defaults)), which stands for every unlisted prime: a pointwise question about
        the items holds at every prime iff it holds at each prime yielded.  Lazy: a search may stop early."""
        primes, columns = _listed(items)
        yield from zip(primes, zip(*columns))
        yield fresh_prime(primes), tuple(x.default for x in items)

    def at(self, p: int) -> V:
        i = bisect.bisect_left(self.exceptions, (p,))  # (p,) sorts just before (p, value)
        return self.exceptions[i][1] if i < len(self.exceptions) and self.exceptions[i][0] == p else self.default

    @property
    def exception_primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.exceptions)

    def _to_json(self, rational_key: str, rational, value_json):
        return {
            rational_key: rational,
            "default": value_json(self.default),
            "exceptions": {str(p): value_json(v) for p, v in self.exceptions},
        }


def _listed(items):
    """The primes any item lists, in increasing order, and each item's values at them: one read of each table, and
    for an item that lists no prime a constant column, with no table."""
    primes, columns = sorted({p for x in items for p, _ in x.exceptions}), []
    for x in items if primes else ():
        table = dict(x.exceptions) if x.exceptions else None
        columns.append([table.get(p, x.default) for p in primes] if table else [x.default] * len(primes))
    return primes, columns


# ---------------------------------------------------------------------------
# Bockstein basis.


class PrimeTriple(NamedTuple):
    """One value on each p-local test group at a prime: Z/p, Z/p^oo, Z_(p),
    the one place that fixes their order.  ExtNats in Bockstein functions
    and dimension profiles, an int or None in a smash's offsets and least
    degrees and in minimal wedges; `leqgr`'s family follows it.  A PrimePattern
    is a set of test groups as the bits of the fields: bit i stands for field i."""

    cyclic: Any
    prufer: Any
    local: Any

    @classmethod
    def constant(cls, value) -> "PrimeTriple":
        return cls(value, value, value)

    @classmethod
    def checked(cls, field_check, value) -> "PrimeTriple":
        """`value` with `field_check` applied to each field when it is a PrimeTriple, else `not_a_group`."""
        return cls._make(map(field_check, _checked_kind(value, cls, "a PrimeTriple")))

    def select(self, pattern: int) -> list:
        """The values on the test groups in `pattern`: field i when bit i is set."""
        return [v for i, v in enumerate(self) if pattern >> i & 1]

    def to_json(self, value_json=ExtNat.to_json):
        return {key: value_json(v) for key, v in zip(_TRIPLE_KEYS, self)}

    @classmethod
    def from_json(cls, data) -> "PrimeTriple":
        if not isinstance(data, dict) or set(data) != set(_TRIPLE_KEYS):
            raise ParseError(f"a triple needs exactly the keys {', '.join(_TRIPLE_KEYS)}", code="bad_document")
        try:
            return cls._make([ExtNat.of(data[key]) for key in _TRIPLE_KEYS])
        except ValueError as exc:
            raise ParseError(str(exc), code="bad_document") from exc


# How the test groups are spelled: in Bockstein function and wedge documents, and in text with {p} for the prime.
_TRIPLE_KEYS = PrimeTriple("Zp", "ZpInf", "Zploc")
_TRIPLE_DISPLAY = PrimeTriple("Z/{p}", "Z/{p}^oo", "Z_({p})")


class PrimePattern:
    """Which of the three p-local test groups are present at a prime: an int
    whose bit i is set when the group of PrimeTriple field i is."""

    EMPTY = 0
    CYCLIC = 1  # Z/p
    PRUFER = 2  # Z/p^oo
    LOCAL = 4   # Z_(p)


FULL_PATTERN = PrimePattern.CYCLIC | PrimePattern.PRUFER | PrimePattern.LOCAL
_CYCLIC_PRUFER = PrimePattern.CYCLIC | PrimePattern.PRUFER
_LOCAL_PATTERNS = {PrimePattern.EMPTY, FULL_PATTERN}  # the patterns of sigma(Z_(l)) at a prime
# The patterns of a sigma at a prime, which form the chain Z/p^oo < +Z/p < +Z_(p).
_CHAIN_PATTERNS = frozenset({PrimePattern.EMPTY, PrimePattern.PRUFER, _CYCLIC_PRUFER, FULL_PATTERN})


def pattern_flags(pat: int) -> tuple[str, ...]:
    """The field names of the test groups in `pat`, as sigma documents spell them."""
    return tuple(PrimeTriple.select(PrimeTriple._fields, pat))


def _join(*values):
    return functools.reduce(operator.or_, values)


class SigmaSet(PrimeIndexed[bool, int]):
    """A set of Bockstein groups: ``rational`` records whether Q belongs and
    the PrimePattern at a prime which of Z/p, Z/p^oo, Z_(p) do.  ``rational``
    must be a bool and a pattern lie on the chain every sigma's patterns
    form; anything else is `not_a_group`."""

    _rational_check = functools.partial(_checked_kind, kind=bool, name="a bool (whether Q belongs)")  # not bound

    @staticmethod
    def _entry_check(pattern) -> int:
        if type(pattern) is int and pattern in _CHAIN_PATTERNS:
            return pattern
        raise _required("a pattern of the chain Z/p^oo < +Z/p < +Z_(p) (0, 2, 3 or 7)", pattern)

    def escapes(self, other: "SigmaSet", flags: int = FULL_PATTERN) -> tuple[int, ...]:
        """The primes, in `pointwise` order, where self has a test group in
        `flags` that `other` lacks."""
        _checked_sigma(other)
        return tuple(p for p, (a, b) in PrimeIndexed.pointwise(self, other) if a & flags & ~b)

    def issubset(self, other: "SigmaSet") -> bool:
        return (_checked_sigma(other).rational or not self.rational) and not self.escapes(other)

    def union(self, *others: "SigmaSet") -> "SigmaSet":
        return SigmaSet.combine(_join, _join, self, *(_checked_sigma(s) for s in others))

    def read(self, f: PrimeIndexed) -> list:
        """The values of f (a value on Q and a PrimeTriple at each prime) on the test groups in this set."""
        values = [f.rational] if self.rational else []
        for pattern, triple in zip(*_listed((self, f))[1]):  # the primes either lists; the value at p is not needed
            values += triple.select(pattern)
        return values + f.default.select(self.default)  # every other prime reads the defaults

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
        else:  # the union of two patterns is their bitwise or
            pattern = PrimePattern.PRUFER if type(a) is Prufer else _CYCLIC_PRUFER
            at[a.prime] = at.get(a.prime, PrimePattern.EMPTY) | pattern
    default = PrimePattern.EMPTY
    if outside is not None:  # every test group outside, and at the primes outside only what the other atoms give
        rational, default, at = True, FULL_PATTERN, {p: at.get(p, PrimePattern.EMPTY) for p in outside}
    # the keys are atoms' primes and a union of chain patterns is one, so only the canonical order is left to make
    return SigmaSet._new(rational, default, tuple(sorted([(p, v) for p, v in at.items() if v != default])))


def tau_closure(s: SigmaSet) -> SigmaSet:
    """Close a Bockstein basis under the tau rules.

    Q and Z/p^oo memberships are unchanged; Z/p joins exactly when Z/p^oo is
    in, and Z_(p) joins exactly when both Z/p^oo and Q are in.  The result
    always contains the input.
    """
    closed = FULL_PATTERN if _checked_sigma(s).rational else _CYCLIC_PRUFER
    return SigmaSet.combine(bool, lambda pat: closed if pat & PrimePattern.PRUFER else PrimePattern.EMPTY, s)


def tau(group: AdmissibleGroup) -> SigmaSet:
    return tau_closure(sigma(group))


def sigma_matches_localization(s: SigmaSet) -> PrimeSet | None:
    """The prime set l with s = sigma(Z_(l)), or None when no l works.

    sigma(Z_(l)) contains Q and, at each prime, either all three p-local
    groups (p in l) or none (p not in l); anything else matches no
    localization.
    """
    if not _checked_sigma(s).rational or not {s.default, *dict(s.exceptions).values()} <= _LOCAL_PATTERNS:
        return None
    # an exception is stored only where it differs from the default, so here it is the other pattern
    return PrimeSet(s.default == FULL_PATTERN, s.exception_primes)
