"""Surface syntax for groups and graded groups.

Groups are sums of terms ``atom ^ multiplicity`` where an atom is one of

    Z   Q   Z/8   Z/3^oo   Z_(2,5)   Z_(~2)   Z[1/2]

``Z/n`` splits composite moduli into prime-power atoms, ``Z_(...)`` is the
localization at the listed primes (with ``~`` for all primes except the
listed ones, so ``Z[1/p]`` is sugar for ``Z_(~p)``), and ``^oo`` after a
prime denotes the Prufer group.  Graded groups are brace literals such as
``{1: Z/2 + Z, 3: Q^2}``.  Printing always emits canonical ASCII that
parses back to an equal value; the trivial group prints as ``Z^0``.

Parsing is one pass from left to right.  One compiled pattern, ``_TERM``,
reads a whole term (spaces, atom, ``^ multiplicity``, the ``+`` after it)
into named groups.  Every part after the atom's letter is optional, so a
missing part is an empty group at the position the error names.  A
``Z_(...)`` list is split at its commas, one ``int`` per item, and each
distinct prime is looked up in the sieve of ``primes`` (``isprime`` above
it); a list with a fault is read again item by item, to report it.  Parts
are checked in text order, so the first fault decides the error.  Primes are
tested where the text enters, and atoms are built trusted (``Z/n`` takes its
primes from ``factorint``).  Spaces are free around ``+``, ``,`` and ``:``,
before ``^`` and inside ``Z_(...)`` after ``(~``.
"""

from __future__ import annotations

import re

from .abelian import (
    ALL_PRIMES,
    NO_PRIMES,
    AdmissibleGroup,
    Cyclic,
    Localization,
    PrimeSet,
    Prufer,
    SigmaSet,
    _TRIPLE_DISPLAY,
    _checked_group,
    _checked_sigma,
    _trusted,
)
from .errors import ParseError
from .graded import GradedGroup, _checked_graded
from .primes import _SIEVE, _TABLE, factorint, isprime

_TERM = re.compile(
    r"""\s*
    (?: (?P<rational>Q)
      | Z (?: /(?P<modulus>\d*) (?P<prufer>\^oo?)?
            | _\( (?P<cofinite>~?) (?P<primes>[\d\s,]*) (?P<close>\)?)
            | \[1/ (?P<inverted>\d*) (?P<bracket>\]?)
          )?
      | (?P<missing>)
    )
    \s* (?:\^(?P<count>\d*))?
    \s* (?P<plus>\+?)""",
    re.VERBOSE,
)
_ITEM = re.compile(r"\s*(?P<prime>\d*)\s*(?P<comma>,?)")
_ENTRY = re.compile(r"\s*(?P<degree>\d*)\s*(?P<colon>:?)")
_SPACE = re.compile(r"\s*")
_Z, _Q = Localization(ALL_PRIMES), Localization(NO_PRIMES)


def _fail(position: int, message: str, *, code: str):
    raise ParseError(f"{message} at position {position}", position=position, code=code)


def _expected(position: int, literal: str):
    _fail(position, f"expected {literal!r}", code="expected_token")


def _number(m: re.Match, name: str) -> int:
    digits = m[name]
    if not digits:
        _fail(m.start(name), "expected a number", code="expected_number")
    try:
        return int(digits)
    except ValueError:  # past Python's int->str digit limit, which parsing keeps
        _fail(m.start(name), f"a number of {len(digits)} digits is too long", code="number_too_long")


def _prime(m: re.Match, name: str) -> int:
    p = _number(m, name)
    if not isprime(p):
        _fail(m.start(name), f"{p} is not prime", code="not_prime")
    return p


def _atom(m: re.Match) -> list:
    """The atoms, each once, of the atom that the `_TERM` match `m` read."""
    if m["rational"]:
        return [_Q]
    if m["missing"] is not None:
        _fail(m.start("missing"), "expected a group atom", code="expected_atom")
    if m["modulus"] is not None:
        n = _number(m, "modulus")
        if m["prufer"]:
            if m["prufer"] != "^oo":
                _expected(m.start("prufer"), "^oo")
            if not isprime(n):
                _fail(m.start("modulus"), f"{n} is not prime, so Z/{n}^oo is not a Prufer group", code="not_prime")
            return [_trusted(Prufer, n)]
        if n < 2:
            _fail(m.start("modulus"), f"cyclic modulus must be >= 2, got {n}", code="bad_modulus")
        return [_trusted(Cyclic, p, e) for p, e in factorint(n).items()]
    if m["cofinite"] is not None:  # one split, one int() per item and one pass over the sieve
        listed, (pos, end) = m["primes"], m.span("primes")
        try:  # "()" and "( )" list no prime
            primes = sorted(set(map(int, listed.split(",")))) if listed.strip() else []
        except ValueError:  # an empty item, two numbers in one item, or one past the digit limit; 0 is not prime
            primes = [0]
        if not (m["close"] and all(_SIEVE[p] if p < _TABLE else isprime(p) for p in primes)):
            while True:  # a faulty list, read item by item to report its first fault; it holds digits, spaces and commas
                item = _ITEM.match(m.string, pos, end)
                _prime(item, "prime")
                if not item["comma"]:
                    _expected(item.end(), ")")
                pos = item.end()
        return [_trusted(Localization, _trusted(PrimeSet, m["cofinite"] == "~", tuple(primes)))]
    if m["inverted"] is not None:
        p = _prime(m, "inverted")
        if not m["bracket"]:
            _expected(m.start("bracket"), "]")
        return [_trusted(Localization, _trusted(PrimeSet, True, (p,)))]
    return [_Z]


def _group(text: str, pos: int) -> tuple[AdmissibleGroup, int]:
    """The sum whose first term starts at `pos`, and the position after it
    and the spaces that follow.  Every term goes into one list of (atom,
    count) pairs, canonicalized once rather than summed term by term."""
    terms = []
    while True:
        m = _TERM.match(text, pos)
        atoms = _atom(m)
        count = 1 if m["count"] is None else _number(m, "count")
        terms += [(a, count) for a in atoms]
        pos = m.end()
        if not m["plus"]:
            return AdmissibleGroup.from_counts(terms), pos


def _at_end(text: str, pos: int):
    pos = _SPACE.match(text, pos).end()
    if pos < len(text):
        _fail(pos, "unexpected trailing input", code="trailing_input")


def parse_group(text: str) -> AdmissibleGroup:
    """Parse a group expression into canonical form."""
    group, pos = _group(text, 0)
    _at_end(text, pos)
    return group


def parse_graded(text: str) -> GradedGroup:
    """Parse a graded literal like ``{1: Z/2 + Z, 3: Q^2}``; degrees are
    naturals and may not repeat."""
    pos = _SPACE.match(text).end()
    if not text.startswith("{", pos):
        _expected(pos, "{")
    entries, pos = {}, _SPACE.match(text, pos + 1).end()
    if not text.startswith("}", pos):
        while True:
            m = _ENTRY.match(text, pos)
            degree = _number(m, "degree")
            if degree in entries:
                _fail(m.start("degree"), f"degree {degree} appears twice", code="duplicate_degree")
            if not m["colon"]:
                _expected(m.start("colon"), ":")
            entries[degree], pos = _group(text, m.end())
            if not text.startswith(",", pos):
                break
            pos += 1
        if not text.startswith("}", pos):
            _expected(pos, ",")
    _at_end(text, pos + 1)
    return GradedGroup.of(entries)


# ---------------------------------------------------------------------------
# Printing.


def _format_atom(atom) -> str:
    match atom:
        case Localization(primes=ps):
            if ps.cofinite:
                return "Z" if not ps.members else "Z_(~" + ",".join(map(str, ps.members)) + ")"
            return "Q" if not ps.members else "Z_(" + ",".join(map(str, ps.members)) + ")"
        case Cyclic(prime=p, power=k):
            return f"Z/{p ** k}"
        case Prufer(prime=p):
            return f"Z/{p}^oo"


def format_group(group: AdmissibleGroup) -> str:
    terms = [_format_atom(atom) + ("" if count == 1 else f"^{count}") for atom, count in _checked_group(group).summands]
    return " + ".join(terms) or "Z^0"


def format_graded(graded: GradedGroup) -> str:
    return "{" + ", ".join(f"{d}: {format_group(g)}" for d, g in _checked_graded(graded).entries) + "}"


def format_sigma(s: SigmaSet) -> str:
    """Human-readable listing, e.g. ``{Z/2, Z/2^oo, Z/3, Z/3^oo}``; an
    eventually-uniform part is described once with a generic prime p."""
    chunks = ["Q"] if _checked_sigma(s).rational else []
    for p, pattern in s.exceptions:
        chunks += [name.format(p=p) for name in _TRIPLE_DISPLAY.select(pattern)]
    if s.default:
        outside = f" outside {{{', '.join(map(str, s.exception_primes))}}}" if s.exceptions else ""
        chunks.append(", ".join(_TRIPLE_DISPLAY.select(s.default)).format(p="p") + f" for every prime p{outside}")
    return "{" + ", ".join(chunks) + "}"
