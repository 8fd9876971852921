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
into named groups.  Every part after the atom's letter is optional, so it
always matches, and a missing part is an empty group at the position the
error names.  The ``Z_(...)`` list is one run of digits, spaces and commas,
read item by item.  Parts are checked in text order, so the first fault
decides the error; each prime of ``Z_(...)``, ``Z[1/p]`` and ``Z/p^oo`` is
tested once, here where the text enters, and the atoms are built trusted
(``Z/n`` takes its primes from ``factorint``).  Spaces are free around
``+``, ``,`` and ``:``, before ``^`` and inside ``Z_(...)`` after ``(~``.
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
from .primes import factorint, isprime

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
    if m["cofinite"] is not None:
        primes, (pos, end) = [], m.span("primes")
        if m["primes"].strip() or not m["close"]:  # all but "()" and "( )" list a prime
            while True:  # the list holds digits, spaces and commas only
                item = _ITEM.match(m.string, pos, end)
                primes.append(_prime(item, "prime"))
                if not item["comma"]:
                    break
                pos = item.end()
            if item.end() < end or not m["close"]:
                _expected(item.end(), ")")
        return [_trusted(Localization, _trusted(PrimeSet, m["cofinite"] == "~", tuple(sorted(set(primes)))))]
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
    if _checked_graded(graded).is_zero:
        return "{}"
    inner = ", ".join(f"{d}: {format_group(g)}" for d, g in graded.entries)
    return "{" + inner + "}"


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
