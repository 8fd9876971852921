"""Surface syntax for groups and graded groups.

Groups are sums of terms ``atom ^ multiplicity`` where an atom is one of

    Z   Q   Z/8   Z/3^oo   Z_(2,5)   Z_(~2)   Z[1/2]

``Z/n`` splits composite moduli into prime-power atoms, ``Z_(...)`` is the
localization at the listed primes (with ``~`` for all primes except the
listed ones, so ``Z[1/p]`` is sugar for ``Z_(~p)``), and ``^oo`` after a
prime denotes the Prufer group.  Graded groups are brace literals such as
``{1: Z/2 + Z, 3: Q^2}``.  Printing always emits canonical ASCII that
parses back to an equal value; the trivial group prints as ``Z^0``.
"""

from __future__ import annotations

from collections import Counter

from .abelian import (
    BOCKSTEIN_FLAGS,
    AdmissibleGroup,
    Cyclic,
    Localization,
    PrimePattern,
    PrimeSet,
    Prufer,
    SigmaSet,
    cyclic,
    pattern_flags,
)
from .errors import ParseError
from .graded import GradedGroup
from .primes import isprime


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str, code: str = "parse_error"):
        raise ParseError(f"{message} at position {self.pos}", position=self.pos, code=code)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.text[i] if i < len(self.text) else ""

    def eat(self, literal: str) -> bool:
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str):
        if not self.eat(literal):
            self.error(f"expected {literal!r}", code="expected_token")

    def nat(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdecimal():
            self.pos += 1
        if self.pos == start:
            self.error("expected a number", code="expected_number")
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # past Python's int->str digit limit, which parsing keeps
            digits, self.pos = self.pos - start, start
            self.error(f"a number of {digits} digits is too long", code="number_too_long")

    def prime(self) -> int:
        start = self.pos
        p = self.nat()
        if not isprime(p):
            self.pos = start
            self.error(f"{p} is not prime", code="not_prime")
        return p

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)


def _atom(sc: _Scanner) -> AdmissibleGroup:
    sc.skip_ws()
    if sc.eat("Q"):
        return AdmissibleGroup.of(Localization(PrimeSet.of()))
    if not sc.eat("Z"):
        sc.error("expected a group atom", code="expected_atom")
    if sc.eat("/"):
        start = sc.pos
        n = sc.nat()
        if sc.peek() == "^" and sc.peek(1) == "o":
            sc.expect("^oo")
            if not isprime(n):
                sc.pos = start
                sc.error(f"{n} is not prime, so Z/{n}^oo is not a Prufer group", code="not_prime")
            return AdmissibleGroup.of(Prufer(n))
        if n < 2:
            sc.pos = start
            sc.error(f"cyclic modulus must be >= 2, got {n}", code="bad_modulus")
        return cyclic(n)
    if sc.eat("_("):
        cofinite = sc.eat("~")
        primes = []
        sc.skip_ws()
        if not sc.eat(")"):
            primes.append(sc.prime())
            sc.skip_ws()
            while sc.eat(","):
                sc.skip_ws()
                primes.append(sc.prime())
                sc.skip_ws()
            sc.expect(")")
        return AdmissibleGroup.of(Localization(PrimeSet(cofinite, primes)))
    if sc.eat("[1/"):
        p = sc.prime()
        sc.expect("]")
        return AdmissibleGroup.of(Localization(PrimeSet.excluding(p)))
    return AdmissibleGroup.of(Localization(PrimeSet.excluding()))


def _term(sc: _Scanner, counts: Counter):
    """Add one term, an atom with an optional ``^ multiplicity``, to `counts`."""
    group = _atom(sc)
    sc.skip_ws()
    count = 1
    if sc.peek() == "^":
        sc.expect("^")
        count = sc.nat()
    for a, n in group.summands:
        counts[a] += n * count


def _group(sc: _Scanner) -> AdmissibleGroup:
    # every term goes into one count, canonicalized once, so a sum of n
    # terms costs O(n) rather than a re-sort of the sum per `+`
    counts = Counter()
    _term(sc, counts)
    sc.skip_ws()
    while sc.eat("+"):
        _term(sc, counts)
        sc.skip_ws()
    return AdmissibleGroup.from_counts(counts)


def parse_group(text: str) -> AdmissibleGroup:
    """Parse a group expression into canonical form."""
    sc = _Scanner(text)
    group = _group(sc)
    if not sc.at_end():
        sc.error("unexpected trailing input", code="trailing_input")
    return group


def parse_graded(text: str) -> GradedGroup:
    """Parse a graded literal like ``{1: Z/2 + Z, 3: Q^2}``; degrees are
    naturals and may not repeat."""
    sc = _Scanner(text)
    sc.skip_ws()
    sc.expect("{")
    entries = {}
    sc.skip_ws()
    if not sc.eat("}"):
        while True:
            sc.skip_ws()
            at = sc.pos
            degree = sc.nat()
            if degree in entries:
                sc.pos = at
                sc.error(f"degree {degree} appears twice", code="duplicate_degree")
            sc.skip_ws()
            sc.expect(":")
            entries[degree] = _group(sc)
            sc.skip_ws()
            if sc.eat("}"):
                break
            sc.expect(",")
    if not sc.at_end():
        sc.error("unexpected trailing input", code="trailing_input")
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
    if group.is_trivial:
        return "Z^0"
    parts = []
    for atom, count in group.summands:
        text = _format_atom(atom)
        parts.append(text if count == 1 else f"{text}^{count}")
    return " + ".join(parts)


def format_graded(graded: GradedGroup) -> str:
    if graded.is_zero:
        return "{}"
    inner = ", ".join(f"{d}: {format_group(g)}" for d, g in graded.entries)
    return "{" + inner + "}"


def _pattern_names(pattern: PrimePattern, p) -> list[str]:
    return [f.display.format(p=p) for f in BOCKSTEIN_FLAGS if f.flag & pattern]


def format_sigma(s: SigmaSet) -> str:
    """Human-readable listing, e.g. ``{Z/2, Z/2^oo, Z/3, Z/3^oo}``; an
    eventually-uniform part is described once with a generic prime p."""
    chunks = []
    if s.rational:
        chunks.append("Q")
    for p, pattern in s.exceptions:
        chunks.extend(_pattern_names(pattern, p))
    if s.default != PrimePattern.EMPTY:
        generic = ", ".join(_pattern_names(s.default, "p"))
        if s.exceptions:
            listed = ", ".join(str(p) for p in s.exception_primes)
            chunks.append(f"{generic} for every prime p outside {{{listed}}}")
        else:
            chunks.append(f"{generic} for every prime p")
    return "{" + ", ".join(chunks) + "}"


__all__ = [
    "parse_group",
    "parse_graded",
    "format_group",
    "format_graded",
    "format_sigma",
    "pattern_flags",
]
