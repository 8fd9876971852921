"""The character-by-character scanner that `extcalc.dsl` used before its
regex tokenizer, kept as a test oracle: `parse_group` and `parse_graded`
here must give the same value, or the same error with the same code,
message and position, as the package's parsers on every input.

It builds atoms through the public, checking constructors, so it shares no
trusted path with the code it checks.
"""

from collections import Counter

from extcalc import AdmissibleGroup, GradedGroup, Localization, ParseError, PrimeSet, Prufer, cyclic
from extcalc.primes import isprime


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
    group = _atom(sc)
    sc.skip_ws()
    count = 1
    if sc.peek() == "^":
        sc.expect("^")
        count = sc.nat()
    for a, n in group.summands:
        counts[a] += n * count


def _group(sc: _Scanner) -> AdmissibleGroup:
    counts = Counter()
    _term(sc, counts)
    sc.skip_ws()
    while sc.eat("+"):
        _term(sc, counts)
        sc.skip_ws()
    return AdmissibleGroup.from_counts(counts)


def parse_group(text: str) -> AdmissibleGroup:
    sc = _Scanner(text)
    group = _group(sc)
    if not sc.at_end():
        sc.error("unexpected trailing input", code="trailing_input")
    return group


def parse_graded(text: str) -> GradedGroup:
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
