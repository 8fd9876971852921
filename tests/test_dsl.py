"""Surface syntax: the group/graded grammar and the printers."""

import random
import time

import pytest
from hypothesis import given

from conftest import st_graded, st_group
from extcalc import (
    ParseError,
    PrimeSet,
    Q,
    TRIVIAL,
    Z,
    cyclic,
    format_graded,
    format_group,
    format_sigma,
    localized,
    parse_graded,
    parse_group,
    prufer,
    sigma,
)
from oracles import random_graded, random_group


class TestParseGroup:
    def test_basic_atoms(self):
        assert parse_group("Z") == Z
        assert parse_group("Q") == Q
        assert parse_group("Z/7") == cyclic(7)
        assert parse_group("Z/2^oo") == prufer(2)
        assert parse_group("Z_(2,5)") == localized(PrimeSet.of(2, 5))
        assert parse_group("Z_(~3)") == localized(PrimeSet.excluding(3))
        assert parse_group("Z[1/2]") == localized(PrimeSet.excluding(2))

    def test_sums_and_powers(self):
        assert parse_group("Z^2 + Z/12") == Z + Z + cyclic(4) + cyclic(3)
        assert parse_group("Z/8^2") == cyclic(8) + cyclic(8)
        assert parse_group("Z/3^oo^2") == prufer(3) + prufer(3)
        assert parse_group("Z^0") == TRIVIAL
        assert parse_group("Q + Z^0") == Q

    @pytest.mark.parametrize("count", [0, 1, 3])
    @pytest.mark.parametrize("atom", ["Z/360", "Z_(2)", "Z/7^oo"])
    def test_multiplicity_matches_repeated_sum(self, atom, count):
        total = TRIVIAL
        for _ in range(count):
            total = total + parse_group(atom)
        assert parse_group(f"{atom}^{count}") == total

    def test_large_multiplicity_is_not_repeated_addition(self):
        start = time.perf_counter()
        g = parse_group("Z^100000 + Z/6^100000")
        assert time.perf_counter() - start < 0.1
        assert sorted(n for _, n in g.summands) == [100000] * 3

    def test_long_sum_matches_the_fold_in_linear_time(self):
        # 20000 terms over about 1000 distinct atoms; re-sorting the whole
        # sum once per `+` would take seconds
        rng = random.Random(20000)
        atoms = [f"Z/{p}" for p in range(2, 8000) if all(p % d for d in range(2, int(p**0.5) + 1))]
        atoms += ["Z", "Q", "Z_(2,3)", "Z/5^oo", "Z/360"]
        terms = [rng.choice(atoms) + rng.choice(("", "^2", "^0")) for _ in range(20000)]
        start = time.perf_counter()
        total = parse_group(" + ".join(terms))
        assert time.perf_counter() - start < 2.0
        groups = [parse_group(t) for t in terms]
        while len(groups) > 1:  # the fold, summed pairwise to keep the oracle fast
            groups = [a + b for a, b in zip(groups[::2], groups[1::2])] + groups[len(groups) // 2 * 2 :]
        assert total == groups[0]
        assert len(total.summands) > 900

    def test_composite_modulus_splits(self):
        assert parse_group("Z/360") == cyclic(8) + cyclic(9) + cyclic(5)

    def test_whitespace_around_operators(self):
        # atoms are contiguous tokens; whitespace is free around + and inside
        # localization prime lists
        assert parse_group("  Z^2+Z/12 ") == parse_group("Z^2 + Z/12")
        assert parse_group("Z_( 2 , 5 )") == parse_group("Z_(2,5)")
        with pytest.raises(ParseError):
            parse_group("Z / 12")

    def test_order_insensitive(self):
        assert parse_group("Z/3 + Q + Z/2") == parse_group("Q + Z/2 + Z/3")

    def test_error_codes(self):
        cases = [
            ("Z/1", "bad_modulus"),
            ("Z/0", "bad_modulus"),
            ("Z/6^oo", "not_prime"),
            ("Z_(4)", "not_prime"),
            ("Z[1/9]", "not_prime"),
            ("", "expected_atom"),
            ("Z +", "expected_atom"),
            ("Z @", "trailing_input"),
            ("Z_(2", "expected_token"),
        ]
        for text, code in cases:
            with pytest.raises(ParseError) as exc:
                parse_group(text)
            assert exc.value.code == code, text

    def test_error_position_points_at_culprit(self):
        with pytest.raises(ParseError) as exc:
            parse_group("Z + Y")
        assert exc.value.position == 4


class TestParseGraded:
    def test_basic(self):
        k = parse_graded("{1: Z/2, 3: Q^2}")
        assert k.at(1) == cyclic(2) and k.at(3) == Q + Q
        assert [d for d, _ in k.entries] == [1, 3]

    def test_empty_and_trivial_entries(self):
        assert parse_graded("{}").is_zero
        assert parse_graded("{2: Z^0}").is_zero

    def test_duplicate_degree(self):
        with pytest.raises(ParseError) as exc:
            parse_graded("{1: Z, 1: Q}")
        assert exc.value.code == "duplicate_degree"

    def test_malformed(self):
        for text in ("{1: Z", "1: Z}", "{1 Z}", "{-1: Z}", "{1: Z,}"):
            with pytest.raises(ParseError):
                parse_graded(text)


class TestFormat:
    def test_group_examples(self):
        assert format_group(TRIVIAL) == "Z^0"
        assert format_group(Z) == "Z"
        assert format_group(Q) == "Q"
        assert format_group(cyclic(9)) == "Z/9"
        assert format_group(prufer(5)) == "Z/5^oo"
        assert format_group(localized(PrimeSet.of(2, 5))) == "Z_(2,5)"
        assert format_group(localized(PrimeSet.excluding(2, 5))) == "Z_(~2,5)"
        assert format_group(Z + Z + cyclic(4) + cyclic(3)) == "Z^2 + Z/4 + Z/3"

    def test_graded_examples(self):
        assert format_graded(parse_graded("{}")) == "{}"
        assert format_graded(parse_graded("{2: Z/12, 1: Z^2}")) == "{1: Z^2, 2: Z/4 + Z/3}"

    def test_sigma_examples(self):
        assert format_sigma(sigma(Z)) == "{Q, Z/p, Z/p^oo, Z_(p) for every prime p}"
        assert format_sigma(sigma(cyclic(12))) == "{Z/2, Z/2^oo, Z/3, Z/3^oo}"
        assert format_sigma(sigma(Q)) == "{Q}"
        assert format_sigma(sigma(prufer(2))) == "{Z/2^oo}"
        out = format_sigma(sigma(localized(PrimeSet.excluding(2))))
        assert out == "{Q, Z/p, Z/p^oo, Z_(p) for every prime p outside {2}}"


class TestRoundTrip:
    @given(st_group)
    def test_group_round_trip(self, g):
        assert parse_group(format_group(g)) == g

    @given(st_graded)
    def test_graded_round_trip(self, k):
        assert parse_graded(format_graded(k)) == k

    def test_seeded_round_trip(self):
        rng = random.Random(11)
        for _ in range(300):
            g = random_group(rng, max_atoms=5, allow_trivial=True)
            assert parse_group(format_group(g)) == g
        for _ in range(300):
            k = random_graded(rng, allow_empty=True)
            assert parse_graded(format_graded(k)) == k
