"""The DSL parsers against the scanner they replaced (`dsl_oracle`): on
every input both give equal values, or errors of the same type with the
same code, message and position."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsl_oracle
from conftest import DSL_ALPHABET, mutate_text, random_graded_text, random_group_text, st_dsl_text
from extcalc import ExtcalcError, parse_graded, parse_group

ORACLE = settings(max_examples=150, deadline=None)

# Pieces of text: numbers past Python's 4300-digit int->str limit, decimal
# digits that are not ASCII (Arabic-Indic three, Devanagari five), a
# superscript two (a digit but not a decimal) and spaces that are not ASCII.
PIECES = (
    "7" * 4301, "1" * 5000, "٣", "५", "²", "\u00a0", "\u2003", "\t",
    "Z", "Q", "Z/", "Z_(", "Z_(~", "Z[1/", "^oo", "^o", "^", "+", ",", ")", "]", "{", "}", ":",
    "2", "3", "4", "9", "12", "360", "0", "1", " ",
)
st_pieces = st.lists(st.sampled_from(PIECES), max_size=12).map("".join)
st_seeded = st.tuples(st.integers(min_value=0, max_value=2**32), st.booleans(), st.booleans())


def outcome(parse, text):
    try:
        return parse(text)
    except ExtcalcError as exc:
        return type(exc), exc.code, str(exc), getattr(exc, "position", None)


def assert_agree(text):
    assert outcome(parse_group, text) == outcome(dsl_oracle.parse_group, text), text
    assert outcome(parse_graded, text) == outcome(dsl_oracle.parse_graded, text), text


def seeded_text(seed, graded, mutated):
    """A wide group or graded text from `seed`, and with `mutated` one
    character away from it."""
    rng = random.Random(seed)
    text = random_graded_text(rng, max_entries=4, max_terms=30) if graded else random_group_text(rng, max_terms=120)
    return mutate_text(rng, text) if mutated else text


@pytest.mark.parametrize(
    "text",
    [
        "Z/3^o", "Z/3^ox", "Z/3 ^oo", "Z/3^oo^2", "Z/3^oo ^ 2", "Z/^oo", "Z/0^oo", "Z/1^o", "Z/4^oo",
        "Z_()", "Z_(~)", "Z_( ~2)", "Z_(,)", "Z_(2,", "Z_(2 , x", "Z_(4, x", "Z_(2 3)", "Z_(2,4)", "Z_(2,,3)",
        "Z[1/9", "Z[1/7", "Z[1/", "Z[1", "Z[1/7 ]", "Z /12", "Z/ 12", "Z^", "Z ^ 2", "Q^0 + Z^0",
        "{}", "{ }", "{1: Z,}", "{1 Z}", "{: Z}", "{1: Z, 1: Q}", "{٣: Z, 3: Q}", "{1: Z} x", "{1: Z +}",
        "Z^²", "Z/²", "Z/٣", "Z_(٣, ५)", " Z +\tQ ", "Z/" + "7" * 4301 + "^oo", "Z_(2, " + "1" * 4301,
        "{" + "1" * 4301 + ": Z}", "Z^" + "9" * 4300, "Z_(3215031751)", "Z/561^oo", "Z[1/1]",
        # a Z_(...) list read in one pass, or item by item after a fault: across the sieve's edge at 2**16, a last
        # item that is not prime below and above it, a repeated prime, tabs and newlines, a closed list with an item
        # past the digit limit, and a cofinite list with a composite
        "Z_(65521,65537)", "Z_(2,3,65536)", "Z_(3, 65541)", "Z_(5,3,5)", "Z_(\t2 ,\n3 )", "Z_(2, " + "1" * 4301 + ")",
        "Z_(~2,4)",
    ],
)
def test_edge_cases(text):
    assert_agree(text)


@ORACLE
@given(st_dsl_text | st_dsl_text.map(lambda t: "{" + t))
def test_arbitrary_text(text):
    assert_agree(text)


@ORACLE
@given(st_pieces | st.text(alphabet=DSL_ALPHABET + "٣²\u00a0", max_size=40))
def test_pieces_and_unicode_digits(text):
    assert_agree(text)


@ORACLE
@given(st_seeded)
def test_seeded_wide_texts_and_their_mutations(case):
    assert_agree(seeded_text(*case))
