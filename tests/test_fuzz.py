"""Fuzzing the ways in: arbitrary text to the DSL parsers, arbitrary JSON
documents to the `snf`, `present` and `homology` commands, and arbitrary
command lines with `--json`.

Every case must end in a typed `ExtcalcError` or a schema-valid envelope with
exit status 0, 1 or 2 (3 is `internal_error`, a bug), within the deadline.
Documents include rank-deficient shapes, empty rows and entries of hundreds
of digits.  `snf` takes such entries anywhere.  `present` and `homology`
take them through unimodular changes of basis of a small presentation, so
the answer is known and the invariant factors stay small, while the modular
reduction behind both works on minors of thousands of digits.  A large
invariant factor is kept out of them on purpose: the answer needs its prime
factorization, which for a hard 300-digit factor runs for many seconds
before it ends in `factorization_budget`.
"""

import json
import sys
from datetime import timedelta

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import DSL_ALPHABET
from extcalc import ExtcalcError, cli, format_graded, format_group, parse_graded, parse_group
from test_cli import VALIDATOR, run

FUZZ = settings(max_examples=100, deadline=timedelta(seconds=2))

st_dsl_text = st.text(max_size=30) | st.text(alphabet=DSL_ALPHABET, max_size=30)

SMALL = st.integers(min_value=-30, max_value=30)
HUGE = st.integers(min_value=10**299, max_value=10**300) | st.integers(min_value=-(10**300), max_value=-(10**299))

st_json_scalar = st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4)
st_json = st.recursive(
    st_json_scalar,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids, max_size=4),
    max_leaves=12,
)


def rows_of(entries, max_rows=6, max_cols=6):
    """Rectangular row lists, including [] and rows of width 0."""
    return st.integers(min_value=0, max_value=max_cols).flatmap(
        lambda c: st.lists(st.lists(entries, min_size=c, max_size=c), max_size=max_rows)
    )


st_ragged = st.lists(st.lists(SMALL | HUGE, max_size=4), max_size=4)


def product(b, c, inner):
    return [[sum(b[i][k] * c[k][j] for k in range(inner)) for j in range(len(c[0]) if c else 0)] for i in range(len(b))]


@st.composite
def st_small_relations(draw, max_dim=5):
    """A rows x cols matrix B C with small entries; an inner dimension below
    the shape makes it rank-deficient."""
    rows, cols, inner = (draw(st.integers(min_value=0, max_value=max_dim)) for _ in range(3))
    b = [[draw(SMALL) for _ in range(inner)] for _ in range(rows)]
    c = [[draw(SMALL) for _ in range(cols)] for _ in range(inner)]
    return [row[:cols] + [0] * (cols - len(row)) for row in product(b, c, inner)]


st_move = st.tuples(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=4), HUGE)


def add_rows(m, moves):
    """Row i += t * row j for each move with i != j inside the shape."""
    for i, j, t in moves:
        if i != j and max(i, j) < len(m):
            m[i] = [x + t * y for x, y in zip(m[i], m[j])]
    return m


def add_columns(m, moves, width):
    """Column j -= t * column i for each move with i != j inside the width."""
    for i, j, t in moves:
        if i != j and max(i, j) < width:
            for row in m:
                row[j] -= t * row[i]
    return m


COMMAND_NAMES = [command.name for command in cli.COMMANDS]
st_token = (
    st.sampled_from(
        COMMAND_NAMES
        + ["--", "-g", "--group", "--graded", "--n", "-1e+16", "[[1]]", "{1: Z}", "Z/2", "-1", "x"]
        + ["-h", "--help", "--version"]
    )
    | st.text(max_size=8)
)


def asks_for_help(token: str) -> bool:
    """Whether `token` may be -h, --help or --version, or an abbreviation."""
    flag = token.split("=", 1)[0]
    return flag.startswith("-h") or (len(flag) > 2 and ("--help".startswith(flag) or "--version".startswith(flag)))


def envelope(command, document, *options) -> dict:
    # after `--` a document that starts with "-" is still a document
    return envelope_of_argv([command, *options, "--json", "--", document])


def envelope_of_argv(argv) -> dict | None:
    """The envelope a --json run prints, or None for help or version text:
    the one exception, printed as plain text with exit status 0, and only
    for an argv with a help or version token."""
    code, out, err = run(argv)
    assert err == ""
    if not out.startswith("{"):
        assert any(map(asks_for_help, argv)), out
        assert code == 0 and out.strip()
        return None
    # an answer can pass Python's default int->str digit limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        doc = json.loads(out)
    finally:
        sys.set_int_max_str_digits(limit)
    VALIDATOR.validate(doc)
    assert code in (0, 1, 2), doc
    assert doc["ok"] == (code == 0)
    return doc


class TestParsers:
    @FUZZ
    @given(st_dsl_text)
    def test_parse_group(self, text):
        try:
            group = parse_group(text)
        except ExtcalcError:
            return
        assert parse_group(format_group(group)) == group

    @FUZZ
    @given(st_dsl_text.map(lambda t: "{" + t) | st_dsl_text)
    def test_parse_graded(self, text):
        try:
            graded = parse_graded(text)
        except ExtcalcError:
            return
        assert parse_graded(format_graded(graded)) == graded


class TestDocuments:
    @FUZZ
    @given(st.sampled_from(["snf", "present", "homology"]), st_json | st_dsl_text.map(lambda t: "[" + t))
    def test_arbitrary_documents(self, command, doc):
        envelope(command, doc if isinstance(doc, str) else json.dumps(doc))

    @FUZZ
    @given(rows_of(SMALL | HUGE) | st_ragged)
    def test_snf(self, rows):
        doc = envelope("snf", json.dumps(rows))
        if doc["ok"]:
            assert all(f > 0 for f in doc["result"]["factors"])

    @FUZZ
    @given(rows_of(SMALL), st.none() | st.integers(min_value=-2, max_value=8))
    def test_present(self, rows, generators):
        envelope("present", json.dumps(rows), *([] if generators is None else ["-g", str(generators)]))

    @FUZZ
    @given(st_small_relations(), st.lists(st_move, max_size=3), st.lists(st_move, max_size=3))
    def test_present_after_a_change_of_basis(self, rows, row_moves, column_moves):
        # the answer read off the exact Smith form of the small matrix
        cols = len(rows[0]) if rows else 0
        factors = envelope("snf", json.dumps(rows))["result"]["factors"]
        expected = parse_group(" + ".join([f"Z^{cols - len(factors)}"] + [f"Z/{f}" for f in factors if f > 1]))
        big = add_columns(add_rows([row[:] for row in rows], row_moves), column_moves, cols)
        doc = envelope("present", json.dumps(big), "-g", str(cols))
        assert doc["result"]["group"] == format_group(expected)

    @FUZZ
    @given(
        st.fixed_dictionaries(
            {"ranks": st.lists(SMALL, max_size=4), "boundaries": st.lists(rows_of(SMALL, 4, 4), max_size=3)}
        )
    )
    def test_homology_of_arbitrary_complexes(self, doc):
        envelope("homology", json.dumps(doc))

    @FUZZ
    @given(st_small_relations(), st_small_relations(), st.lists(st_move, max_size=3))
    def test_homology_after_a_change_of_basis(self, a, c, moves):
        # C2 -> C1 -> C0 with d1 = [A | 0] and d2 = [0 ; C], so d1 d2 = 0;
        # then a change of basis W on C1: d2 <- W d2 and d1 <- d1 W^-1.
        r0, a_cols = len(a), len(a[0]) if a else 0
        c_rows, r2 = len(c), len(c[0]) if c else 0
        r1 = a_cols + c_rows
        d1 = [row + [0] * c_rows for row in a]
        d2 = [[0] * r2 for _ in range(a_cols)] + [row[:] for row in c]
        plain = {"ranks": [r0, r1, r2], "boundaries": [d1 if r0 and r1 else [], d2 if r1 and r2 else []]}
        add_rows(d2, moves)
        add_columns(d1, moves, r1)
        changed = {"ranks": [r0, r1, r2], "boundaries": [d1 if r0 and r1 else [], d2 if r1 and r2 else []]}
        expected = envelope("homology", json.dumps(plain))
        assert expected["ok"]
        assert envelope("homology", json.dumps(changed)) == expected


class TestArgv:
    @FUZZ
    @given(st.lists(st_token, max_size=6), st.integers(min_value=0, max_value=6))
    def test_arbitrary_command_lines(self, tokens, at):
        # --json anywhere before a `--`, so argparse reads it as the flag
        at = min(at, tokens.index("--") if "--" in tokens else len(tokens))
        envelope_of_argv(tokens[:at] + ["--json"] + tokens[at:])

    @FUZZ
    @given(st.sampled_from(COMMAND_NAMES), st.lists(st_token, max_size=4))
    def test_each_command_with_arbitrary_arguments(self, command, tokens):
        envelope_of_argv([command, "--json", *tokens])

    @pytest.mark.parametrize(
        "argv",
        [["--help", "--json"], ["--version"], ["canon", "--json", "-h"], ["snf", "--help", "--json"], ["tor", "--he", "--json"]],
    )
    def test_help_and_version_print_text_under_json(self, argv):
        code, out, err = run(argv)
        assert (code, err) == (0, "") and out.startswith(("usage: extcalc", "extcalc "))
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)
