"""Command-line front end.

Every subcommand prints a human-readable line by default and, under
``--json``, a single result envelope on stdout:

    {"ok": true, "schema": "extcalc/1", "result": {...}}
    {"ok": false, "schema": "extcalc/1", "error": {"code": ..., "message": ...}}

Exit status is 0 on success, 1 when an operation rejects mathematically
invalid input (domain error), 2 on surface-syntax, document, or usage
errors, and 3 when anything else goes wrong inside extcalc
(``internal_error``, a bug; no traceback is printed).  In text mode errors
go to stderr; in JSON mode the envelope always goes to stdout so pipelines
can rely on it.

Structured inputs (matrices, chain complexes, Bockstein functions) are given
either inline as a JSON literal or as a path to a JSON file.

Each subcommand is one row of ``COMMANDS``: name, help, arguments, compute
function and renderer.  Arguments with a reader are read inside the error
guard in declared order, so the first bad argument decides the error;
integer arguments are typed by argparse (a non-integer is a usage error).
Under ``--json`` a usage error is an envelope with code ``usage`` too; in
text mode argparse prints its usage and message on stderr.  The one
exception to "every ``--json`` run prints one envelope": ``-h``, ``--help``
and ``--version`` print plain text on stdout and exit 0, with or without
``--json``.
``to_text`` runs only in text mode.

A command imports only the modules it runs.  ``abelian``, ``dsl`` and
``graded`` load with this module, and rows call them through this module's
names at run time, so a name replaced here (a test double) is the one called.
``presentation``, ``exttype`` and ``bockstein`` load on first use: rows and
readers look their names up on the package at call time (``extcalc.snf``),
whose PEP 562 table imports the home module on first access and caches the
name, so a name replaced on the package is the one called.  The parser holds
only the subcommand that ``argv[0]`` names, when it names one.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from typing import Any, Callable, NamedTuple, Optional

import extcalc

from .abelian import sigma, tau
from .dsl import format_graded, format_group, format_sigma, parse_graded, parse_group
from .errors import DomainError, ExtcalcError, ParseError
from .graded import (
    graded_order_leq, homological_dimension, homology_with_coefficients, moore_graded, pairing, smash, suspend,
    vanishing_check,
)

SCHEMA_VERSION = "extcalc/1"


# ---------------------------------------------------------------------------
# Input readers.


def _unique_keys(pairs):
    """object_pairs_hook: a repeated key is a document error, not a silent overwrite."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ParseError(f"duplicate key {key!r} in a JSON object", code="bad_document")
        doc[key] = value
    return doc


def _load_json_source(arg: str):
    """A structured argument: inline JSON if it looks like a literal,
    otherwise a path to a JSON file."""
    text = arg.strip()
    try:
        if not (text.startswith("{") or text.startswith("[")):
            with open(arg, "r", encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ParseError(f"cannot read {arg!r}: {exc}", code="unreadable_input") from exc
    except RecursionError as exc:
        raise ParseError("malformed JSON: nested too deeply", code="bad_document") from exc
    except ValueError as exc:  # a JSONDecodeError, a file that is not UTF-8, or an int past Python's digit limit
        raise ParseError(f"malformed JSON: {exc}", code="bad_document") from exc


def _matrix_arg(arg: str):
    data = _load_json_source(arg)
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise ParseError("a matrix document is a JSON list of rows", code="bad_document")
    extcalc.presentation.require_integers((e for row in data for e in row), "matrix entries")
    return extcalc.IntMatrix.from_rows(data)


def _chain_arg(arg: str):
    data = _load_json_source(arg)
    if not isinstance(data, dict):
        raise ParseError("a chain complex document is a JSON object", code="bad_document")
    return extcalc.ChainComplex.from_json(data)


def _bf_arg(arg: str):
    """Load and fully validate a Bockstein function document; violations of
    the five inequalities are a domain error carrying the complete list."""
    data = _load_json_source(arg)
    alpha = extcalc.BocksteinFunction.from_json(data)
    violations = extcalc.validate_bockstein(alpha)
    if violations:
        raise DomainError(
            f"{len(violations)} Bockstein inequality violation(s)",
            code="bf_violations",
            details={"violations": [v.to_json() for v in violations]},
        )
    return alpha


class Arg(NamedTuple):
    """One argument: its argparse flags and options, and the reader applied
    to its string inside the error guard (None when argparse typed it)."""

    flags: tuple[str, ...]
    read: Optional[Callable[[str], Any]]
    options: dict

    @property
    def dest(self) -> str:
        return self.flags[-1].lstrip("-")


def _document(reader, *flags, **options) -> Arg:
    return Arg(flags, reader, options)


_group = partial(_document, lambda text: parse_group(text))
_graded = partial(_document, lambda text: parse_graded(text))
_int = partial(_document, None, type=int)


# ---------------------------------------------------------------------------
# Renderers.


class Render(NamedTuple):
    to_json: Callable[[Any], Any]
    to_text: Callable[[Any], str]


def _under(key: str, to_text=lambda v: json.dumps(v.to_json())) -> Render:
    """A value's JSON document under `key`; the text is the document unless given."""
    return Render(lambda v: {key: v.to_json()}, to_text)


GROUP = Render(lambda g: {"group": format_group(g)}, lambda g: format_group(g))
GRADED = Render(lambda k: {"graded": {str(d): format_group(g) for d, g in k.entries}}, lambda k: format_graded(k))
VALUE = Render(lambda v: {"value": v.to_json()}, str)
VERDICT = Render(lambda b: {"verdict": b}, lambda b: "yes" if b else "no")


def _primes_text(ps) -> str:
    if ps.is_all:
        return "all primes"
    body = "{" + ", ".join(map(str, ps.members)) + "}"
    return f"all primes outside {body}" if ps.cofinite else body


def _snf_json(res):
    d = res.d
    factors = [f for f in (d.entries[i * d.cols + i] for i in range(min(d.rows, d.cols))) if f != 0]
    return {"d": d.to_rows(), "u": res.u.to_rows(), "v": res.v.to_rows(), "factors": factors}


def _snf_text(res) -> str:
    doc = _snf_json(res)
    factors = ", ".join(map(str, doc["factors"])) or "(none)"
    return "\n".join([f"factors: {factors}", f"D: {doc['d']}", f"U: {doc['u']}", f"V: {doc['v']}"])


def _vanish_text(conditions) -> str:
    return VERDICT.to_text(all(conditions)) + " [conditions: " + ", ".join(map(str, conditions)) + "]"


def _leqgr_json(v):
    witness = None
    if not v.holds:
        g, dk, dl = v.witness
        witness = {"group": format_group(g), "dim_left": dk.to_json(), "dim_right": dl.to_json()}
    return {"verdict": v.holds, "checked": [format_group(g) for g in v.checked], "witness": witness}


def _leqgr_text(v) -> str:
    if v.holds:
        return "holds"
    g, dk, dl = v.witness
    return f"fails: with coefficients {format_group(g)} the left side has dimension {dk}, the right {dl}"


def _witness74_json(found):
    alpha, case = found
    return {"bf": alpha.to_json(), "case": case}


def _spaek_text(report) -> str:
    lines = [VERDICT.to_text(report.verdict)]
    for f in report.failures:
        where = f"degree {f.degree}" if f.degree is not None else "overall"
        prime = f" at prime {f.prime}" if f.prime is not None else ""
        lines.append(f"  clause {f.clause}, {where}{prime}: {f.note}")
    return "\n".join(lines)


def _classify_text(t) -> str:
    if t.kind == "localization":
        return f"localization type: circle localized at {_primes_text(t.primes)}"
    if t.kind == "rational":
        return f"rational type in degree {t.degree}"
    return "no finite type"


def _mooreem_text(v) -> str:
    if not v.matches:
        return "no"
    if v.localization is not None:
        return f"yes: localization at {_primes_text(v.localization)}"
    return "yes: rational"


# ---------------------------------------------------------------------------
# The command table.


def _present(relations, generators: Optional[int]):
    if generators is None:
        if relations.rows == 0:
            raise ParseError("--generators is required when there are no relations", code="bad_document")
        generators = relations.cols
    elif relations.rows == 0:
        # `[]` reads as 0x0; with no relations the columns are the generators
        # (a negative count keeps its error from group_from_presentation)
        relations = extcalc.IntMatrix(0, max(generators, 0), ())
    return extcalc.group_from_presentation(generators, relations)


def _pairing(x, k):
    first, second = pairing(x, k)
    if first != second:
        raise AssertionError(f"the two pairing routes disagree: {format_graded(first)} vs {format_graded(second)}")
    return first


class Command(NamedTuple):
    name: str
    help: str
    args: tuple[Arg, ...]
    compute: Callable[..., Any]
    render: Render


COMMANDS = (
    Command("canon", "canonical form of a group expression", (_group("group"),), lambda g: g, GROUP),
    Command("tensor", "tensor product of two groups", (_group("left"), _group("right")),
            lambda g, h: g.tensor(h), GROUP),
    Command("tor", "torsion product of two groups", (_group("left"), _group("right")),
            lambda g, h: g.tor(h), GROUP),
    Command("sigma", "Bockstein basis of a group", (_group("group"),), lambda g: sigma(g),
            _under("sigma", lambda s: format_sigma(s))),
    Command("tau", "closure of the Bockstein basis of a group", (_group("group"),), lambda g: tau(g),
            _under("tau", lambda s: format_sigma(s))),
    Command("snf", "Smith normal form D = U M V of an integer matrix",
            (_document(_matrix_arg, "matrix", help="JSON row list, inline or a file path"),),
            lambda m: extcalc.snf(m), Render(_snf_json, _snf_text)),
    Command("present", "group presented by a relation matrix",
            (_document(_matrix_arg, "relations", help="JSON row list, one relation per row"),
             _int("-g", "--generators", help="generator count (default: column count)")),
            _present, GROUP),
    Command("homology", "reduced homology of a free chain complex",
            (_document(_chain_arg, "chain", help="JSON document with 'ranks' and 'boundaries'"),),
            lambda c: extcalc.chain_homology(c), GRADED),
    Command("moore", "graded homology of a Moore complex M(G, n)", (_group("group"), _int("n")),
            lambda g, n: moore_graded(g, n), GRADED),
    Command("hcoef", "homology of a graded complex with coefficients", (_graded("graded"), _group("group")),
            lambda k, g: homology_with_coefficients(k, g), GRADED),
    Command("dim", "homological dimension of a graded complex w.r.t. a group", (_graded("graded"), _group("group")),
            lambda k, g: homological_dimension(k, g), VALUE),
    Command("cin", "connectivity index (integral homological dimension)", (_graded("graded"),),
            lambda k: k.min_degree(), VALUE),
    Command("smash", "graded homology of a smash product", (_graded("left"), _graded("right")),
            lambda k, l: smash(k, l), GRADED),
    Command("suspend", "shift a graded complex up by r degrees", (_graded("graded"), _int("r")),
            lambda k, r: suspend(k, r), GRADED),
    Command("pairing", "graded pairing of a compactum with a complex",
            (_graded("compactum", help="graded cohomology of the compactum"),
             _graded("complex", help="graded homology of the complex")),
            _pairing, GRADED),
    Command("vanish", "triple vanishing test for the pairing below level -m",
            (_graded("compactum"), _graded("complex"), _int("m")), lambda x, k, m: vanishing_check(x, k, m),
            Render(lambda c: {"verdict": all(c), "conditions": list(c)}, _vanish_text)),
    Command("leqgr", "dimension order between two graded complexes", (_graded("left"), _graded("right")),
            lambda k, l: graded_order_leq(k, l), Render(_leqgr_json, _leqgr_text)),
    Command("bfcheck", "validate a Bockstein function document",
            (_document(_bf_arg, "bf", help="JSON document, inline or a file path"),), lambda alpha: alpha,
            Render(lambda _: {"valid": True, "violations": []}, lambda _: "valid")),
    Command("bfdim", "dimension of a Bockstein function w.r.t. a group", (_document(_bf_arg, "bf"), _group("group")),
            lambda alpha, g: extcalc.coef_dimension(alpha, g), VALUE),
    Command("covdim", "covering dimension of a Bockstein function", (_document(_bf_arg, "bf"),),
            lambda alpha: extcalc.covering_dimension(alpha), VALUE),
    Command("spae", "is every symmetric-product obstruction of the function below the complex",
            (_document(_bf_arg, "bf"), _graded("graded")), lambda alpha, k: extcalc.sp_in_ae(alpha, k), VERDICT),
    Command("cohdimmin", "minimal Eilenberg-MacLane wedge realizing a Bockstein function",
            (_document(_bf_arg, "bf"),), lambda alpha: extcalc.minimal_wedge(alpha), _under("wedge")),
    Command("witness73", "function with dimension m on one group, infinite on another",
            (_group("dim_group"), _group("sep_group"), _int("m")),
            lambda g, f, m: extcalc.infinite_gap_witness(g, f, m), _under("bf")),
    Command("witness74", "function with dimension m on one group, m+1 on another",
            (_group("dim_group"), _group("sep_group"), _int("m")), lambda g, f, m: extcalc.unit_gap_witness(g, f, m),
            Render(_witness74_json, lambda found: json.dumps(_witness74_json(found)))),
    Command("spaek", "does SP of a complex have the type of an Eilenberg-MacLane space",
            (_graded("--graded", required=True, help="reduced homology of the complex"),
             _group("--group", required=True, help="coefficient group of the target"),
             _int("--n", required=True, help="degree of the target")),
            lambda k, g, n: extcalc.sp_factors_as_em(k, g, n), Render(lambda v: v.to_json(), _spaek_text)),
    Command("modp", "is the complex's symmetric product mod-p trivial", (_graded("graded"), _int("p")),
            lambda k, p: extcalc.mod_p_trivial(k, p), VERDICT),
    Command("classify", "finite extension type of a complex's symmetric product", (_graded("graded"),),
            lambda k: extcalc.classify_finite_type(k), Render(lambda v: v.to_json(), _classify_text)),
    Command("compact", "does the symmetric product share its type with a compactum of the circle kind",
            (_graded("graded"),), lambda k: extcalc.has_compact_type(k), VERDICT),
    Command("mooreem", "does a Moore complex's SP match the corresponding Eilenberg-MacLane space",
            (_group("group"), _int("n")), lambda g, n: extcalc.moore_matches_em(g, n),
            Render(lambda v: v.to_json(), _mooreem_text)),
)
_BY_NAME = {command.name: command for command in COMMANDS}


# ---------------------------------------------------------------------------
# Parser and dispatch.


class _UsageError(Exception):
    """An argparse usage error, raised with its parser and message so that
    `run_command` can report it as an envelope under --json."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(self, message)


def _json_requested(argv) -> bool:
    """Whether argv asks for --json (or an abbreviation argparse accepts)
    before any `--`, read without parsing, for a run whose parse failed."""
    for token in argv:
        if token == "--":
            return False
        flag = token.split("=", 1)[0]
        if len(flag) > 2 and "--json".startswith(flag):
            return True
    return False


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser for `argv`.  When argv[0] is exactly a command name, only
    that subparser is built, and it reads and reports `argv` as the full
    parser does; otherwise every subparser is built, so top-level help,
    --version and invalid-choice messages list them all."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON result envelope")

    top = _Parser(
        prog="extcalc",
        description="symbolic calculus of admissible abelian groups, graded homology, "
        "Bockstein dimension functions, and extension types of symmetric products",
    )
    top.add_argument("--version", action="version", version=f"%(prog)s {extcalc.__version__}")
    sub = top.add_subparsers(dest="command", metavar="command", required=True)
    for command in (_BY_NAME[argv[0]],) if argv and argv[0] in _BY_NAME else COMMANDS:
        p = sub.add_parser(command.name, parents=[common], help=command.help, description=command.help)
        p.set_defaults(row=command)
        for a in command.args:
            p.add_argument(*a.flags, **a.options)
    return top


def _emit_error(ns, exc, status: int) -> int:
    error = {"code": exc.code, "message": exc.message}
    if getattr(exc, "details", None) is not None:
        error["details"] = exc.details
    if getattr(ns, "json", False):
        print(json.dumps({"ok": False, "schema": SCHEMA_VERSION, "error": error}))
    else:
        print(f"error[{exc.code}]: {exc.message}", file=sys.stderr)
        if "details" in error:
            print(json.dumps(error["details"], indent=2), file=sys.stderr)
    return status


def run_command(argv) -> int:
    """Run one invocation; returns the exit status instead of exiting."""
    parser = build_parser(argv)
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        failed, message = exc.args
        if _json_requested(argv):
            return _emit_error(argparse.Namespace(json=True), ParseError(f"{failed.prog}: {message}", code="usage"), 2)
        failed.print_usage(sys.stderr)
        print(f"{failed.prog}: error: {message}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # --help and --version
        return int(exc.code or 0)
    command = ns.row
    try:
        values = [getattr(ns, a.dest) if a.read is None else a.read(getattr(ns, a.dest)) for a in command.args]
        value = command.compute(*values)
        # A computed answer prints in full: the int->str digit limit guards
        # parsing untrusted input, which is done by now.
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            if ns.json:
                out = json.dumps({"ok": True, "schema": SCHEMA_VERSION, "result": command.render.to_json(value)})
            else:
                out = command.render.to_text(value)
        finally:
            sys.set_int_max_str_digits(limit)
    except ParseError as exc:
        return _emit_error(ns, exc, 2)
    except DomainError as exc:
        return _emit_error(ns, exc, 1)
    except Exception as exc:  # a bug, reported like any error rather than as a traceback
        return _emit_error(ns, ExtcalcError(f"{type(exc).__name__}: {exc}", code="internal_error"), 3)
    print(out)
    return 0


def main(argv=None):
    sys.exit(run_command(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    main()
