"""Command-line front end.

Every subcommand prints a human-readable line by default and, under
``--json``, a single result envelope on stdout:

    {"ok": true, "schema": "extcalc/1", "result": {...}}
    {"ok": false, "schema": "extcalc/1", "error": {"code": ..., "message": ...}}

Exit status is 0 on success, 1 when an operation rejects mathematically
invalid input (domain error), and 2 on surface-syntax, document, or usage
errors.  In text mode errors go to stderr; in JSON mode the envelope always
goes to stdout so pipelines can rely on it.

Structured inputs (matrices, chain complexes, Bockstein functions) are given
either inline as a JSON literal or as a path to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .abelian import AdmissibleGroup, sigma, tau
from .bockstein import (
    BocksteinFunction,
    coef_dimension,
    covering_dimension,
    infinite_gap_witness,
    minimal_wedge,
    sp_in_ae,
    unit_gap_witness,
    validate_bockstein,
)
from .dsl import format_graded, format_group, format_sigma, parse_graded, parse_group
from .errors import DomainError, ParseError
from .exttype import (
    classify_finite_type,
    has_compact_type,
    mod_p_trivial,
    moore_matches_em,
    sp_factors_as_em,
)
from .graded import (
    GradedGroup,
    connectivity_index,
    homological_dimension,
    homology_with_coefficients,
    moore_graded,
    pairing,
    smash,
    suspend,
    vanishing_check,
    graded_order_leq,
)
from .presentation import ChainComplex, IntMatrix, chain_homology, group_from_presentation, snf

SCHEMA_VERSION = "extcalc/1"


# ---------------------------------------------------------------------------
# Input helpers.


def _load_json_source(arg: str):
    """A structured argument: inline JSON if it looks like a literal,
    otherwise a path to a JSON file."""
    text = arg.strip()
    if not (text.startswith("{") or text.startswith("[")):
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {arg!r}: {exc}", code="unreadable_input") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON: {exc}", code="bad_document") from exc


def _matrix_arg(arg: str) -> IntMatrix:
    data = _load_json_source(arg)
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise ParseError("a matrix document is a JSON list of rows", code="bad_document")
    return IntMatrix.from_rows(data)


def _chain_arg(arg: str) -> ChainComplex:
    data = _load_json_source(arg)
    if not isinstance(data, dict):
        raise ParseError("a chain complex document is a JSON object", code="bad_document")
    return ChainComplex.from_json(data)


def _bf_arg(arg: str) -> BocksteinFunction:
    """Load and fully validate a Bockstein function document; violations of
    the five inequalities are a domain error carrying the complete list."""
    data = _load_json_source(arg)
    alpha = BocksteinFunction.from_json(data)
    violations = validate_bockstein(alpha)
    if violations:
        raise DomainError(
            f"{len(violations)} Bockstein inequality violation(s)",
            code="bf_violations",
            details={"violations": [v.to_json() for v in violations]},
        )
    return alpha


# ---------------------------------------------------------------------------
# Output helpers.


def _graded_result(k: GradedGroup):
    return {str(d): format_group(g) for d, g in k.entries}


def _group_out(g: AdmissibleGroup):
    text = format_group(g)
    return {"group": text}, text


def _graded_out(k: GradedGroup):
    return {"graded": _graded_result(k)}, format_graded(k)


def _value_out(v):
    return {"value": v.to_json()}, str(v)


def _bool_out(b: bool):
    return {"verdict": b}, "yes" if b else "no"


def _primes_text(ps) -> str:
    if ps.is_all:
        return "all primes"
    body = "{" + ", ".join(map(str, ps.members)) + "}"
    return f"all primes outside {body}" if ps.cofinite else body


# ---------------------------------------------------------------------------
# Command handlers.  Each returns (json result, text rendering).


def _cmd_canon(ns):
    return _group_out(parse_group(ns.group))


def _cmd_tensor(ns):
    return _group_out(parse_group(ns.left).tensor(parse_group(ns.right)))


def _cmd_tor(ns):
    return _group_out(parse_group(ns.left).tor(parse_group(ns.right)))


def _cmd_sigma(ns):
    s = sigma(parse_group(ns.group))
    return {"sigma": s.to_json()}, format_sigma(s)


def _cmd_tau(ns):
    t = tau(parse_group(ns.group))
    return {"tau": t.to_json()}, format_sigma(t)


def _cmd_snf(ns):
    res = snf(_matrix_arg(ns.matrix))
    factors = [res.d.entries[i * res.d.cols + i] for i in range(min(res.d.rows, res.d.cols))]
    factors = [f for f in factors if f != 0]
    result = {
        "d": res.d.to_rows(),
        "u": res.u.to_rows(),
        "v": res.v.to_rows(),
        "factors": factors,
    }
    text = "\n".join(
        [
            "factors: " + (", ".join(map(str, factors)) if factors else "(none)"),
            f"D: {res.d.to_rows()}",
            f"U: {res.u.to_rows()}",
            f"V: {res.v.to_rows()}",
        ]
    )
    return result, text


def _cmd_present(ns):
    relations = _matrix_arg(ns.relations)
    generators = ns.generators
    if generators is None:
        if relations.rows == 0:
            raise ParseError("--generators is required when there are no relations", code="bad_document")
        generators = relations.cols
    return _group_out(group_from_presentation(generators, relations))


def _cmd_homology(ns):
    return _graded_out(chain_homology(_chain_arg(ns.chain)))


def _cmd_moore(ns):
    return _graded_out(moore_graded(parse_group(ns.group), ns.n))


def _cmd_hcoef(ns):
    return _graded_out(homology_with_coefficients(parse_graded(ns.graded), parse_group(ns.group)))


def _cmd_dim(ns):
    return _value_out(homological_dimension(parse_graded(ns.graded), parse_group(ns.group)))


def _cmd_cin(ns):
    return _value_out(connectivity_index(parse_graded(ns.graded)))


def _cmd_smash(ns):
    return _graded_out(smash(parse_graded(ns.left), parse_graded(ns.right)))


def _cmd_suspend(ns):
    return _graded_out(suspend(parse_graded(ns.graded), ns.r))


def _cmd_pairing(ns):
    first, second = pairing(parse_graded(ns.compactum), parse_graded(ns.complex))
    if first != second:
        raise AssertionError(f"the two pairing routes disagree: {format_graded(first)} vs {format_graded(second)}")
    result = {str(d): format_group(g) for d, g in first.entries}
    return {"graded": result}, format_graded(first)


def _cmd_vanish(ns):
    conditions = vanishing_check(parse_graded(ns.compactum), parse_graded(ns.complex), ns.m)
    verdict = all(conditions)
    text = ("yes" if verdict else "no") + " [conditions: " + ", ".join(str(c) for c in conditions) + "]"
    return {"verdict": verdict, "conditions": list(conditions)}, text


def _cmd_leqgr(ns):
    v = graded_order_leq(parse_graded(ns.left), parse_graded(ns.right))
    result = {"verdict": v.holds, "checked": [format_group(g) for g in v.checked], "witness": None}
    if v.holds:
        return result, "holds"
    g, dk, dl = v.witness
    result["witness"] = {"group": format_group(g), "dim_left": dk.to_json(), "dim_right": dl.to_json()}
    return result, f"fails: with coefficients {format_group(g)} the left side has dimension {dk}, the right {dl}"


def _cmd_bfcheck(ns):
    _bf_arg(ns.bf)
    return {"valid": True, "violations": []}, "valid"


def _cmd_bfdim(ns):
    return _value_out(coef_dimension(_bf_arg(ns.bf), parse_group(ns.group)))


def _cmd_covdim(ns):
    return _value_out(covering_dimension(_bf_arg(ns.bf)))


def _cmd_spae(ns):
    return _bool_out(sp_in_ae(_bf_arg(ns.bf), parse_graded(ns.graded)))


def _cmd_cohdimmin(ns):
    wedge = minimal_wedge(_bf_arg(ns.bf))
    result = {"wedge": wedge.to_json()}
    return result, json.dumps(result["wedge"])


def _cmd_witness73(ns):
    alpha = infinite_gap_witness(parse_group(ns.dim_group), parse_group(ns.sep_group), ns.m)
    result = {"bf": alpha.to_json()}
    return result, json.dumps(result["bf"])


def _cmd_witness74(ns):
    alpha, case = unit_gap_witness(parse_group(ns.dim_group), parse_group(ns.sep_group), ns.m)
    result = {"bf": alpha.to_json(), "case": case}
    return result, json.dumps(result)


def _cmd_spaek(ns):
    report = sp_factors_as_em(parse_graded(ns.graded), parse_group(ns.group), ns.n)
    result = report.to_json()
    if report.verdict:
        return result, "yes"
    lines = ["no"]
    for f in report.failures:
        where = f"degree {f.degree}" if f.degree is not None else "overall"
        prime = f" at prime {f.prime}" if f.prime is not None else ""
        lines.append(f"  clause {f.clause}, {where}{prime}: {f.note}")
    return result, "\n".join(lines)


def _cmd_modp(ns):
    return _bool_out(mod_p_trivial(parse_graded(ns.graded), ns.p))


def _cmd_classify(ns):
    t = classify_finite_type(parse_graded(ns.graded))
    result = t.to_json()
    if result["kind"] == "localization":
        text = f"localization type: circle localized at {_primes_text(t.primes)}"
    elif result["kind"] == "rational":
        text = f"rational type in degree {t.degree}"
    else:
        text = "no finite type"
    return result, text


def _cmd_compact(ns):
    return _bool_out(has_compact_type(parse_graded(ns.graded)))


def _cmd_mooreem(ns):
    v = moore_matches_em(parse_group(ns.group), ns.n)
    result = v.to_json()
    if not v.matches:
        return result, "no"
    if v.localization is not None:
        return result, f"yes: localization at {_primes_text(v.localization)}"
    return result, "yes: rational"


# ---------------------------------------------------------------------------
# Parser wiring.


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON result envelope")

    top = argparse.ArgumentParser(
        prog="extcalc",
        description="symbolic calculus of admissible abelian groups, graded homology, "
        "Bockstein dimension functions, and extension types of symmetric products",
    )
    top.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = top.add_subparsers(dest="command", metavar="command", required=True)

    def cmd(name, handler, help_):
        p = sub.add_parser(name, parents=[common], help=help_, description=help_)
        p.set_defaults(run=handler)
        return p

    p = cmd("canon", _cmd_canon, "canonical form of a group expression")
    p.add_argument("group")

    p = cmd("tensor", _cmd_tensor, "tensor product of two groups")
    p.add_argument("left")
    p.add_argument("right")

    p = cmd("tor", _cmd_tor, "torsion product of two groups")
    p.add_argument("left")
    p.add_argument("right")

    p = cmd("sigma", _cmd_sigma, "Bockstein basis of a group")
    p.add_argument("group")

    p = cmd("tau", _cmd_tau, "closure of the Bockstein basis of a group")
    p.add_argument("group")

    p = cmd("snf", _cmd_snf, "Smith normal form D = U M V of an integer matrix")
    p.add_argument("matrix", help="JSON row list, inline or a file path")

    p = cmd("present", _cmd_present, "group presented by a relation matrix")
    p.add_argument("relations", help="JSON row list, one relation per row")
    p.add_argument("-g", "--generators", type=int, default=None, help="generator count (default: column count)")

    p = cmd("homology", _cmd_homology, "reduced homology of a free chain complex")
    p.add_argument("chain", help="JSON document with 'ranks' and 'boundaries'")

    p = cmd("moore", _cmd_moore, "graded homology of a Moore complex M(G, n)")
    p.add_argument("group")
    p.add_argument("n", type=int)

    p = cmd("hcoef", _cmd_hcoef, "homology of a graded complex with coefficients")
    p.add_argument("graded")
    p.add_argument("group")

    p = cmd("dim", _cmd_dim, "homological dimension of a graded complex w.r.t. a group")
    p.add_argument("graded")
    p.add_argument("group")

    p = cmd("cin", _cmd_cin, "connectivity index (integral homological dimension)")
    p.add_argument("graded")

    p = cmd("smash", _cmd_smash, "graded homology of a smash product")
    p.add_argument("left")
    p.add_argument("right")

    p = cmd("suspend", _cmd_suspend, "shift a graded complex up by r degrees")
    p.add_argument("graded")
    p.add_argument("r", type=int)

    p = cmd("pairing", _cmd_pairing, "graded pairing of a compactum with a complex")
    p.add_argument("compactum", help="graded cohomology of the compactum")
    p.add_argument("complex", help="graded homology of the complex")

    p = cmd("vanish", _cmd_vanish, "triple vanishing test for the pairing below level -m")
    p.add_argument("compactum")
    p.add_argument("complex")
    p.add_argument("m", type=int)

    p = cmd("leqgr", _cmd_leqgr, "dimension order between two graded complexes")
    p.add_argument("left")
    p.add_argument("right")

    p = cmd("bfcheck", _cmd_bfcheck, "validate a Bockstein function document")
    p.add_argument("bf", help="JSON document, inline or a file path")

    p = cmd("bfdim", _cmd_bfdim, "dimension of a Bockstein function w.r.t. a group")
    p.add_argument("bf")
    p.add_argument("group")

    p = cmd("covdim", _cmd_covdim, "covering dimension of a Bockstein function")
    p.add_argument("bf")

    p = cmd("spae", _cmd_spae, "is every symmetric-product obstruction of the function below the complex")
    p.add_argument("bf")
    p.add_argument("graded")

    p = cmd("cohdimmin", _cmd_cohdimmin, "minimal Eilenberg-MacLane wedge realizing a Bockstein function")
    p.add_argument("bf")

    p = cmd("witness73", _cmd_witness73, "function with dimension m on one group, infinite on another")
    p.add_argument("dim_group")
    p.add_argument("sep_group")
    p.add_argument("m", type=int)

    p = cmd("witness74", _cmd_witness74, "function with dimension m on one group, m+1 on another")
    p.add_argument("dim_group")
    p.add_argument("sep_group")
    p.add_argument("m", type=int)

    p = cmd("spaek", _cmd_spaek, "does SP of a complex have the type of an Eilenberg-MacLane space")
    p.add_argument("--graded", required=True, help="reduced homology of the complex")
    p.add_argument("--group", required=True, help="coefficient group of the target")
    p.add_argument("--n", required=True, type=int, help="degree of the target")

    p = cmd("modp", _cmd_modp, "is the complex's symmetric product mod-p trivial")
    p.add_argument("graded")
    p.add_argument("p", type=int)

    p = cmd("classify", _cmd_classify, "finite extension type of a complex's symmetric product")
    p.add_argument("graded")

    p = cmd("compact", _cmd_compact, "does the symmetric product share its type with a compactum of the circle kind")
    p.add_argument("graded")

    p = cmd("mooreem", _cmd_mooreem, "does a Moore complex's SP match the corresponding Eilenberg-MacLane space")
    p.add_argument("group")
    p.add_argument("n", type=int)

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
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        result, text = ns.run(ns)
    except ParseError as exc:
        return _emit_error(ns, exc, 2)
    except DomainError as exc:
        return _emit_error(ns, exc, 1)
    if ns.json:
        print(json.dumps({"ok": True, "schema": SCHEMA_VERSION, "result": result}))
    else:
        print(text)
    return 0


def main(argv=None):
    sys.exit(run_command(sys.argv[1:] if argv is None else argv))


if __name__ == "__main__":
    main()
