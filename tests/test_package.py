"""The package as a whole: its public names, its documented error codes, that
it runs without sympy, that it loads a module only when it is used, and that
every public call types the records it takes: groups, graded groups,
matrices, chain complexes, Bockstein functions and bases, and prime sets."""

import functools
import hashlib
import inspect
import json
import operator
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import extcalc
from extcalc.abelian import PrimeIndexed

ROOT = Path(__file__).resolve().parents[1]


def python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        timeout=120,
    )


def test_every_public_name_resolves_and_none_is_a_module():
    assert "__version__" in extcalc.__all__
    assert len(set(extcalc.__all__)) == len(extcalc.__all__)
    for name in extcalc.__all__:
        assert not isinstance(getattr(extcalc, name), types.ModuleType), name


def test_readme_tables_every_error_code_raised():
    source = "".join(path.read_text() for path in (ROOT / "src" / "extcalc").glob("*.py"))
    raised = set(re.findall(r'code="([a-z_]+)"', source))
    tabled = re.findall(r"^\| `([a-z_]+)` \| (?:1|2|2 or 1|3) \|", (ROOT / "README.md").read_text(), re.M)
    assert len(tabled) == len(set(tabled))
    assert set(tabled) == raised
    assert len(raised) == 28


def test_removed_names_stay_gone():
    for name in ("bockstein_family", "connectivity_index", "EMPTY_GRADED"):
        assert not hasattr(extcalc, name) and not hasattr(extcalc.graded, name)
    assert not hasattr(extcalc, "det") and not hasattr(extcalc.presentation, "det")
    assert not hasattr(extcalc.IntMatrix, "identity") and not hasattr(extcalc.PrimeSet, "intersect")
    assert not hasattr(extcalc.GradedGroup, "degrees")


SRC_LINE_BUDGET = 2898  # the line count of src/extcalc/*.py at the start of the round, and its ceiling


def test_the_source_stays_within_its_line_budget():
    counts = {path.name: len(path.read_text().splitlines()) for path in (ROOT / "src" / "extcalc").glob("*.py")}
    total = sum(counts.values())
    assert total <= SRC_LINE_BUDGET, (
        f"src/extcalc/*.py has {total} lines, over the budget of {SRC_LINE_BUDGET} (ROADMAP aim 2): {counts}")


def test_import_leaves_sympy_out():
    proc = python("import sys, extcalc.cli; print('sympy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_readme_tour_runs_with_sympy_blocked():
    proc = python(
        "import runpy, sys\n"
        "sys.modules['sympy'] = None  # any import of sympy now fails\n"
        "runpy.run_path('scripts/readme_tour.py', run_name='__main__')\n"
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("README tour: 10 commands")


def test_the_oracle_module_imports_without_the_test_extra():
    # scripts/oracle_soak.py imports tests/oracles.py where none of the three is installed
    proc = python(
        "import sys\n"
        "sys.modules['sympy'] = sys.modules['hypothesis'] = sys.modules['pytest'] = None\n"
        "sys.path.insert(0, 'tests')\n"
        "import oracles\n"
        "print(len(oracles.bank(('graded', 'group'), 3)))\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "3\n"


def loaded_modules(code: str) -> list[str]:
    """The extcalc modules a fresh interpreter holds after running `code`."""
    proc = python(code + "\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('extcalc'))))")
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_submodule():
    assert loaded_modules("import json, sys, extcalc") == ["extcalc"]


CORE = ["extcalc", "extcalc.abelian", "extcalc.cli", "extcalc.dsl", "extcalc.errors", "extcalc.graded", "extcalc.primes"]


@pytest.mark.parametrize(
    "argv, own",
    [
        (["canon", "Z/12"], []),
        (["snf", "[[2, 4], [6, 8]]", "--json"], ["extcalc.presentation"]),
        (["classify", "{1: Q}"], ["extcalc.exttype"]),
        (["bfcheck", '{"Q": 1, "default": {"Zp": 1, "ZpInf": 1, "Zploc": 1}}'], ["extcalc.bockstein"]),
    ],
)
def test_a_command_loads_only_its_own_modules(argv, own):
    code = (
        "import contextlib, io, json, sys\n"
        "from extcalc import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.run_command({argv!r}) == 0\n"
    )
    assert loaded_modules(code) == sorted(CORE + own)


def test_public_names_are_unchanged_and_are_their_modules_objects():
    # the digest pins the 73 names and their order: those of the eagerly importing package, with exttype's three
    # finite-type records folded into FiniteType, and without det and EMPTY_GRADED, which only tests used
    proc = python(
        "import extcalc, importlib\n"
        "for name in extcalc.__all__[1:]:\n"
        "    home = importlib.import_module('extcalc.' + extcalc._HOME[name])\n"
        "    assert getattr(extcalc, name) is getattr(home, name), name\n"
        "print(' '.join(extcalc.__all__))"
    )
    assert proc.returncode == 0, proc.stderr
    names = proc.stdout.split()
    assert len(names) == 73
    assert hashlib.sha256(" ".join(names).encode()).hexdigest()[:16] == "9ded0b8fe95329a3"


# ---------------------------------------------------------------------------
# The typed boundary: every parameter annotated as one of the record kinds.

# Each kind, and the kinds whose values are nearest to it: each is tried in its place.
SIBLINGS = {
    "AdmissibleGroup": ("GradedGroup",),
    "GradedGroup": ("AdmissibleGroup",),
    "IntMatrix": ("ChainComplex",),
    "ChainComplex": ("IntMatrix",),
    "BocksteinFunction": ("SigmaSet",),
    "SigmaSet": ("BocksteinFunction", "PrimeSet"),
    "PrimeSet": ("SigmaSet",),
}
KINDS = tuple(SIBLINGS)
SAMPLES = {
    "AdmissibleGroup": extcalc.parse_group("Z/4 + Q"),
    "GradedGroup": extcalc.parse_graded("{1: Z/2 + Q, 3: Z}"),
    "IntMatrix": extcalc.IntMatrix.from_rows([[2, 4], [6, 8]]),
    "ChainComplex": extcalc.ChainComplex((1, 1), (extcalc.IntMatrix.from_rows([[2]]),)),
    "BocksteinFunction": extcalc.BocksteinFunction.constant(1),
    "SigmaSet": extcalc.sigma(extcalc.parse_group("Z/4 + Q")),
    "PrimeSet": extcalc.PrimeSet.of(2, 3),
    "PrimePattern": extcalc.PrimePattern.CYCLIC,
    "int": 2,  # a prime, so it also fills mod_p_trivial's p, and the column count of the sample matrix
}


def _annotation(param) -> str:
    # a string under `from __future__ import annotations`, still quoted when the source quoted it
    return str(param.annotation).strip("'\"")


def group_callables() -> dict:
    """Qualified name -> (the callable's owner class or None, function, the
    names of its parameters of a kind in KINDS), over the functions in
    `extcalc.__all__` and the public methods and operators of its classes."""
    found = {}
    for name in extcalc.__all__[1:]:
        obj = getattr(extcalc, name)
        if inspect.isfunction(obj):
            members = [(None, name, obj)]
        elif inspect.isclass(obj):
            members = [
                (obj, f"{name}.{attr}", fn)
                for attr, fn in vars(obj).items()
                if inspect.isfunction(fn) and (not attr.startswith("_") or attr.endswith("__"))
            ]
        else:
            continue
        for owner, qualname, fn in members:
            params = [p.name for p in inspect.signature(fn).parameters.values() if _annotation(p) in KINDS]
            if params:
                found[qualname] = (owner, fn, params)
    return found


GROUP_CALLABLES = group_callables()


def test_the_walk_finds_every_group_parameter():
    # a renamed annotation would silently shrink the walk below
    assert len(GROUP_CALLABLES) == 43
    assert sum(len(params) for _, _, params in GROUP_CALLABLES.values()) == 58
    found = {_annotation(inspect.signature(fn).parameters[p]) for _, fn, params in GROUP_CALLABLES.values() for p in params}
    assert found == set(KINDS)


def error_code(call) -> str:
    """The code of the library error that call() raises, the type of any
    other exception, or "no error"."""
    try:
        call()
    except extcalc.ExtcalcError as exc:
        return exc.code
    except Exception as exc:
        return type(exc).__name__
    return "no error"


def bad_calls(qualname, param):
    """(call, the code it must end in) for each value of another kind given
    as `param`: `not_a_group`, or for an operator Python's TypeError."""
    owner, fn, _ = GROUP_CALLABLES[qualname]
    signature = inspect.signature(fn)
    kind = _annotation(signature.parameters[param])
    for bad in (5, 1.5, True, None, "Z", *(SAMPLES[sibling] for sibling in SIBLINGS[kind])):
        args = []
        for p in signature.parameters.values():
            if p.name == param:
                args.append(bad)
            elif owner is not None and p.name == "self":
                args.append(SAMPLES[owner.__name__])
            else:
                args.append(SAMPLES[_annotation(p)])
        if fn.__name__.startswith("__"):
            yield functools.partial(getattr(operator, fn.__name__.strip("_")), *args), "TypeError"
        else:
            yield functools.partial(fn, *args), "not_a_group"


@pytest.mark.parametrize(
    "qualname, param", [(qualname, param) for qualname, (_, _, params) in GROUP_CALLABLES.items() for param in params]
)
def test_a_value_of_another_kind_is_not_a_group(qualname, param):
    for call, code in bad_calls(qualname, param):
        assert error_code(call) == code, call


ONES = extcalc.PrimeTriple.constant(extcalc.ExtNat(1))
# each raised a raw TypeError or ValueError from dict(), len(), set() or list(), or was built unchecked (the
# records' own constructors) and raised one on use
BUILDS = {
    "exceptions 5": (lambda: extcalc.BocksteinFunction.build(1, ONES, 5), "not_a_group"),
    "exceptions text": (lambda: extcalc.BocksteinFunction.build(1, ONES, "Z"), "not_a_group"),
    "entries 5": (lambda: extcalc.IntMatrix(1, 1, 5), "bad_entry"),
    "graded 5": (lambda: extcalc.GradedGroup.of(5), "not_a_group"),
    "graded text": (lambda: extcalc.GradedGroup.of("Z"), "not_a_group"),
    "members 5": (lambda: extcalc.PrimeSet(False, 5), "not_a_group"),
    "unhashable member": (lambda: extcalc.PrimeSet(False, ([2],)), "not_a_group"),
    "rows 5": (lambda: extcalc.IntMatrix.from_rows(5), "bad_shape"),
    "row 5": (lambda: extcalc.IntMatrix.from_rows([5]), "bad_shape"),
    "group record 5": (lambda: extcalc.AdmissibleGroup(5), "not_a_group"),
    "graded record 5": (lambda: extcalc.GradedGroup(5), "not_a_group"),
    "graded record entry 5": (lambda: extcalc.GradedGroup(((1, 5),)), "not_a_group"),
    "sigma record 5": (lambda: extcalc.SigmaSet(5, 5, 5), "not_a_group"),
    "sigma pattern 5": (lambda: extcalc.SigmaSet(True, 5, ()), "not_a_group"),
    "wedge default 5": (lambda: extcalc.MinimalWedge(1, 5, ()), "not_a_group"),
    "sigma key 4": (lambda: extcalc.SigmaSet(True, 0, {4: 3}), "not_prime"),
    "sigma key text": (lambda: extcalc.SigmaSet(True, 0, {"a": 3, 2: 3}), "not_prime"),
    "record key 4": (lambda: PrimeIndexed(0, 0, {4: 1}), "not_prime"),
    "sigma rational 5": (lambda: extcalc.SigmaSet(5, 0, ()), "not_a_group"),
    "wedge rational text": (lambda: extcalc.MinimalWedge("x", extcalc.PrimeTriple(1, 1, 1)), "not_a_group"),
    "wedge degree text": (lambda: extcalc.MinimalWedge(1, extcalc.PrimeTriple("a", "b", "c")), "not_a_group"),
}


@pytest.mark.parametrize("build, code", BUILDS.values(), ids=BUILDS)
def test_a_collection_a_record_takes_is_typed(build, code):
    assert error_code(build) == code


def boundary():
    """(label, call, code) for every case of the walk and of `BUILDS`."""
    for qualname, (_, _, params) in GROUP_CALLABLES.items():
        for param in params:
            for i, (call, code) in enumerate(bad_calls(qualname, param)):
                yield f"{qualname}({param}) #{i}", call, code
    for label, (build, code) in BUILDS.items():
        yield label, build, code


def test_the_type_checks_raise_under_optimized_python():
    # -O strips assert statements, so a check built from one would let these through; the child asserts
    # nothing and prints each case's error code for this process to compare
    proc = subprocess.run(
        [sys.executable, "-O", "-c",
         "import json, test_package\n"
         "print(json.dumps([[label, test_package.error_code(call)] for label, call, _ in test_package.boundary()]))"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "tests")])),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[label, code] for label, _, code in boundary()]


# each kind of PrimeIndexed with a valid value on Q and default
RECORDS = {
    PrimeIndexed: (0, 0),
    extcalc.SigmaSet: (False, 0),
    extcalc.BocksteinFunction: (1, ONES),
    extcalc.MinimalWedge: (1, extcalc.PrimeTriple(1, 1, 1)),
}


@pytest.mark.parametrize("key", [4, 1, 0, -3, True, 2.0, "2", None])
@pytest.mark.parametrize("record", RECORDS, ids=lambda record: record.__name__)
def test_every_prime_indexed_kind_takes_prime_keys(record, key):
    # the constructor checks each key first, so a bad value at a bad key still reads as the key's fault
    rational, default = RECORDS[record]
    for value in (default, "bad"):
        with pytest.raises(extcalc.ExtcalcError) as caught:
            record.build(rational, default, {key: value})
        assert caught.value.code == "not_prime"
