"""The package as a whole: its public names, its documented error codes, that
it runs without sympy, that it loads a module only when it is used, and that
every public call types the records it takes: groups, graded groups,
matrices, chain complexes, Bockstein functions and bases, and prime sets."""

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


@pytest.mark.parametrize(
    "qualname, param", [(qualname, param) for qualname, (_, _, params) in GROUP_CALLABLES.items() for param in params]
)
def test_a_value_of_another_kind_is_not_a_group(qualname, param):
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
        if fn.__name__.startswith("__"):  # an operator follows Python's rule: TypeError
            with pytest.raises(TypeError):
                getattr(operator, fn.__name__.strip("_"))(*args)
            continue
        with pytest.raises(extcalc.ExtcalcError) as caught:
            fn(*args)
        assert caught.value.code == "not_a_group", (bad, caught.value)


ONES = extcalc.PrimeTriple.constant(extcalc.ExtNat(1))


@pytest.mark.parametrize(
    "build, code",
    [
        (lambda: extcalc.BocksteinFunction.build(1, ONES, 5), "not_a_group"),
        (lambda: extcalc.BocksteinFunction.build(1, ONES, "Z"), "not_a_group"),
        (lambda: extcalc.IntMatrix(1, 1, 5), "bad_entry"),
        (lambda: extcalc.GradedGroup.of(5), "not_a_group"),
        (lambda: extcalc.GradedGroup.of("Z"), "not_a_group"),
        (lambda: extcalc.PrimeSet(False, 5), "not_a_group"),
        (lambda: extcalc.PrimeSet(False, ([2],)), "not_a_group"),
        (lambda: extcalc.IntMatrix.from_rows(5), "bad_shape"),
        (lambda: extcalc.IntMatrix.from_rows([5]), "bad_shape"),
        (lambda: extcalc.AdmissibleGroup(5), "not_a_group"),
        (lambda: extcalc.GradedGroup(5), "not_a_group"),
        (lambda: extcalc.GradedGroup(((1, 5),)), "not_a_group"),
        (lambda: extcalc.SigmaSet(5, 5, 5), "not_a_group"),
        (lambda: extcalc.SigmaSet(True, 5, ()), "not_a_group"),
        (lambda: extcalc.MinimalWedge(1, 5, ()), "not_a_group"),
        (lambda: extcalc.SigmaSet(True, 0, {4: 3}), "not_prime"),
        (lambda: extcalc.SigmaSet(True, 0, {"a": 3, 2: 3}), "not_prime"),
        (lambda: PrimeIndexed(0, 0, {4: 1}), "not_prime"),
        (lambda: extcalc.SigmaSet(5, 0, ()), "not_a_group"),
        (lambda: extcalc.MinimalWedge("x", extcalc.PrimeTriple(1, 1, 1)), "not_a_group"),
        (lambda: extcalc.MinimalWedge(1, extcalc.PrimeTriple("a", "b", "c")), "not_a_group"),
    ],
    ids=[
        "exceptions 5", "exceptions text", "entries 5", "graded 5", "graded text",
        "members 5", "unhashable member", "rows 5", "row 5",
        "group record 5", "graded record 5", "graded record entry 5", "sigma record 5",
        "sigma pattern 5", "wedge default 5", "sigma key 4", "sigma key text", "record key 4",
        "sigma rational 5", "wedge rational text", "wedge degree text",
    ],
)
def test_a_collection_a_record_takes_is_typed(build, code):
    # each of these raised a raw TypeError or ValueError from dict(), len(), set() or list(), or was
    # built unchecked (the records' own constructors) and raised one on use
    with pytest.raises(extcalc.ExtcalcError) as caught:
        build()
    assert caught.value.code == code


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
