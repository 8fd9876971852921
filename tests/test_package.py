"""The package as a whole: its public names, its documented error codes, that
it runs without sympy, and that it loads a module only when it is used."""

import hashlib
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import extcalc

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
    for name in ("bockstein_family", "connectivity_index"):
        assert not hasattr(extcalc, name) and not hasattr(extcalc.graded, name)
    assert not hasattr(extcalc.IntMatrix, "identity")


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
    # the digest pins the 77 names and their order as they were when the package imported every module eagerly
    proc = python(
        "import extcalc, importlib\n"
        "for name in extcalc.__all__[1:]:\n"
        "    home = importlib.import_module('extcalc.' + extcalc._HOME[name])\n"
        "    assert getattr(extcalc, name) is getattr(home, name), name\n"
        "print(' '.join(extcalc.__all__))"
    )
    assert proc.returncode == 0, proc.stderr
    names = proc.stdout.split()
    assert len(names) == 77
    assert hashlib.sha256(" ".join(names).encode()).hexdigest()[:16] == "d1ad786bfbe876bc"
