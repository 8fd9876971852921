"""The package as a whole: its public names, its documented error codes, and
that it runs without sympy."""

import os
import re
import subprocess
import sys
import types
from pathlib import Path

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
    assert len(raised) == 27


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
