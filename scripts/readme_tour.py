#!/usr/bin/env python3
"""Run the command-line tour in README.md and check that every command prints
exactly what the README shows, with exit status 0.

    python scripts/readme_tour.py

Each `$ extcalc ...` line of the tour runs in this process through
`extcalc.cli.run_command`.  Exits 1 at the first command whose output or
status differs from the README.
"""

import contextlib
import io
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from extcalc.cli import run_command  # noqa: E402


def tour(readme: str) -> list[tuple[list[str], str]]:
    """(argv, expected stdout) of each command in the tour's code block."""
    block = readme.split("## Command-line tour", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    steps = []
    for chunk in block.strip().split("\n\n"):
        command, *output = chunk.splitlines()
        steps.append((shlex.split(command.removeprefix("$ extcalc ")), "\n".join(output) + "\n"))
    return steps


def main() -> int:
    steps = tour((ROOT / "README.md").read_text())
    for argv, expected in steps:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = run_command(argv)
        if status != 0 or out.getvalue() != expected:
            print(f"extcalc {shlex.join(argv)}: exit {status}, printed\n{out.getvalue()}expected\n{expected}")
            return 1
    print(f"README tour: {len(steps)} commands print what the README shows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
