#!/usr/bin/env python3
"""Walk a gallery of small complexes and tabulate their extension-type
verdicts: finite classification, compactness, and mod-p triviality.

Add your own rows with --extra '{1: Z/2, 3: Q}' (repeatable).
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from extcalc import (
    classify_finite_type,
    format_graded,
    has_compact_type,
    mod_p_trivial,
    parse_graded,
)

GALLERY = [
    "{1: Z}",
    "{1: Z_(2)}",
    "{1: Z[1/3]}",
    "{1: Q}",
    "{2: Q}",
    "{1: Z/2}",
    "{2: Z/3}",
    "{1: Z + Z/2}",
    "{1: Z, 4: Q}",
    "{1: Z_(2), 4: Z/3}",
    "{1: Z/2, 2: Z/2}",
    "{3: Q^2}",
]


def describe(verdict) -> str:
    if verdict.kind == "localization":
        ps = verdict.primes
        if ps.is_all:
            return "circle"
        return "circle at " + ("~" if ps.cofinite else "") + "{" + ",".join(map(str, ps.members)) + "}"
    if verdict.kind == "rational":
        return f"K(Q,{verdict.degree})"
    return "none"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--primes", type=int, nargs="+", default=[2, 3, 5], help="mod-p columns")
    parser.add_argument("--extra", action="append", default=[], help="additional graded literal")
    args = parser.parse_args()

    rows = []
    for text in GALLERY + args.extra:
        k = parse_graded(text)
        rows.append(
            (
                format_graded(k),
                describe(classify_finite_type(k)),
                "yes" if has_compact_type(k) else "no",
                " ".join("yes" if mod_p_trivial(k, p) else "no" for p in args.primes),
            )
        )

    headers = ("complex", "finite type", "compact", " ".join(f"mod{p}" for p in args.primes))
    widths = [max(len(r[i]) for r in rows + [headers]) for i in range(4)]
    for row in [headers] + rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
