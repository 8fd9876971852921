#!/usr/bin/env python3
"""Soak test for the two independent computation routes.

Random presentation matrices feed both the closed-form atom tables and the
Smith-normal-form oracle; any disagreement is printed with enough detail to
reproduce and the run exits nonzero.
"""

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from extcalc import (
    IntMatrix,
    group_from_presentation,
    tensor_from_presentations,
    tor_from_presentations,
)


def random_relations(rng: random.Random, max_dim: int, bound: int) -> IntMatrix:
    rows = rng.randint(0, max_dim)
    cols = rng.randint(0, max_dim)
    return IntMatrix.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)],
        cols=cols,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=5000)
    parser.add_argument("--max-dim", type=int, default=5, help="max rows/cols of a relation matrix")
    parser.add_argument("--bound", type=int, default=20, help="entry magnitude bound")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--report-every", type=int, default=1000)
    cfg = parser.parse_args()

    rng = random.Random(cfg.seed)
    start = time.perf_counter()
    mismatches = 0
    for i in range(1, cfg.pairs + 1):
        rel_a = random_relations(rng, cfg.max_dim, cfg.bound)
        rel_b = random_relations(rng, cfg.max_dim, cfg.bound)
        a = group_from_presentation(rel_a.cols, rel_a)
        b = group_from_presentation(rel_b.cols, rel_b)
        for op, table, oracle in (
            ("tensor", a.tensor(b), tensor_from_presentations(rel_a, rel_b)),
            ("tor", a.tor(b), tor_from_presentations(rel_a, rel_b)),
        ):
            if table != oracle:
                mismatches += 1
                print(f"MISMATCH pair {i} {op}:")
                print(f"  A = {rel_a.to_rows()}")
                print(f"  B = {rel_b.to_rows()}")
                print(f"  table  -> {table}")
                print(f"  oracle -> {oracle}")
        if cfg.report_every and i % cfg.report_every == 0:
            rate = i / (time.perf_counter() - start)
            print(f"{i}/{cfg.pairs} pairs, {rate:.0f}/s, {mismatches} mismatches", flush=True)

    elapsed = time.perf_counter() - start
    print(f"done: {cfg.pairs} pairs in {elapsed:.1f}s, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
