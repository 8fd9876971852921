#!/usr/bin/env python3
"""Soak test for pairs of independent computation routes.

Random presentation matrices feed both the closed-form atom tables and the
Smith-normal-form oracle, and each matrix feeds both reductions inside the
oracle: the invariant factors read modulo a maximal minor, and the diagonal
of the exact Smith form with its transforms.  The same two groups feed both
routes to a graded answer: `smash({1: A, 2: B}, {1: B, 3: A})` in one pass
over the atom tables, and `smash_by_presentations`, the sums of the oracle's
tensor products in degree i + j and Tor groups in degree i + j + 1.  Random
graded pairs feed both routes to the dimension order: the dimension profiles
that `leqgr` compares, read from sigma, and homological dimensions read off
full homology groups, which the atom tables build, on every member of the
coefficient family `leqgr` checks.  The matrices and graded groups come from
the generators of `tests/oracles.py`.  Any disagreement is printed with
enough detail to reproduce and the run exits nonzero.
"""

import argparse
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from extcalc import (
    GradedGroup,
    dimension_profile,
    format_graded,
    graded_order_leq,
    group_from_presentation,
    homology_with_coefficients,
    invariant_factors,
    smash,
    snf,
    tensor_from_presentations,
    tor_from_presentations,
)
from oracles import family_readings, random_graded, random_matrix, smash_by_presentations


def mismatch(i: int, what: str, *lines: str) -> int:
    """Print one disagreement, with the lines that reproduce it, and count it."""
    print(f"MISMATCH pair {i} {what}:")
    for line in lines:
        print(f"  {line}")
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--pairs", type=int, default=5000)
    parser.add_argument("--max-dim", type=int, default=5, help="max rows/cols of a relation matrix")
    parser.add_argument("--bound", type=int, default=20, help="entry magnitude bound")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--report-every", type=int, default=1000)
    cfg = parser.parse_args(argv)

    rng = random.Random(cfg.seed)
    graded_rng = random.Random(f"{cfg.seed}:graded")
    start = time.perf_counter()
    mismatches = 0
    for i in range(1, cfg.pairs + 1):
        rel_a, rel_b = (random_matrix(rng, cfg.max_dim, cfg.max_dim, -cfg.bound, cfg.bound) for _ in range(2))
        a = group_from_presentation(rel_a.cols, rel_a)
        b = group_from_presentation(rel_b.cols, rel_b)
        shown = (f"A = {rel_a.to_rows()}", f"B = {rel_b.to_rows()}")
        for op, table, oracle in (
            ("tensor", a.tensor(b), tensor_from_presentations(rel_a, rel_b)),
            ("tor", a.tor(b), tor_from_presentations(rel_a, rel_b)),
        ):
            if table != oracle:
                mismatches += mismatch(i, op, *shown, f"table  -> {table}", f"oracle -> {oracle}")
        table = smash(GradedGroup({1: a, 2: b}), GradedGroup({1: b, 3: a}))
        oracle = smash_by_presentations({1: rel_a, 2: rel_b}, {1: rel_b, 3: rel_a})
        if table != oracle:
            lines = (f"table  -> {format_graded(table)}", f"oracle -> {format_graded(oracle)}")
            mismatches += mismatch(i, "smash({1: A, 2: B}, {1: B, 3: A})", *shown, *lines)
        for name, rel in (("A", rel_a), ("B", rel_b)):
            modular = invariant_factors(rel)
            d = snf(rel).d
            exact = [x for x in d.entries[:: d.cols + 1][: min(d.rows, d.cols)] if x]
            if modular != exact:
                lines = (f"{name} = {rel.to_rows()}", f"modular -> {modular}", f"snf     -> {exact}")
                mismatches += mismatch(i, f"invariant factors of {name}", *lines)
        k, l = random_graded(graded_rng), random_graded(graded_rng)
        checked = graded_order_leq(k, l).checked
        for side in (k, l):
            profile = [value for _, value in family_readings(dimension_profile(side), checked)]
            homology = [homology_with_coefficients(side, g).min_degree() for g in checked]
            if profile != homology:
                lines = (f"K = {format_graded(k)}", f"L = {format_graded(l)}",
                         f"profile  -> {[str(v) for v in profile]}", f"homology -> {[str(v) for v in homology]}")
                mismatches += mismatch(i, f"leqgr dimensions of {format_graded(side)}", *lines)
        if cfg.report_every and i % cfg.report_every == 0:
            rate = i / (time.perf_counter() - start)
            print(f"{i}/{cfg.pairs} pairs, {rate:.0f}/s, {mismatches} mismatches", flush=True)

    elapsed = time.perf_counter() - start
    print(f"done: {cfg.pairs} pairs in {elapsed:.1f}s, {mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
