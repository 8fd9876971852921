#!/usr/bin/env python3
"""Soak test for pairs of independent computation routes.

Random presentation matrices feed both the closed-form atom tables and the
Smith-normal-form oracle, and each matrix feeds both reductions inside the
oracle: the invariant factors read modulo a maximal minor, and the diagonal
of the exact Smith form with its transforms.  The same two groups feed both
routes to a graded answer: `smash({1: A, 2: B}, {1: B, 3: A})` in one pass
over the atom tables, and `smash_by_presentations`, the sums of the oracle's
tensor products in degree i + j and Tor groups in degree i + j + 1.  On the
same finitely generated groups, `pairing({1: A, 2: B}, {1: B, 3: A})` and the
homology of {1: A, 2: B} with coefficients B meet `kunneth_by_chains`, the
homology by SNF of a tensor product of free complexes.  Random graded pairs
feed both routes to the dimension order: `leqgr`'s verdict, family and
witness, read from sigma, against `graded_order_leq_by_homology`, which reads
each family member's dimension off full homology groups that the atom tables
build, and the public dimension profiles against those homology groups too.
A random signed pair feeds `vanish`, read from sigma, and
`vanishing_by_smash`, which builds both orders of the smash.  The matrices
and graded groups come from the generators of `tests/oracles.py`.  Any
disagreement is printed with enough detail to reproduce and the run exits
nonzero.
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
    pairing,
    smash,
    snf,
    tensor_from_presentations,
    tor_from_presentations,
    vanishing_check,
)
from extcalc.graded import _reflect
from oracles import (
    family_readings, graded_order_leq_by_homology, kunneth_by_chains, random_graded, random_matrix, signed_graded,
    smash_by_presentations, vanishing_by_smash,
)


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
    graded_rng, signed_rng = random.Random(f"{cfg.seed}:graded"), random.Random(f"{cfg.seed}:signed")
    start = time.perf_counter()
    mismatches, by_chains, by_groups = 0, {"pairing": 0, "hcoef": 0}, {"leqgr": 0, "vanish": 0}
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
        x, k = GradedGroup({1: a, 2: b}), GradedGroup({1: b, 3: a})
        checks = [
            ("smash({1: A, 2: B}, {1: B, 3: A})", smash(x, k),
             smash_by_presentations({1: rel_a, 2: rel_b}, {1: rel_b, 3: rel_a})),
            ("pairing({1: A, 2: B}, {1: B, 3: A})", pairing(x, k)[0], kunneth_by_chains(_reflect(x), k)),
        ]
        by_chains["pairing"] += 1
        if not b.is_trivial:
            checks.append(("hcoef({1: A, 2: B}, B)", homology_with_coefficients(x, b),
                           kunneth_by_chains(x, GradedGroup({0: b}))))
            by_chains["hcoef"] += 1
        for what, table, oracle in checks:
            if table != oracle:
                lines = (f"table  -> {format_graded(table)}", f"oracle -> {format_graded(oracle)}")
                mismatches += mismatch(i, what, *shown, *lines)
        for name, rel in (("A", rel_a), ("B", rel_b)):
            modular = invariant_factors(rel)
            d = snf(rel).d
            exact = [x for x in d.entries[:: d.cols + 1][: min(d.rows, d.cols)] if x]
            if modular != exact:
                lines = (f"{name} = {rel.to_rows()}", f"modular -> {modular}", f"snf     -> {exact}")
                mismatches += mismatch(i, f"invariant factors of {name}", *lines)
        k, l = random_graded(graded_rng), random_graded(graded_rng)
        named = (f"K = {format_graded(k)}", f"L = {format_graded(l)}")
        verdict, oracle = graded_order_leq(k, l), graded_order_leq_by_homology(k, l)
        by_groups["leqgr"] += 1
        if verdict != oracle:
            mismatches += mismatch(i, "leqgr(K, L)", *named, f"sigma    -> {verdict}", f"homology -> {oracle}")
        for side in (k, l):
            profile = [value for _, value in family_readings(dimension_profile(side), verdict.checked)]
            homology = [homology_with_coefficients(side, g).min_degree() for g in verdict.checked]
            if profile != homology:
                lines = (f"profile  -> {[str(v) for v in profile]}", f"homology -> {[str(v) for v in homology]}")
                mismatches += mismatch(i, f"leqgr dimensions of {format_graded(side)}", *named, *lines)
        x, c, m = signed_graded(signed_rng), signed_graded(signed_rng), signed_rng.randint(-6, 8)
        statements, oracle = vanishing_check(x, c, m), vanishing_by_smash(x, c, m)
        by_groups["vanish"] += 1
        if statements != oracle:
            lines = (f"X = {format_graded(x)}", f"K = {format_graded(c)}", f"m = {m}")
            mismatches += mismatch(i, "vanish(X, K, m)", *lines, f"sigma -> {statements}", f"smash -> {oracle}")
        if cfg.report_every and i % cfg.report_every == 0:
            rate = i / (time.perf_counter() - start)
            print(f"{i}/{cfg.pairs} pairs, {rate:.0f}/s, {mismatches} mismatches", flush=True)

    elapsed = time.perf_counter() - start
    counts = ", ".join(f"{n} {name}" for name, n in by_chains.items())
    print(f"done: {cfg.pairs} pairs in {elapsed:.1f}s, {mismatches} mismatches; Kunneth by chains on {counts}; "
          f"leqgr by homology on {by_groups['leqgr']}, vanish by smash on {by_groups['vanish']}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    raise SystemExit(main())
