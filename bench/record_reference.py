#!/usr/bin/env python3
"""Record the reference outcome digests of committed seeds.

    python3 bench/record_reference.py --workload snf_oracle --seeds 0-10

For every operation index below the workload's ``reference_ops`` the outcome
is computed untimed, checked by the same cross-route checks as a run, and
its canonical text is digested into bench/reference/<workload>.txt.  CLI
outcomes are recorded in-process through ``extcalc.cli.run_command`` with
Python's int-to-str digit limit lifted, so the reference holds the answer a
correct command prints even where the real process crashes on that limit.
Recording refuses a seed on which any check fails.
"""

import argparse
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def outcomes(wl):
    for i in range(wl.reference_ops):
        op = wl.op(i)
        if isinstance(wl, workloads.CliCold):
            with checks.unlimited_int_text():
                value = workloads.run_cli_in_process(op.meta["argv"])
            yield op, wl.judge(op, value)
            continue
        try:
            value = op.call()
        except Exception as exc:  # judged like any run
            yield op, wl.judge_error(op, exc)
            continue
        yield op, wl.judge(op, value)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seeds", required=True, help="a seed or an inclusive range such as 0-10")
    args = p.parse_args()
    for seed in seed_range(args.seeds):
        wl = workloads.WORKLOADS[args.workload](seed)
        digests = []
        for op, outcome in outcomes(wl):
            if outcome.wrong or outcome.errors:
                print(f"seed {seed} op {op.key} ({op.kind}): {outcome.wrong + outcome.errors}", file=sys.stderr)
                return 1
            digests.append(checks.digest(op.kind, outcome.text))
        checks.save_reference(args.workload, seed, digests)
        print(f"{args.workload} seed {seed}: {len(digests)} outcomes recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
