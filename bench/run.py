#!/usr/bin/env python3
"""extcalc benchmark runner.

Run from the repository root (any directory works; paths are resolved from
this file):

    python3 bench/run.py --workload calculus_mix --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload calculus_mix --seed 1 --seconds 25 --trace 1
    python3 bench/run.py --workload all --seed 1 --seconds 25

One process runs one workload as a closed loop with a single caller.  The
untraced run (--trace 0) reports the end-to-end metrics; the traced run
(--trace 1) runs a fixed pass of operations untraced, traced and untraced
again, and reports the per-layer metrics.  Every operation's outcome is checked outside
the timed span.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the full result, and in a traced run
the spans, go to .bench_out/ in the repository root.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
from array import array  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402  (stdlib only; the modules that import extcalc load after the path is set)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("calculus_mix", "wide_groups", "snf_oracle", "cli_cold")
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170

END_TO_END = {
    "throughput_ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SNF_BUCKETS = (5, 10, 15, 20, 25)
PER_LAYER = {
    "primes.isprime.calls": "count",
    "primes.nextprime.calls": "count",
    "primes.factorint.calls": "count",
    "primes.self_s": "s",
    "cli.import_s": "s",
    "cli.import_sympy_s": "s",
    "cli.parser_build_s": "s",
    "cli.run_command_ms": "ms",
    "cli.process_overhead_ms": "ms",
    "abelian.from_counts.calls": "count",
    "abelian.add.calls": "count",
    "abelian.canon.self_s": "s",
    "abelian.tensor.calls": "count",
    "abelian.tor.calls": "count",
    "abelian.atom_pairs": "count",
    "abelian.tables.self_s": "s",
    "abelian.sigma.calls": "count",
    "abelian.sigma.self_s": "s",
    "abelian.sigma.child_builds": "count",
    "abelian.sigma.nonzero_ratio": "ratio",
    "abelian.tau_closure.calls": "count",
    "graded.hcoef.calls": "count",
    "graded.smash.calls": "count",
    "graded.pairing.calls": "count",
    "graded.self_s": "s",
    "graded.leqgr.calls": "count",
    "graded.leqgr.family_size": "count",
    "graded.leqgr.dims_per_call": "count",
    "bockstein.coef_dimension.calls": "count",
    "bockstein.witness.calls": "count",
    "bockstein.witness.accept_ratio": "ratio",
    "bockstein.self_s": "s",
    "exttype.spaek.calls": "count",
    "exttype.classify.calls": "count",
    "exttype.self_s": "s",
    "presentation.snf.calls": "count",
    "presentation.invariant_factors.calls": "count",
    "presentation.self_s": "s",
    **{f"presentation.snf.p50_ms.n{n}": "ms" for n in SNF_BUCKETS},
    "presentation.transform_digits.max": "digits",
    **{f"presentation.transform_digits.n{n}": "digits" for n in SNF_BUCKETS},
    "presentation.factor_digits.max": "digits",
    "dsl.parse.calls": "count",
    "dsl.parse.self_s": "s",
    "dsl.format.self_s": "s",
    "dsl.input_chars_per_s": "chars/s",
    "dsl.adds_per_parse": "count",
    "trace.overhead_ratio": "ratio",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description="extcalc benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# Provenance.


def provenance(args) -> dict:
    from importlib import metadata

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    source = hashlib.sha1()
    for path in sorted((SRC / "extcalc").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "sympy": metadata.version("sympy"),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": commit,
        "source_sha1": source.hexdigest(),
    }


# ---------------------------------------------------------------------------
# Running and checking operations.


class Ledger:
    """Outcome bookkeeping for one run: every op is attempted once and
    counted as failed when any check on it fails.  A failure is `unexpected`
    unless it is a workload's known defect; any unexpected failure makes the
    run incorrect."""

    def __init__(self, wl, reference):
        self.wl = wl
        self.reference = reference
        self.attempted = 0
        self.failed = []
        self.unexpected = 0
        self.reference_checked = 0
        self._seen = {}

    def record(self, op, value, exc):
        self.attempted += 1
        repeat = self.wl.cycle and op.key in self._seen
        try:
            outcome = self.wl.judge_error(op, exc) if exc is not None else self.wl.judge(op, value, full=not repeat)
            text, wrong, errors, known = outcome.text, list(outcome.wrong), outcome.errors, outcome.known
        except Exception as err:  # the checker itself could not read the answer
            text, wrong, errors, known = "unreadable", [f"checker raised {type(err).__name__}: {err}"[:300]], [], ""
        mark = checks.digest(op.kind, text)
        if not errors:
            if repeat and self._seen[op.key] != mark:
                wrong.append("outcome differs from an earlier run of the same operation")
            if self.reference is not None and op.key < len(self.reference):
                self.reference_checked += 1
                if self.reference[op.key] != mark:
                    wrong.append("outcome differs from the recorded reference")
        if self.wl.cycle:
            self._seen.setdefault(op.key, mark)
        if wrong or errors:
            known = "" if wrong else known
            self.unexpected += not known
            entry = {"op": self.attempted - 1, "key": op.key, "kind": op.kind, "problems": wrong + errors, **describe(op)}
            self.failed.append({**entry, "known_defect": known} if known else entry)


def describe(op) -> dict:
    if "argv" in op.meta:
        return {"argv": [a if len(a) <= 80 else a[:77] + "..." for a in op.meta["argv"]]}
    if "n" in op.meta:
        return {"n": op.meta["n"]}
    return {}


def timed(op):
    start = time.perf_counter()
    try:
        value, exc = op.call(), None
    except Exception as err:  # counted and judged by the ledger
        value, exc = None, err
    return time.perf_counter() - start, value, exc


def tail(samples):
    """The highest percentile that still has at least 10 samples beyond it:
    the 11th largest sample, with its percentile rank."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


# Machine-speed calibration.  On the shared machine the baseline was taken
# on, the same code runs up to 1.6x slower for seconds to minutes at a time
# (process CPU time slows as much as wall time, so the core itself is
# slower).  A fixed yardstick, timed between operations at least every
# `every_s`, tracks that, and every end-to-end timing is scaled to the
# yardstick's reference time: an operation's latency is multiplied by the
# reference over the mean of the calibrations just before and after it.
# In-process workloads use a pure-Python loop; cli_cold, whose operations
# are whole processes, uses a reference process (the loop, run in the
# parent, does not track how fast a fresh interpreter starts and imports).
# Raw timings go to the result file.
CAL_LOOP = 20000
CAL_REFERENCE_S = 0.0015
CAL_EVERY_S = 0.05
CLI_CAL_REFERENCE_S = 0.2
CLI_CAL_EVERY_S = 1.0


def calibration_s() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(CAL_LOOP):
        total += i * i
    return time.perf_counter() - start


class Calibration:
    def __init__(self, measure=calibration_s, reference_s=CAL_REFERENCE_S, every_s=CAL_EVERY_S):
        self.measure, self.reference_s, self.every_s = measure, reference_s, every_s
        self.samples = [measure()]
        self._last = time.perf_counter()

    def tick(self, force: bool = False) -> int:
        """Take a sample when one is due; the index of the latest sample."""
        if force or time.perf_counter() - self._last >= self.every_s:
            self.samples.append(self.measure())
            self._last = time.perf_counter()
        return len(self.samples) - 1

    def scale(self, k: int) -> float:
        after = self.samples[min(k + 1, len(self.samples) - 1)]
        return self.reference_s / ((self.samples[k] + after) / 2)


def calibration_for(wl) -> Calibration:
    if wl.name == "cli_cold":
        return Calibration(wl.reference_process_s, CLI_CAL_REFERENCE_S, CLI_CAL_EVERY_S)
    return Calibration()


def calibrated_setup_s() -> float:
    """Seconds since this process started, scaled like the operations."""
    elapsed = time.perf_counter() - T0
    return elapsed * CAL_REFERENCE_S / statistics.median(calibration_s() for _ in range(5))


def setup(args):
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed)
    reference = checks.load_reference(args.workload, args.seed)
    wl.warm_up()
    return wl, reference


def setup_sample(args) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed), "--setup-only"],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def untraced_run(args) -> dict:
    wl, reference = setup(args)
    ledger = Ledger(wl, reference)
    # flat arrays keep the benchmark's own memory out of peak_rss_mb as runs get longer
    raw, marks = array("d"), array("i")
    setup_s = calibrated_setup_s()
    clock = calibration_for(wl)
    pass_start = time.perf_counter()
    deadline = pass_start + args.seconds
    i = 0
    while True:
        op = wl.op(i)
        marks.append(clock.tick())
        dt, value, exc = timed(op)
        raw.append(dt)
        ledger.record(op, value, exc)
        i += 1
        now = time.perf_counter()
        if not wl.cycle:
            if now >= deadline:
                break
        elif i % wl.reference_ops == 0:
            # Whole passes only, so every run measures the same mix; stop
            # when another pass like the last would overrun the deadline.
            if now + (now - pass_start) > deadline:
                break
            pass_start = now
    clock.tick(force=True)
    latencies = array("d", (dt * clock.scale(k) for dt, k in zip(raw, marks)))
    who = resource.RUSAGE_CHILDREN if wl.name == "cli_cold" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    setup_samples = [setup_s] + [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
    if wl.cycle:
        # A run repeats a fixed pass a speed-dependent number of times, so the
        # tail is taken per pass (same sample count every time) and the
        # median over passes is reported.
        size = wl.reference_ops
        per_pass = [tail(latencies[k : k + size]) for k in range(0, len(latencies), size)]
        tail_ms, tail_pct = statistics.median(t for t, _ in per_pass), per_pass[0][1]
        tail_samples = size
    else:
        (tail_ms, tail_pct), tail_samples = tail(latencies), len(latencies)
    values = {
        "throughput_ops_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_tail_ms": 1000 * tail_ms,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
    }
    return {
        "ledger": ledger,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()},
        "details": {
            "samples": len(latencies),
            "passes": len(latencies) // wl.reference_ops if wl.cycle else None,
            "tail_samples": tail_samples,
            "tail_percentile": tail_pct,
            "samples_beyond_tail": min(10, tail_samples - 1),
            "setup_samples_s": setup_samples,
            "busy_s": sum(raw),
            "raw_throughput_ops_s": len(raw) / sum(raw),
            "raw_latency_p50_ms": 1000 * statistics.median(raw),
            "calibration_ms": {
                "yardstick": "reference process" if wl.name == "cli_cold" else "pure-Python loop",
                "reference": 1000 * clock.reference_s,
                "median": 1000 * statistics.median(clock.samples),
                "min": 1000 * min(clock.samples),
                "max": 1000 * max(clock.samples),
                "samples": len(clock.samples),
            },
            "failed_frac": len(ledger.failed) / ledger.attempted,
        },
    }


# ---------------------------------------------------------------------------
# The traced run.


def traced_run(args) -> dict:
    import tracer as tracing

    wl, reference = setup(args)
    ledger = Ledger(wl, reference)
    cli_cold = wl.name == "cli_cold"
    make = wl.in_process_op if cli_cold else wl.op
    ops = [make(i) for i in range(wl.trace_ops)]

    def untraced_pass():
        times = []
        for op in ops:
            dt, value, exc = timed(op)
            times.append(dt)
            ledger.record(op, value, exc)
        return times

    # The first pass pays one-time costs (sympy extends its prime sieve, for
    # one), so the overhead ratio compares the traced pass with a later one.
    untraced_pass()
    tr = tracing.Tracer()
    tr.install()
    traced = []
    try:
        for i, op in enumerate(ops):
            start = time.perf_counter()
            try:
                value, exc = tr.call(i, op.kind, op.call), None
            except Exception as err:  # counted and judged by the ledger
                value, exc = None, err
            traced.append(time.perf_counter() - start)
            ledger.record(op, value, exc)
    finally:
        tr.uninstall()
    untraced = untraced_pass()

    metrics, absent, shares = layer_metrics(wl, ops, tr)
    metrics["trace.overhead_ratio"] = sum(untraced) / sum(traced)

    imports = [tracing.import_times(sys.executable, str(SRC), dict(os.environ)) for _ in range(3)]
    metrics["cli.import_s"] = statistics.median(t[0] for t in imports)
    metrics["cli.import_sympy_s"] = statistics.median(t[1] for t in imports)
    from extcalc import cli

    builds = []
    for _ in range(21):
        start = time.perf_counter()
        cli.build_parser()
        builds.append(time.perf_counter() - start)
    metrics["cli.parser_build_s"] = statistics.median(builds)
    if cli_cold:
        in_process = statistics.median(untraced)
        processes = []
        for i in range(wl.trace_ops):
            op = wl.op(i)
            dt, value, exc = timed(op)
            processes.append(dt)
            ledger.record(op, value, exc)
        metrics["cli.run_command_ms"] = 1000 * in_process
        metrics["cli.process_overhead_ms"] = 1000 * (statistics.median(processes) - in_process)
    else:
        for name in ("cli.run_command_ms", "cli.process_overhead_ms"):
            metrics[name] = 0.0
            absent[name] = "only the cli_cold workload runs CLI commands"

    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{wl.name}-seed{args.seed}.tsv.gz"
    tr.write(spans)
    return {
        "ledger": ledger,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in PER_LAYER.items()},
        "details": {
            "trace_ops": wl.trace_ops,
            "spans": len(tr.start),
            "spans_file": str(spans.relative_to(ROOT)),
            "absent": absent,
            "self_share": shares,
            "untraced_pass_s": sum(untraced),
            "traced_pass_s": sum(traced),
        },
    }


def layer_metrics(wl, ops, tr):
    calls, total, self_s = tr.summary()
    counters = tr.counters
    m, absent = {}, {}

    def ratio(name, num, den, why):
        m[name] = num / den if den else 0.0
        if not den:
            absent[name] = why

    def self_of(*names):
        return sum(self_s[n] for n in names)

    def layer_self(prefix):
        return sum(v for n, v in self_s.items() if n.startswith(prefix + "."))

    for fn in ("isprime", "nextprime", "factorint"):
        m[f"primes.{fn}.calls"] = calls[f"primes.{fn}"]
    m["primes.self_s"] = layer_self("primes")

    group = "abelian.AdmissibleGroup."
    m["abelian.from_counts.calls"] = calls[group + "from_counts"]
    m["abelian.add.calls"] = calls[group + "__add__"]
    m["abelian.canon.self_s"] = self_s[group + "from_counts"]
    m["abelian.tensor.calls"] = calls[group + "tensor"]
    m["abelian.tor.calls"] = calls[group + "tor"]
    m["abelian.atom_pairs"] = counters["abelian.atom_pairs"]
    m["abelian.tables.self_s"] = self_of(group + "tensor", group + "tor")
    m["abelian.sigma.calls"] = calls["abelian.sigma"]
    m["abelian.sigma.self_s"] = self_s["abelian.sigma"]
    m["abelian.sigma.child_builds"] = counters["abelian.sigma.child_builds"]
    ratio("abelian.sigma.nonzero_ratio", counters["abelian.sigma.nonzero_builds"], counters["abelian.sigma.child_builds"], "no sigma calls")
    m["abelian.tau_closure.calls"] = calls["abelian.tau_closure"]

    m["graded.hcoef.calls"] = calls["graded.homology_with_coefficients"]
    m["graded.smash.calls"] = calls["graded.smash"]
    m["graded.pairing.calls"] = calls["graded.pairing"]
    m["graded.self_s"] = layer_self("graded")
    leqgr = calls["graded.graded_order_leq"]
    m["graded.leqgr.calls"] = leqgr
    ratio("graded.leqgr.family_size", counters["graded.leqgr.family"], leqgr, "no graded_order_leq calls")
    ratio("graded.leqgr.dims_per_call", counters["graded.leqgr.dims"], leqgr, "no graded_order_leq calls")

    m["bockstein.coef_dimension.calls"] = calls["bockstein.coef_dimension"]
    witness = ("bockstein.infinite_gap_witness", "bockstein.unit_gap_witness")
    tried = sum(calls[w] for w in witness)
    m["bockstein.witness.calls"] = tried
    ratio("bockstein.witness.accept_ratio", tried - sum(counters[w + ".raised"] for w in witness), tried, "no witness calls")
    m["bockstein.self_s"] = layer_self("bockstein")
    m["exttype.spaek.calls"] = calls["exttype.sp_factors_as_em"]
    m["exttype.classify.calls"] = calls["exttype.classify_finite_type"]
    m["exttype.self_s"] = layer_self("exttype")

    m["presentation.snf.calls"] = calls["presentation.snf"]
    m["presentation.invariant_factors.calls"] = calls["presentation.invariant_factors"]
    m["presentation.self_s"] = layer_self("presentation")
    by_bucket: dict[int, list[float]] = {}
    for request, duration in tr.durations("presentation.snf"):
        by_bucket.setdefault(ops[request].meta.get("n"), []).append(duration)
    transform = Counter()
    for op in ops:
        if "transform_digits" in op.meta:
            transform[op.meta["n"]] = max(transform[op.meta["n"]], op.meta["transform_digits"])
    for n in SNF_BUCKETS:
        name = f"presentation.snf.p50_ms.n{n}"
        m[name] = 1000 * statistics.median(by_bucket[n]) if by_bucket.get(n) else 0.0
        m[f"presentation.transform_digits.n{n}"] = transform[n]
        if not by_bucket.get(n):
            absent[name] = absent[f"presentation.transform_digits.n{n}"] = f"no snf calls on {n}x{n} matrices"
    m["presentation.transform_digits.max"] = max(transform.values(), default=0)
    m["presentation.factor_digits.max"] = max((op.meta.get("factor_digits", 0) for op in ops), default=0)
    if not transform:
        absent["presentation.transform_digits.max"] = "no snf calls"
    if not m["presentation.factor_digits.max"]:
        absent["presentation.factor_digits.max"] = "no snf or invariant_factors calls"

    parses = ("dsl.parse_group", "dsl.parse_graded")
    parse_calls = sum(calls[n] for n in parses)
    m["dsl.parse.calls"] = parse_calls
    m["dsl.parse.self_s"] = self_of(*parses)
    m["dsl.format.self_s"] = self_of("dsl.format_group", "dsl.format_graded", "dsl.format_sigma")
    ratio("dsl.input_chars_per_s", counters["dsl.input_chars"], sum(total[n] for n in parses), "no parse calls")
    ratio("dsl.adds_per_parse", counters["dsl.parse_adds"], parse_calls, "no parse calls")

    layers = Counter()
    for name, v in self_s.items():
        layers[name.split(".")[0]] += v
    whole = sum(layers.values())
    shares = {layer: v / whole for layer, v in sorted(layers.items())} if whole else {}
    return m, absent, shares


# ---------------------------------------------------------------------------
# Output.


def report(args, result) -> dict:
    ledger = result["ledger"]
    details = result["details"]
    prov = provenance(args)
    prov.update(
        attempted=ledger.attempted,
        reference="none recorded for this seed" if ledger.reference is None else f"{ledger.reference_checked} outcomes compared",
    )
    print(f"extcalc benchmark: workload {args.workload}, seed {args.seed}, {'traced' if args.trace else 'untraced'}")
    for name, metric in result["metrics"].items():
        extra = ""
        if name == "latency_tail_ms":
            extra = f"  (p{details['tail_percentile']:.3f}: {details['samples_beyond_tail']} of {details['tail_samples']} samples beyond"
            extra += f"; median of {details['passes']} passes)" if details["passes"] else ")"
        if name in details.get("absent", {}):
            extra = f"  (absent: {details['absent'][name]})"
        print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}{extra}")
    if not args.trace:
        print(f"  {'failed_frac':<40} {details['failed_frac']:>16.6g} ratio  ({len(ledger.failed)} of {ledger.attempted} operations)")
    else:
        shares = ", ".join(f"{k} {v:.1%}" for k, v in details["self_share"].items())
        print(f"  self-time shares: {shares}")
    for f in ledger.failed[:20]:
        known = f" [{f['known_defect']}]" if "known_defect" in f else ""
        print(f"  FAILED op {f['op']} ({f['kind']}){known}: {'; '.join(f['problems'])} {json.dumps({k: v for k, v in f.items() if k in ('argv', 'n')})}")
    if len(ledger.failed) > 20:
        print(f"  ... {len(ledger.failed) - 20} more failed operations in the result file")
    summary = summarize(ledger, result["metrics"])
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**summary, "provenance": prov, "details": details, "failed_ops": ledger.failed}, indent=1))
    print("provenance: " + json.dumps(prov))
    print(json.dumps(summary))
    return summary


def summarize(ledger, metrics) -> dict:
    """The result object: correct unless some failure is not a known defect."""
    return {
        "correct": ledger.unexpected == 0,
        "attempted": ledger.attempted,
        "failed": len(ledger.failed),
        "metrics": metrics,
    }


def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        one = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= one["correct"]
        combined["attempted"] += one["attempted"]
        combined["failed"] += one["failed"]
        for metric, value in one["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "extcalc" / "__init__.py").is_file():
        print(f"error: no extcalc source tree at {SRC / 'extcalc'}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        setup(args)
        print(calibrated_setup_s())
        return 0
    report(args, traced_run(args) if args.trace else untraced_run(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
