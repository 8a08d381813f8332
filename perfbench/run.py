"""Benchmark of perturbalg on four seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload eigen --seed 1 --seconds 10 --trace 0

``--workload`` takes one name, a comma-separated list or ``all``; each
workload of a list runs in a process of its own.  With ``--trace 0`` a run
reports the end-to-end metrics of each workload; with ``--trace 1`` it
reports the per-layer metrics of a traced pass.  Each workload's block of
output ends with one JSON line holding ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md in this directory for the
workloads, the metrics and how they relate.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import references
import workloads
from tracer import LAYERS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_REPEATS = 15
SPLIT_REPEATS = 7
CLI_TIMEOUT_S = 60
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# CPU seconds of one `calibration()` on the reference host (see README.md)
CALIBRATION_SECONDS = 0.004

END_TO_END_UNITS = {
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "correct_ratio": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def children_cpu() -> float:
    """CPU seconds used so far by the child processes that have been waited for."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def spawn(argv) -> tuple[subprocess.CompletedProcess, float]:
    """Run `argv` to its end: (completed process, CPU seconds it used)."""
    before = children_cpu()
    completed = subprocess.run(
        argv, capture_output=True, text=True, env=_env(), timeout=CLI_TIMEOUT_S
    )
    return completed, children_cpu() - before


def spawn_ready(argv) -> float:
    """CPU seconds of a command that prints `ready` as its last act."""
    completed, seconds = spawn(argv)
    if completed.returncode != 0 or completed.stdout.strip() != "ready":
        raise RuntimeError(f"{argv[1:3]} exited {completed.returncode} before it was ready")
    return seconds


def run_cli_subprocess(problem: dict):
    completed, _ = spawn([sys.executable, "-m", "perturbalg", *problem["argv"]])
    verdicts = ["pass" if completed.returncode == 0 else "fail"] if problem["is_verify"] else []
    return {"code": completed.returncode, "stdout": completed.stdout}, verdicts


def calibration() -> float:
    """CPU seconds of a fixed task in plain Python: a truncated product of two
    sparse bivariate series with Fraction coefficients, the kind of work the
    package's exact layers do, but none of the package's code.

    One runs after every timed problem.  The processor a shared host lends
    this process runs faster or slower by tens of percent over seconds, and
    the task slows with it; timings are scaled by CALIBRATION_SECONDS over
    its time, to the reference host's speed.
    """
    start = time.process_time()
    a = {(i, j): Fraction(i + 1, j + 2) for i in range(7) for j in range(7)}
    b = {(i, j): Fraction(j - 3, i + 5) for i in range(7) for j in range(7)}
    product = {}
    for (i1, j1), x in a.items():
        for (i2, j2), y in b.items():
            if i1 + i2 + j1 + j2 <= 9:
                key = (i1 + i2, j1 + j2)
                product[key] = product.get(key, 0) + x * y
    return time.process_time() - start


def timed_pass(problems, solve, clock, tracer=None):
    """Run every problem once, each followed by a calibration.

    Returns (latencies, calibrations, results).  `clock` reads CPU seconds:
    `time.process_time` for problems solved in this process, `children_cpu`
    for problems solved by a subprocess.
    """
    latencies, calibrations, results = [], [], []
    for problem in problems:
        if tracer is not None:
            tracer.problem = problem["id"]
        start = clock()
        try:
            outputs, verdicts = solve(problem)
            error = None
        except Exception as exc:  # a library failure is a failed problem, not a crash
            outputs, verdicts, error = None, [], f"{type(exc).__name__}: {exc}"
        latencies.append(clock() - start)
        calibrations.append(calibration())
        results.append((outputs, verdicts, error))
    return latencies, calibrations, results


def harrell_davis(values, percentile: float) -> float:
    """Harrell-Davis estimate of a percentile: a Beta-weighted mean of every
    order statistic.  Costs inside one problem shape vary several-fold with
    the drawn values, so a single order statistic moves from seed to seed
    more than this weighted mean does.
    """
    import mpmath

    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * percentile / 100, (n + 1) * (1 - percentile / 100)
    edges = [float(mpmath.betainc(a, b, 0, k / n, regularized=True)) for k in range(n + 1)]
    return sum(x * (hi - lo) for x, lo, hi in zip(ordered, edges, edges[1:]))


def host_scaled(latencies, calibrations, cycle: int) -> list[float]:
    """Latencies at the reference host's speed, scaled cycle by cycle."""
    scaled = []
    for k in range(0, len(latencies), cycle):
        factor = CALIBRATION_SECONDS * len(calibrations[k:k + cycle]) / sum(calibrations[k:k + cycle])
        scaled.extend(latency * factor for latency in latencies[k:k + cycle])
    return scaled


def tail_percentile(count: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it."""
    for percentile in TAIL_LADDER:
        if count * (1 - percentile / 100) >= 10:
            return percentile
    return 50.0


def check_results(workload, problems, results) -> list[tuple[int, str]]:
    """(problem id, finding) for every error or wrong output."""
    failures = []
    for problem, (outputs, _, error) in zip(problems, results):
        if error is not None:
            failures.append((problem["id"], error))
            continue
        if workload == "cli":
            expected = workloads.run_cli_inprocess(problem["argv"])
            findings = references.check_cli(problem, outputs, expected)
        else:
            findings = references.CHECKS[workload](problem, outputs)
        failures.extend((problem["id"], finding) for finding in findings)
    return failures


def _verdict_counts(results) -> tuple[int, int]:
    verdicts = [v for _, outcome, _ in results for v in outcome]
    return sum(v == "pass" for v in verdicts), len(verdicts)


# -- end-to-end run ----------------------------------------------------------------------


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    problems = workloads.corpus(workload, seed, workloads.corpus_size(workload, seconds))
    workloads.SOLVERS[workload](workloads.warmup_problem(workload, seed))
    if workload == "cli":
        raw, calibrations, results = timed_pass(problems, run_cli_subprocess, children_cpu)
        # nothing else has been spawned yet: this is the largest CLI process
        peak_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        raw, calibrations, results = timed_pass(problems, workloads.SOLVERS[workload], time.process_time)
        # read before the references import numpy and mpmath
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    cycle = workloads.CYCLE[workload]
    latencies = host_scaled(raw, calibrations, cycle)
    probe = [sys.executable, str(BENCH_DIR / "probe.py"), workload, str(seed)]
    setup, setup_calibrations = [], []
    for _ in range(SETUP_REPEATS):
        setup.append(spawn_ready(probe))
        setup_calibrations.append(calibration())
    setup_s = statistics.median(host_scaled(setup, setup_calibrations, SETUP_REPEATS))
    failures = check_results(workload, problems, results)
    failed = len({pid for pid, _ in failures})
    passed, claims = _verdict_counts(results)
    percentile = tail_percentile(len(latencies))
    rank = math.ceil(percentile / 100 * len(latencies))
    metrics = {
        "throughput_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": harrell_davis(latencies, 50) * 1e3,
        "latency_tail_ms": harrell_davis(latencies, percentile) * 1e3,
        "correct_ratio": 1 - failed / len(problems),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_kb / 1024,
    }
    notes = {
        "latency_tail_ms": f"p{percentile:g} of {len(latencies)} samples, "
        f"{len(latencies) - rank} beyond it (Harrell-Davis)",
        "correct_ratio": f"fail_ratio {failed / len(problems):.4g} ({failed}/{len(problems)}); "
        f"verified_ratio {passed / claims:.4g} ({passed}/{claims} claims)",
        "throughput_per_s": f"unscaled {len(raw) / sum(raw):.4g}/s, host speed "
        f"{CALIBRATION_SECONDS / statistics.median(calibrations):.3g}x the reference",
        "setup_s": f"median of {SETUP_REPEATS} fresh interpreters",
    }
    if workload == "cli":
        notes["peak_rss_mb"] = "largest CLI subprocess"
    return {
        "problems": problems,
        "failures": failures,
        "metrics": {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()},
        "notes": notes,
    }


# -- traced run ----------------------------------------------------------------------------


def _calls(tracer, *names) -> int:
    return sum(tracer.calls[name] for name in names)


def _layer_calls(tracer, layer: str) -> int:
    return sum(count for name, count in tracer.calls.items() if name.startswith(f"{layer}:"))


def layer_metrics(tracer, traced_s: float, plain_s: float) -> dict:
    counts = tracer.counts
    pairs = counts["series.mul_term_pairs"]
    out = {
        "scalars.mul_calls": _calls(tracer, "scalars:GaussianRational.__mul__", "scalars:GaussianRational.__rmul__"),
        "scalars.add_calls": _calls(
            tracer,
            "scalars:GaussianRational.__add__",
            "scalars:GaussianRational.__radd__",
            "scalars:GaussianRational.__sub__",
            "scalars:GaussianRational.__rsub__",
        ),
        "scalars.div_calls": _calls(tracer, "scalars:GaussianRational.__truediv__", "scalars:GaussianRational.__rtruediv__"),
        "series.mul_calls": _calls(tracer, "series:TruncatedSeries.__mul__", "series:TruncatedSeries.__rmul__"),
        "series.mul_term_pairs": pairs,
        "series.mul_useful_ratio": counts["series.mul_useful_pairs"] / pairs if pairs else 0.0,
        "series.invert_calls": _calls(tracer, "series:TruncatedSeries.invert"),
        "series.divide_calls": _calls(tracer, "series:divide_univariate"),
        "matrices.char_poly_calls": _calls(tracer, "matrices:char_poly"),
        "matrices.minor_sum_calls": _calls(tracer, "matrices:minor_sum"),
        "matrices.polarize_calls": _calls(tracer, "matrices:polarize"),
        "ppoly.euclid_calls": _calls(tracer, "ppoly:euclid_divide"),
        "ppoly.pgcd_calls": _calls(tracer, "ppoly:pgcd"),
        "ppoly.root_claims": counts["ppoly.root_claims"],
        "transfer.simplify_calls": _calls(tracer, "transfer:simplify"),
        "goze.decompose_calls": _calls(tracer, "goze:decompose"),
        "goze.levels": counts["goze.levels"],
        "exactpoly.calls": _layer_calls(tracer, "exactpoly"),
        "oracle.roots_calls": _calls(tracer, "oracle:poly_roots_numeric"),
        "oracle.roots_noconv": counts["oracle.roots_noconv"],
        "oracle.verify_calls": _calls(
            tracer,
            "oracle:verify_root_asymptotics",
            "oracle:verify_quadratic_balance",
            "oracle:verify_pgcd",
        ),
        "oracle.verify_pass": counts["oracle.verify_pass"],
        "oracle.verify_fail": counts["oracle.verify_fail"],
        "oracle.inconclusive": counts["oracle.inconclusive"],
        "oracle.verify_error": counts["oracle.verify_error"],
        "parsing.calls": _layer_calls(tracer, "parsing"),
    }
    units = {name: "count" for name in out}
    units["series.mul_useful_ratio"] = "ratio"
    for layer, seconds in tracer.self_times().items():
        out[f"{layer}.self_s"] = seconds
        units[f"{layer}.self_s"] = "s"
    out["trace.overhead_ratio"] = traced_s / plain_s
    units["trace.overhead_ratio"] = "ratio"
    out["trace.spans"] = len(tracer.span_name)
    units["trace.spans"] = "count"
    return {name: (value, units[name]) for name, value in out.items()}


def cli_split(workload: str, problems, warmup) -> dict:
    """Interpreter start, package import and the rest of one CLI invocation,
    in CPU seconds.  The three spawns alternate, so a burst of load on the
    host lands on all of them alike.
    """
    bare = [sys.executable, "-c", "print('ready')"]
    importing = [sys.executable, "-c", "import perturbalg, perturbalg.cli; print('ready')"]
    if workload == "cli":
        calls = problems[: workloads.CYCLE["cli"]]
    else:
        calls = [{"argv": workloads.cli_argv(workload, warmup)}] * SPLIT_REPEATS
    interpreter, imported, invocation = [], [], []
    for call in calls:
        interpreter.append(spawn_ready(bare))
        imported.append(spawn_ready(importing))
        completed, seconds = spawn([sys.executable, "-m", "perturbalg", *call["argv"]])
        if completed.returncode not in (0, 3):
            raise RuntimeError(f"CLI call exited {completed.returncode}")
        invocation.append(seconds)
    interpreter_s = statistics.median(interpreter)
    imported_s = statistics.median(imported)
    return {
        "cli.interpreter_s": (interpreter_s, "s"),
        "cli.import_s": (imported_s - interpreter_s, "s"),
        "cli.run_s": (statistics.median(invocation) - imported_s, "s"),
    }


def traced(workload: str, seed: int, seconds: float) -> dict:
    # The corpus of half the seconds is a prefix of the end-to-end corpus of
    # the same seed; solving it untraced and then traced keeps a traced run
    # about as long as an end-to-end one.
    problems = workloads.corpus(workload, seed, workloads.corpus_size(workload, seconds / 2))
    warmup = workloads.warmup_problem(workload, seed)
    solve = workloads.SOLVERS[workload]
    solve(warmup)
    plain = timed_pass(problems, solve, time.process_time)
    tracer = Tracer()
    tracer.install()
    try:
        traced_pass = timed_pass(problems, solve, time.process_time, tracer)
    finally:
        tracer.uninstall()
    plain_s, traced_s = (sum(host_scaled(*run[:2], len(problems))) for run in (plain, traced_pass))
    results = traced_pass[2]
    metrics = layer_metrics(tracer, traced_s, plain_s)
    passed, claims = _verdict_counts(results)
    metrics["oracle.verified_ratio"] = (passed / claims, "ratio")
    metrics.update(cli_split(workload, problems, warmup))
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload}.npz", {"workload": workload, "seed": seed})
    failures = check_results(workload, problems, results)
    return {"problems": problems, "failures": failures, "metrics": metrics, "notes": {}}


# -- command -------------------------------------------------------------------------------


def report(workload: str, seed: int, trace: bool, outcome: dict) -> None:
    problems, failures = outcome["problems"], outcome["failures"]
    failed = len({pid for pid, _ in failures})
    mode = "traced per-layer run" if trace else "end-to-end run"
    print(f"== {workload} (seed {seed}, {len(problems)} problems, {mode})")
    for name, (value, unit) in outcome["metrics"].items():
        note = outcome["notes"].get(name)
        print(f"  {name:26s} {value:14.6g} {unit:6s}" + (f"  [{note}]" if note else ""))
    for pid, finding in failures[:20]:
        print(f"  WRONG problem {pid}: {finding}")
    result = {
        "correct": failed == 0,
        "attempted": len(problems),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome["metrics"].items()
        },
    }
    print(json.dumps(result), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="name, comma list, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "perturbalg" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'perturbalg'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import perturbalg

    if Path(perturbalg.__file__).resolve().parent != SRC / "perturbalg":
        print(f"error: imported perturbalg from {perturbalg.__file__}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else args.workload.split(",")
    unknown = [name for name in names if name not in workloads.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {workloads.WORKLOADS}")
    if len(names) > 1:
        # a process of its own per workload, so that each reads its own peak RSS
        for name in names:
            argv = [__file__, "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
            code = subprocess.run([sys.executable, *argv]).returncode
            if code:
                return code
        return 0
    run = traced if args.trace else end_to_end
    report(names[0], args.seed, bool(args.trace), run(names[0], args.seed, args.seconds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
