"""Self-tests of the benchmark.

Run from the repository root (takes about two minutes):

    python3 -m pytest -q perfbench/selftest.py

They cover a tiny run of every workload, the metric names and units against
BENCHMARK.json, every checker catching a tampered answer, and seeded
determinism of the inputs and of the per-layer counts.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import references  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
TINY = 0.1  # seconds: one cycle of problem shapes per workload
SEED = 3


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def workload(request):
    return request.param


@pytest.fixture(scope="module")
def end_to_end_runs():
    """The result line of the command, run once per workload in a process of its own."""
    results = {}
    for name in workloads.WORKLOADS:
        completed = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
             "--seed", str(SEED), "--seconds", str(TINY), "--trace", "0"],
            capture_output=True, text=True, check=True, cwd=BENCH_DIR.parent,
        )
        results[name] = json.loads(completed.stdout.strip().splitlines()[-1])
    return results


@pytest.fixture(scope="module")
def traced_runs():
    return {name: run.traced(name, SEED, TINY) for name in workloads.WORKLOADS}


def _solved(name, seed=SEED):
    problems = workloads.corpus(name, seed, workloads.corpus_size(name, TINY))
    return [(problem, workloads.SOLVERS[name](problem)[0]) for problem in problems]


# -- smoke runs and metric names -------------------------------------------------------


def test_smoke_end_to_end(workload, end_to_end_runs):
    result = end_to_end_runs[workload]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == workloads.CYCLE[workload]


def test_end_to_end_metrics_named_with_units(workload, end_to_end_runs):
    metrics = end_to_end_runs[workload]["metrics"]
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: metric["unit"] for name, metric in metrics.items()} == expected
    assert all(metric["value"] > 0 for metric in metrics.values())


def test_per_layer_metrics_named_with_units(workload, traced_runs):
    outcome = traced_runs[workload]
    assert outcome["failures"] == []
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {name: unit for name, (_, unit) in outcome["metrics"].items()} == expected


def test_dominant_layers(traced_runs):
    def share(name, layer):
        metrics = traced_runs[name]["metrics"]
        total = sum(metrics[f"{other}.self_s"][0] for other in tracer.LAYERS)
        return metrics[f"{layer}.self_s"][0] / total

    assert share("eigen", "matrices") + share("eigen", "series") + share("eigen", "scalars") > 0.5
    assert share("pgcd", "series") + share("pgcd", "scalars") > 0.5
    assert traced_runs["pgcd"]["metrics"]["matrices.char_poly_calls"][0] == 0
    roots_shares = {layer: share("roots", layer) for layer in tracer.LAYERS}
    assert max(roots_shares, key=roots_shares.get) == "oracle"
    cli = traced_runs["cli"]["metrics"]
    start = cli["cli.interpreter_s"][0] + cli["cli.import_s"][0]
    assert start > cli["cli.run_s"][0]


# -- checkers catch tampered answers -----------------------------------------------------


def test_eigen_checker_catches_wrong_char_poly():
    problem, outputs = _solved("eigen")[0]
    assert references.check_eigen(problem, outputs) == []
    tampered = dict(outputs, charpoly=outputs["charpoly"] + 1)
    assert references.check_eigen(problem, tampered)


def test_pgcd_checker_catches_wrong_divisor_and_reduction():
    from perturbalg.exactpoly import ExactRationalFunction

    problem, outputs = _solved("pgcd")[0]
    assert references.check_pgcd(problem, outputs) == []
    assert references.check_pgcd(problem, dict(outputs, pgcd=outputs["pgcd"] + 1))
    reduced = outputs["reduced"]
    swapped = ExactRationalFunction(reduced.den, reduced.num)
    assert references.check_pgcd(problem, dict(outputs, reduced=swapped))


def test_roots_checker_catches_wrong_claim():
    problem, outputs = next(
        (p, o) for p, o in _solved("roots")
        if any(hasattr(c, "rhs") and not c.rhs.is_zero() for c in o["claims"])
    )
    assert references.check_roots(problem, outputs) == []
    claims = list(outputs["claims"])
    index = next(i for i, c in enumerate(claims) if hasattr(c, "rhs") and not c.rhs.is_zero())
    claims[index] = dataclasses.replace(claims[index], rhs=claims[index].rhs * 2)
    assert references.check_roots(problem, dict(outputs, claims=claims))


def test_cli_checker_catches_wrong_output_and_exit_code():
    problem = workloads.corpus("cli", SEED, workloads.CYCLE["cli"])[0]
    outputs, _ = run.run_cli_subprocess(problem)
    expected = workloads.run_cli_inprocess(problem["argv"])
    assert references.check_cli(problem, outputs, expected) == []
    payload = json.loads(outputs["stdout"])
    payload["tampered"] = True
    assert references.check_cli(problem, dict(outputs, stdout=json.dumps(payload)), expected)
    assert references.check_cli(problem, dict(outputs, code=outputs["code"] + 1), expected)


# -- determinism -------------------------------------------------------------------------


def test_same_seed_same_inputs(workload):
    size = workloads.corpus_size(workload, 10)
    assert workloads.corpus(workload, 11, size) == workloads.corpus(workload, 11, size)
    assert workloads.corpus(workload, 11, size) != workloads.corpus(workload, 12, size)


def _counts(outcome):
    return {
        name: value
        for name, (value, unit) in outcome["metrics"].items()
        if unit == "count" or name in ("series.mul_useful_ratio", "oracle.verified_ratio")
    }


def test_same_seed_same_layer_counts(workload, traced_runs):
    again = run.traced(workload, SEED, TINY)
    assert _counts(again) == _counts(traced_runs[workload])
