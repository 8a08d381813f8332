"""The benchmark harness's entry points, exercised as its warm-up does.

`perfbench/probe.py` and `perfbench/run.py` solve each workload's warm-up
problem outside any error handling, so a renamed or removed entry point, or
a changed return shape, ends the benchmark run.  These tests load
`perfbench/workloads.py` and `perfbench/references.py` read-only and solve
that problem through the same `SOLVERS` table, then check the outputs with
the benchmark's own references, and hold the oracle to converging on them.
"""

import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
references = _load("references")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_warmup_problem_solves_and_checks(workload):
    problem = workloads.warmup_problem(workload, 1)
    outputs, verdicts = workloads.SOLVERS[workload](problem)
    assert all(v in ("pass", "fail", "inconclusive", "error") for v in verdicts)
    if workload == "cli":
        expected = workloads.run_cli_inprocess(problem["argv"])
        findings = references.check_cli(problem, outputs, expected)
    else:
        findings = references.CHECKS[workload](problem, outputs)
    assert findings == []


@pytest.mark.parametrize("workload", ["eigen", "pgcd", "roots"])
def test_warmup_problem_oracle_converges(workload):
    _, verdicts = workloads.SOLVERS[workload](workloads.warmup_problem(workload, 1))
    assert "error" not in verdicts, verdicts
