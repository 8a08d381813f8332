"""The benchmark harness's entry points, exercised as its warm-up does.

`perfbench/probe.py` and `perfbench/run.py` solve each workload's warm-up
problem outside any error handling, so a renamed or removed entry point, or
a changed return shape, ends the benchmark run.  These tests load
`perfbench/workloads.py` and `perfbench/references.py` read-only and solve
that problem through the same `SOLVERS` table, then check the outputs with
the benchmark's own references, and hold the oracle to converging on them.
The oracle is also held to passing no wrong claim built from the corpora.
"""

import dataclasses
import importlib.util
from fractions import Fraction
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


def _corpus_claims(workload, seed):
    """(base, Xi, claim) for each root claim on the corpus, built without the oracle."""
    from perturbalg import goze, matrices, parsing, ppoly
    from perturbalg.errors import DegenerateError

    for problem in workloads.corpus(workload, seed, workloads.corpus_size(workload, 10)):
        if workload == "eigen":
            matrix = parsing.parse_matrix_json(problem["text"], workloads.EIGEN_TRUNC)
            base, xi = matrices.char_poly(matrix.base), matrices.perturbation_poly(matrix)
            for claim in ppoly.dominant_balance(base, xi, problem["target"]):
                yield base, xi, claim
            continue
        ring = parsing.ring_for(problem["xi"], truncation=workloads.ROOTS_TRUNC)
        base = parsing.parse_polynomial(problem["base"], ring, "X").shadow()
        xi = parsing.parse_polynomial(problem["xi"], ring, "X")
        decomposition = goze.decompose(list(xi.coeffs))
        for root, _ in problem["roots"]:
            try:
                yield base, xi, ppoly.root_correction(base, xi, root, decomposition=decomposition)
            except DegenerateError:
                for claim in ppoly.dominant_balance(base, xi, root):
                    yield base, xi, claim


@pytest.mark.parametrize("seed", [101, 7])
def test_root_claims_read_the_same_from_built_and_lazy_levels(seed):
    # the golden records print each claim, which omits its leading_level
    from perturbalg import goze, parsing, ppoly
    from perturbalg.errors import DegenerateError

    claims = 0
    for problem in workloads.corpus("roots", seed, workloads.corpus_size("roots", 10)):
        ring = parsing.ring_for(problem["xi"], truncation=workloads.ROOTS_TRUNC)
        base = parsing.parse_polynomial(problem["base"], ring, "X").shadow()
        xi = parsing.parse_polynomial(problem["xi"], ring, "X")
        lazy, built = goze.decompose(list(xi.coeffs)), goze.decompose(list(xi.coeffs))
        assert built.levels
        for root, _ in problem["roots"]:
            try:
                first = ppoly.root_correction(base, xi, root, decomposition=lazy)
            except DegenerateError:
                continue
            second = ppoly.root_correction(base, xi, root, decomposition=built)
            assert (first.rhs, first.leading_level) == (second.rhs, second.leading_level)
            claims += 1
    assert claims > 1000


def _wrong_right_hand_sides(base, xi, claim):
    """The claim's rhs doubled, negated and divided by 1000, and zero where that is wrong.

    The zero-prediction rule accepts |xi^q| <= 10 * t0^2 from the q smallest
    shifts of the cluster, so a zero rhs is refutable only for a claim on the
    whole cluster whose rhs exceeds twice that bound at every grid point.
    """
    from perturbalg import oracle

    yield from (claim.rhs * 2, -claim.rhs, claim.rhs * Fraction(1, 1000))
    samples = (
        claim.rhs.numeric_sample(oracle.default_values(xi.ring.generators, t0))
        for t0 in workloads.ORACLE_GRID
    )
    if claim.order == base.multiplicity(claim.base_root) and all(
        abs(value) > 20 * t0 * t0 for value, t0 in zip(samples, workloads.ORACLE_GRID)
    ):
        yield claim.rhs * 0


@pytest.mark.parametrize("workload, wrong_claims", [("roots", 9974), ("eigen", 320)])
def test_no_wrong_claim_on_the_corpora_passes(workload, wrong_claims):
    from perturbalg import oracle
    from perturbalg.ppoly import RootAsymptotics

    passed, count = [], 0
    for seed in (101, 7):
        for base, xi, claim in _corpus_claims(workload, seed):
            if not isinstance(claim, RootAsymptotics) or claim.rhs.is_zero():
                continue
            for rhs in _wrong_right_hand_sides(base, xi, claim):
                wrong = dataclasses.replace(claim, rhs=rhs)
                count += 1
                if workloads._oracle(
                    lambda: oracle.verify_root_asymptotics(base, xi, wrong, workloads.ORACLE_GRID)
                ) == "pass":
                    passed.append((seed, str(base), str(xi), str(wrong.rhs)))
    assert passed == [] and count == wrong_claims
