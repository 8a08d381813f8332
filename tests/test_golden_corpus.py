"""The current code answers every problem of the golden records as they say.

The records (see `golden_corpus.py`) hold the printed outputs, verdicts and
CLI results of 984 problems of the benchmark corpora, and the exit code,
stdout and stderr of each failing CLI call of `ERROR_CALLS`.  A change that
keeps its outputs byte-identical passes unchanged; the first problem that
differs is printed with both texts.
"""

import json

import golden_corpus
import pytest


@pytest.mark.parametrize(
    "workload, seed",
    [(workload, seed) for workload, seeds in golden_corpus.SEEDS.items() for seed in seeds],
)
def test_outputs_match_the_golden_records(workload, seed):
    recorded = golden_corpus.load(workload, seed)
    current = list(golden_corpus.build(workload, seed))
    assert len(recorded) == len(current) == golden_corpus.workloads.corpus_size(workload, 10)
    for old, new in zip(recorded, current):
        if old != new:
            pytest.fail(
                f"{workload} at seed {seed}, problem {old['id']}, differs\n"
                f"recorded: {json.dumps(old, indent=1, sort_keys=True)}\n"
                f"current:  {json.dumps(new, indent=1, sort_keys=True)}",
                pytrace=False,
            )


def test_failing_calls_match_the_golden_records():
    recorded = golden_corpus.load_errors()
    assert [r["argv"] for r in recorded] == [list(argv) for argv in golden_corpus.ERROR_CALLS]
    for old in recorded:
        new = golden_corpus.build_error(old["argv"])
        assert new == old, old["argv"]
