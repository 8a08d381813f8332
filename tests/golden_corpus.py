"""Golden records: what the package answers on every problem of the benchmark corpora.

One record per problem of `perfbench/workloads.py`'s corpora at
`corpus_size(workload, 10)`: `roots`, `eigen` and `pgcd` at seeds 101 and 7,
and `cli` at seeds 0, 1 and 7, 984 problems in all.  A solver's record holds
the `str` of each of its outputs (each item's, for a list) and the oracle
verdicts; a CLI call's record holds its exit code and stdout, made in
process.  The oracle's floats in that stdout are kept as the CLI prints
them, by `repr`, so the records pin them to the last digit.

`tests/test_golden_corpus.py` compares the records with the current code.
A change that means to alter an output regenerates them, from the
repository root, and says so where it records its changes to check data:

    PYTHONPATH=src python tests/golden_corpus.py
"""

from __future__ import annotations

import gzip
import importlib.util
import json
from pathlib import Path

RECORDS = Path(__file__).with_name("golden_corpus.jsonl.gz")
SEEDS = {"roots": (101, 7), "eigen": (101, 7), "pgcd": (101, 7), "cli": (0, 1, 7)}


def _load_workloads():
    """perfbench/workloads.py, loaded read-only as the benchmark's own tests load it."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


def _text(value):
    """An output as the records keep it: ints and strings as they are, else by str."""
    if isinstance(value, list):
        return [str(item) for item in value]
    return value if isinstance(value, (int, str)) else str(value)


def build(workload: str, seed: int):
    """The records of one corpus, from the current code, in problem order."""
    problems = workloads.corpus(workload, seed, workloads.corpus_size(workload, 10))
    for problem in problems:
        outputs, verdicts = workloads.SOLVERS[workload](problem)
        yield {
            "workload": workload,
            "seed": seed,
            "id": problem["id"],
            "outputs": {key: _text(value) for key, value in outputs.items()},
            "verdicts": verdicts,
        }


def load(workload: str, seed: int) -> list[dict]:
    """The committed records of one corpus, in problem order."""
    with gzip.open(RECORDS, "rt", encoding="utf-8") as lines:
        records = [json.loads(line) for line in lines]
    return [r for r in records if r["workload"] == workload and r["seed"] == seed]


def main() -> None:
    lines = [
        json.dumps(record, sort_keys=True)
        for workload, seeds in SEEDS.items()
        for seed in seeds
        for record in build(workload, seed)
    ]
    # mtime 0, so the same records always compress to the same bytes
    RECORDS.write_bytes(gzip.compress(("\n".join(lines) + "\n").encode(), mtime=0))
    print(f"{len(lines)} records written to {RECORDS}")


if __name__ == "__main__":
    main()
