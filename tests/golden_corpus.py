"""Golden records: what the package answers on every problem of the benchmark corpora.

One record per problem of `perfbench/workloads.py`'s corpora at
`corpus_size(workload, 10)`: `roots`, `eigen` and `pgcd` at seeds 101 and 7,
and `cli` at seeds 0, 1 and 7, 984 problems in all.  A solver's record holds
the `str` of each of its outputs (each item's, for a list) and the oracle
verdicts; a CLI call's record holds its exit code and stdout, made in
process.  The oracle's floats in that stdout are kept as the CLI prints
them, by `repr`, so the records pin them to the last digit.  The records
of the failing CLI calls in `ERROR_CALLS` hold their exit code, stdout and
stderr, also made in process.

`tests/test_golden_corpus.py` compares the records with the current code.
A change that means to alter an output regenerates them, from the
repository root, and says so where it records its changes to check data:

    PYTHONPATH=src python tests/golden_corpus.py
"""

from __future__ import annotations

import contextlib
import gzip
import importlib.util
import io
import json
from pathlib import Path

RECORDS = Path(__file__).with_name("golden_corpus.jsonl.gz")
SEEDS = {"roots": (101, 7), "eigen": (101, 7), "pgcd": (101, 7), "cli": (0, 1, 7)}
ORDER_17 = json.dumps({"base": [["0"] * 17] * 17})
# one CLI call per way to fail: a parse error, a domain error, an oracle refusal
ERROR_CALLS = (
    ("roots", "--base", "X^2 - 2*X +", "--pert=-t", "--root", "1"),
    ("pgcd", "--p1", "X^2 $ 1", "--p2", "X"),
    ("roots", "--base", "X^2 - 1", "--pert=-t", "--root", "2"),
    ("roots", "--base", "X^2 - 1", "--pert=-t", "--root", "e1"),
    ("charpoly", "--matrix", '{"base":[["e2"]]}'),
    ("charpoly", "--matrix", ORDER_17),
    ("eigshift", "--matrix", '{"base":[["1"]]}', "--eigenvalue", "1"),
    ("pgcd", "--p1", "X^2", "--p2", "(1+t)*X + 1", "--trunc", "1600"),
    ("verify", "--case", "refute-half"),
    # at a subnormal t0 the stop bound of X^3 - t0 underflows to 0, so Aberth never stops
    ("verify", "--case", "nilpotent3", "--grid", "1e-310"),
    ("verify", "--case", "jordan2", "--grid", "0.5"),
    ("verify", "--case", "jordan2", "--grid", "abc"),
    ("verify", "--case", "nope"),
)


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


def build_error(argv) -> dict:
    """The record of one failing CLI call, from the current code."""
    from perturbalg import cli

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.run(list(argv))
    return {
        "workload": "errors",
        "argv": list(argv),
        "code": code,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(),
    }


def _committed() -> list[dict]:
    with gzip.open(RECORDS, "rt", encoding="utf-8") as lines:
        return [json.loads(line) for line in lines]


def load(workload: str, seed: int) -> list[dict]:
    """The committed records of one corpus, in problem order."""
    return [r for r in _committed() if r["workload"] == workload and r.get("seed") == seed]


def load_errors() -> list[dict]:
    """The committed records of the failing CLI calls, in the order of ERROR_CALLS."""
    return [r for r in _committed() if r["workload"] == "errors"]


def main() -> None:
    records = [
        record
        for workload, seeds in SEEDS.items()
        for seed in seeds
        for record in build(workload, seed)
    ]
    records += [build_error(argv) for argv in ERROR_CALLS]
    lines = [json.dumps(record, sort_keys=True) for record in records]
    # mtime 0, so the same records always compress to the same bytes
    RECORDS.write_bytes(gzip.compress(("\n".join(lines) + "\n").encode(), mtime=0))
    print(f"{len(lines)} records written to {RECORDS}")


if __name__ == "__main__":
    main()
