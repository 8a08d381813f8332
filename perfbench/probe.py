"""Child process timed by ``run.py`` for ``setup_s``.

It imports ``perturbalg`` and ``perturbalg.cli``, runs the workload's
warm-up problem and prints ``ready``; the parent stops its clock at that
line.  Usage: ``python3 perfbench/probe.py <workload> <seed>``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import perturbalg  # noqa: E402,F401
import perturbalg.cli  # noqa: E402,F401
import workloads  # noqa: E402

if __name__ == "__main__":
    workload, seed = sys.argv[1], int(sys.argv[2])
    workloads.SOLVERS[workload](workloads.warmup_problem(workload, seed))
    print("ready", flush=True)
