"""The README's examples run as written, so the docs cannot drift from the code."""

import re
import shlex
from pathlib import Path

from perturbalg.cli import run

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _readme_commands() -> list:
    """The argv of each `perturbalg ...` line of the README's sh blocks, `\\` lines joined."""
    text = "".join(re.findall(r"```sh\n(.*?)```", README, re.S)).replace("\\\n", " ")
    return [shlex.split(line)[1:] for line in text.splitlines() if line.startswith("perturbalg ")]


def test_readme_examples_run():
    commands = _readme_commands()
    assert [argv[0] for argv in commands] == [
        "pgcd", "roots", "goze", "charpoly", "eigshift", "conservative", "orbitdim",
        "hermitian", "simplify-tf", "verify",
    ]
    for argv in commands:
        assert run(argv) == 0, argv
    (tour,) = re.findall(r"## Library quick tour\n\n```python\n(.*?)```", README, re.S)
    exec(compile(tour, "README.md", "exec"), {})
