"""The package depends only on the standard library (see the README)."""

import ast
import sys
from pathlib import Path

import perturbalg

PACKAGE_DIR = Path(perturbalg.__file__).parent


def imported_roots(tree):
    """Top-level names of absolute imports; relative imports give the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                yield "perturbalg"
            else:
                yield node.module.split(".")[0]


def test_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE_DIR.rglob("*.py"))
    assert len(modules) >= 13
    outside = {}
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for name in imported_roots(tree):
            if name != "perturbalg" and name not in sys.stdlib_module_names:
                outside.setdefault(path.name, []).append(name)
    assert outside == {}
