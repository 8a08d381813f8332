"""The package depends only on the standard library (see the README)."""

import ast
import importlib
import re
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


def test_names_the_benchmark_counts_exist():
    # perfbench counts calls by "module:qualname"; a name that no longer
    # exists would silently count 0
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    layers = {path.stem for path in PACKAGE_DIR.glob("*.py")}
    names = set()
    for source in ("run.py", "tracer.py"):
        text = (bench / source).read_text(encoding="utf-8")
        for module, qualname in re.findall(r'"([a-z]+):([A-Za-z_][\w.]*)"', text):
            if module in layers:
                names.add((module, qualname))
    assert len(names) >= 25
    for module, qualname in sorted(names):
        owner = importlib.import_module(f"perturbalg.{module}")
        for attribute in qualname.split("."):
            assert hasattr(owner, attribute), f"{module}:{qualname}"
            owner = getattr(owner, attribute)


def test_names_the_benchmark_imports_exist():
    # perfbench imports package names and reads attributes of package modules
    # (`from perturbalg import ppoly`, then `ppoly.dominant_balance`); a name
    # that no longer exists would break the benchmark, not a test
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    layers = {path.stem for path in PACKAGE_DIR.glob("*.py")}
    names = {}  # (module, attribute path or "") -> the file that uses it
    for path in sorted(bench.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        modules = {}  # local name -> package module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("perturbalg"):
                for alias in node.names:
                    if node.module == "perturbalg" and alias.name in layers:
                        modules[alias.asname or alias.name] = f"perturbalg.{alias.name}"
                    else:
                        names[(node.module, alias.name)] = path.name
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.split(".")[0] == "perturbalg":
                        names[(alias.name, "")] = path.name
        for node in ast.walk(tree):
            chain = []
            while isinstance(node, ast.Attribute):
                chain.append(node.attr)
                node = node.value
            if isinstance(node, ast.Name) and node.id in modules:
                names[(modules[node.id], ".".join(reversed(chain)))] = path.name
    assert len(names) >= 20
    for (module, qualname), source in sorted(names.items()):
        owner = importlib.import_module(module)
        for attribute in filter(None, qualname.split(".")):
            assert hasattr(owner, attribute), f"{source}: {module}.{qualname}"
            owner = getattr(owner, attribute)


# float evaluation belongs to the oracle; an exact layer only samples itself
SAMPLERS = {"numeric_sample", "numeric_coeffs", "__complex__"}


def parsed_modules():
    """(file name, syntax tree, node -> innermost enclosing function name) per module."""
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        enclosing = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for inner in ast.walk(node):
                    if inner is not node:
                        enclosing[inner] = node.name
        yield path.name, tree, enclosing


def test_only_samplers_build_complex_values_outside_the_oracle():
    builders = {}
    for name, tree, enclosing in parsed_modules():
        if name == "oracle.py":
            continue
        for node in ast.walk(tree):
            builds = (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "complex"
            ) or (isinstance(node, ast.Constant) and isinstance(node.value, complex))
            if builds and enclosing.get(node) not in SAMPLERS:
                builders[f"{name}:{node.lineno}"] = enclosing.get(node, "<module>")
    assert builders == {}


# a scalar is the integer triple (a, b, d): only scalars.py, whose one
# formatter serves every printer, reads its Fraction parts, and scalars.py and
# series.py build a Fraction only for those views
FRACTION_VIEWS = {"re", "im", "norm2"}


def test_scalar_parts_are_read_only_for_printing():
    readers, builders = {}, {}
    for name, tree, enclosing in parsed_modules():
        for node in ast.walk(tree):
            where = f"{name}:{getattr(node, 'lineno', 0)}"
            function = enclosing.get(node, "<module>")
            reads = isinstance(node, ast.Attribute) and node.attr in ("re", "im")
            if reads and name != "scalars.py":
                readers[where] = function
            builds = (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "Fraction"
            )
            if builds and name in ("scalars.py", "series.py") and function not in FRACTION_VIEWS:
                builders[where] = function
    assert readers == {}
    assert builders == {}


# the row format of a series is known to series.py and to the parser, which
# builds values in it; every other layer reaches the rows through
# sum_of_products and the series operators
ROW_KERNEL = {"_mul_rows", "_scaled", "_sum_rows", "_reduced_rows", "_from_ints"}


def test_only_series_and_parsing_import_the_row_kernel():
    importers = {}
    for name, tree, _ in parsed_modules():
        if name in ("series.py", "parsing.py"):
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                used = ROW_KERNEL.intersection(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                used = ROW_KERNEL.intersection((node.attr,))
            else:
                continue
            if used:
                importers.setdefault(name, set()).update(used)
    assert importers == {}


# a merge of rows that can cancel is series._mul_rows' one loop, a sum
# included: the package deletes an entry from a map in one place
def test_only_the_row_product_deletes_a_cancelled_entry():
    deleters = []
    for name, tree, enclosing in parsed_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Delete) and any(
                isinstance(target, ast.Subscript) for target in node.targets
            ):
                deleters.append(f"{name[:-3]}.{enclosing.get(node, '<module>')}")
    assert deleters == ["series._mul_rows"]


# transfer is the top of the exact layers: the CLI and the package's
# namespace use it, and no layer below reads a simplification report
def test_only_the_cli_and_the_package_import_transfer():
    importers = set()
    for name, tree, _ in parsed_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level and node.module == "transfer":
                importers.add(name)
    assert importers == {"cli.py", "__init__.py"}


# `terms` is the exponent-tuple view of a series' rows, built on each read for
# the tests and the benchmark; every first-order read goes through
# series._leading_ratios, and the printers and `specialize` read the rows
def test_no_package_module_reads_the_terms_view():
    readers = {}
    for name, tree, enclosing in parsed_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "terms":
                readers[f"{name}:{node.lineno}"] = enclosing.get(node, "<module>")
    assert readers == {}


# a value is its canonical form: equality, hashing and pickling read the slots
# its constructor set, so nothing writes one later; the one exception is the
# characteristic polynomial a perturbed matrix keeps, which char_poly sets (an
# exact matrix keeps none)
SLOT_WRITERS = {"series.py:_of_rows", "scalars.py:_of", "matrices.py:char_poly"}


def test_only_constructors_write_slots():
    writers = set()
    for name, tree, enclosing in parsed_modules():
        # the module's aliases of a slot's setter, `_set_x = Class.x.__set__`
        setters = {
            target.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "__set__"
            for target in node.targets
            if isinstance(target, ast.Name)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            writes = (isinstance(func, ast.Name) and func.id in setters) or (
                isinstance(func, ast.Attribute) and func.attr in ("__set__", "__setattr__")
            )
            function = enclosing.get(node, "<module>")
            if writes and function != "__init__":
                writers.add(f"{name}:{function}")
    assert writers == SLOT_WRITERS


def test_only_the_immutable_base_guards_attributes():
    # every immutable value refuses to set or delete an attribute by one rule,
    # scalars._Immutable's
    guards = set()
    for name, tree, _ in parsed_modules():
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    defined = {item.name}
                elif isinstance(item, ast.Assign):
                    defined = {target.id for target in item.targets if isinstance(target, ast.Name)}
                else:
                    continue
                if defined & {"__setattr__", "__delattr__"}:
                    guards.add(f"{name}:{node.name}")
    assert guards == {"scalars.py:_Immutable"}


# a memo kept for the life of the process makes a result depend on what was
# computed before it; the one such memo is the token scan of the last texts
def test_only_the_token_scan_is_a_process_wide_memo():
    memos = set()
    for name, tree, enclosing in parsed_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                if {"lru_cache", "cache"} & {alias.name for alias in node.names}:
                    memos.add(f"{name}:<from functools import>")
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in ("lru_cache", "cache")
                and isinstance(node.value, ast.Name)
                and node.value.id == "functools"
            ):
                memos.add(f"{name}:{enclosing.get(node, '<module>')}")
    assert memos == {"parsing.py:_scan"}


# char_poly(A) is the shadow of char_poly(A + E), so no reader of a perturbed
# matrix runs a second Berkowitz pass on its base
def test_no_package_module_takes_the_char_poly_of_a_base():
    callers = {}
    for name, tree, enclosing in parsed_modules():
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            func, first = node.func, node.args[0]
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called == "char_poly" and isinstance(first, ast.Attribute) and first.attr == "base":
                callers[f"{name}:{node.lineno}"] = enclosing.get(node, "<module>")
    assert callers == {}


# a root claim reads m, c_m and c_0..c_{m-1} in one Newton-polygon pass, so
# in ppoly only _newton_polygon takes the Taylor coefficients at a root
def test_only_the_newton_polygon_reads_taylor_coefficients_in_ppoly():
    readers = set()
    for name, tree, enclosing in parsed_modules():
        if name != "ppoly.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "taylor_coefficients":
                readers.add(enclosing.get(node, "<module>"))
    assert readers == {"_newton_polygon"}


# the parser's product budget is charged where a product is weighed: one
# function adds to the running count and compares it with the bound, so a
# product of rows and a product of values cost alike
def test_the_parser_charges_its_product_budget_in_one_function():
    chargers = set()
    for name, tree, enclosing in parsed_modules():
        for node in ast.walk(tree):
            adds = (
                isinstance(node, ast.AugAssign)
                and isinstance(node.target, ast.Attribute)
                and node.target.attr == "pairs"
            )
            bounds = isinstance(node, ast.Compare) and any(
                (isinstance(operand, ast.Name) and operand.id == "MAX_PRODUCT_PAIRS")
                or (isinstance(operand, ast.Attribute) and operand.attr == "MAX_PRODUCT_PAIRS")
                for operand in [node.left, *node.comparators]
            )
            if adds or bounds:
                chargers.add(f"{name}:{enclosing.get(node, '<module>')}")
    assert chargers == {"parsing.py:_charge"}


# a Goze level is built only where one is read: the `goze` command decomposes,
# and xi_first_order reads alpha_1 as E's first pivot without building a level
def test_only_the_cli_calls_decompose():
    callers = {}
    for name, tree, enclosing in parsed_modules():
        if name == "cli.py":
            continue
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if called == "decompose":
                callers[f"{name}:{node.lineno}"] = enclosing.get(node, "<module>")
    assert callers == {}
