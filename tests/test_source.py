"""Source-level checks on the radonnets package."""

import ast
from collections import Counter
from pathlib import Path
from typing import Iterator

import radonnets

SOURCES = sorted(Path(radonnets.__file__).parent.rglob("*.py"))


def test_library_has_no_assertions():
    """`assert` vanishes under `python -O`, and an AssertionError escapes
    the CLI's error handling as a traceback; library code raises
    `ConsistencyError` or `ValueError` instead."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno}: raise AssertionError")
            elif isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}: assert")
    assert SOURCES
    assert found == []


def test_integer_measure_tables_stay_in_space():
    """`Distribution` owns its integer weights and tables; other modules
    measure through `Distribution.mass`."""
    found = []
    for path in SOURCES:
        if path.name == "space.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
            if name in ("weight_tables", "masked_sum"):
                found.append(f"{path.name}:{node.lineno}: {name}")
    assert found == []


def test_library_imports_are_used():
    """Every name a module imports is referenced in it; `__init__.py`,
    which imports to re-export, is exempt."""
    found = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        found.append(f"{path.name}:{node.lineno}: {name}")
    assert SOURCES
    assert found == []


def test_generators_build_through_the_closure():
    """Every generator but the power set, whose every subset is convex,
    returns the intersection closure of its half-spaces rather than
    assembling a family itself."""
    path = Path(radonnets.__file__).parent / "generators.py"
    found = []
    for func in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(func, ast.FunctionDef) or func.name == "power_set_space":
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                callee = ast.unparse(node.func)
                if callee in ("ConvexitySpace", "ConvexFamily.from_masks"):
                    found.append(f"{func.name}:{node.lineno}: {callee}")
    assert found == []


def test_library_has_no_recursive_closures():
    """No function in the library calls itself.  A search that recursed
    once per vertex, point or member would let the recursion limit and the
    caller's stack decide whether it answers, and a nested function that
    calls itself also holds a reference cycle through its closure; the
    searches are loops over an explicit stack instead."""
    found = set()
    for path in SOURCES:
        for func in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(func, ast.FunctionDef):
                continue
            calls = {ast.unparse(n.func) for n in ast.walk(func) if isinstance(n, ast.Call)}
            if calls & {func.name, f"self.{func.name}", f"cls.{func.name}"}:
                found.add(f"{path.stem}.{func.name}")
    assert SOURCES
    assert found == set()


def test_one_home_for_the_size_ceiling_and_the_eps_rule():
    """One `TooLarge`, in `space.py`, for every size ceiling, and the eps
    range check written out only there, in `check_eps`.  No library file
    reads the interpreter's recursion limit or names `check_depth`: the
    net build's level ceiling is a constant written only in `nets.py`."""
    ceilings, eps_rule, limit_reads, level_ceiling = [], [], [], []
    for path in SOURCES:
        text = path.read_text()
        for node in ast.walk(ast.parse(text, str(path))):
            if isinstance(node, ast.ClassDef) and node.name.endswith("TooLarge"):
                ceilings.append(f"{path.name}:{node.name}")
        if "0 < eps <= 1" in text:
            eps_rule.append(path.name)
        if "getrecursionlimit" in text or "check_depth" in text:
            limit_reads.append(path.name)
        if "_LEVEL_CEILING" in text:
            level_ceiling.append(path.name)
    assert ceilings == ["space.py:TooLarge"]
    assert eps_rule == ["space.py"]
    assert limit_reads == []
    assert level_ceiling == ["nets.py"]


def test_cli_reports_from_main_only():
    """`main` alone times a subcommand, wraps its result in the report
    envelope and prints it; subcommands only compute."""
    path = Path(radonnets.__file__).parent / "cli.py"
    found = []
    for func in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(func, ast.FunctionDef) or func.name == "main":
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "_emit":
                found.append(f"{func.name}:{node.lineno}: _emit")
            elif isinstance(node, ast.Attribute) and ast.unparse(node) == "time.perf_counter":
                found.append(f"{func.name}:{node.lineno}: time.perf_counter")
    assert found == []


def _names(tree: ast.AST) -> Iterator[str]:
    """Every name, attribute and identifier-shaped string constant in
    `tree`, docstrings left out.  Imports do not count, so a name that
    `__init__.py` re-exports is not thereby used."""
    docs = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) and ast.get_docstring(node) is not None
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value.isidentifier():
            if id(node) not in docs:
                yield node.value


def test_every_library_definition_is_used_outside_the_tests():
    """Every top-level function and class of the library, and every method
    that is not a dunder, is named in `src/`, `perfbench/` or `scripts/`
    outside its own definition: the library is what the pipeline, the
    benchmark and the bench scripts run, and code only tests call lives in
    `tests/`.  String constants count, because `perfbench`'s `TRACED` and
    `generators.GENERATORS` name functions.  `kneser_embedding` is the one
    exception: whether it becomes the Radon certificate's check or moves to
    the tests is still open."""
    root = Path(radonnets.__file__).parents[2]
    others = [p for d in ("perfbench", "scripts") for p in sorted((root / d).rglob("*.py"))]
    trees = {p: ast.parse(p.read_text(), str(p)) for p in SOURCES + others}
    uses = Counter(name for tree in trees.values() for name in _names(tree))
    unused = []
    for path in SOURCES:
        for node in trees[path].body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            defs = [(node.name, node)]
            if isinstance(node, ast.ClassDef):
                defs += [
                    (f"{node.name}.{m.name}", m)
                    for m in node.body
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("__")
                ]
            for label, d in defs:
                if uses[d.name] == sum(name == d.name for name in _names(d)):
                    unused.append(f"{path.stem}.{label}")
    assert others
    assert unused == ["bounds.kneser_embedding"]
