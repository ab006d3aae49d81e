"""Source hygiene checks that need no linter: every module-level import in
`src/tritrain` is used, and every function, class and method there is named
by the program itself (`src/`, `demos/` or `perfbench/`), not only by tests."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tritrain"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
PROGRAM = sorted(p for d in ("src", "demos", "perfbench") for p in (ROOT / d).rglob("*.py"))
# definitions kept though only tests reach them
REACH_ALLOWLIST = {
    "finite_difference_gradient",  # the oracle of the acceptance gradient check
    "read_metrics_csv",            # the metrics.csv reader that resuming a run will use
}


def unused_imports(source: str) -> list[str]:
    """Names bound by top-level import statements and never read."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in bound.items() if name not in used]


def test_checker_flags_an_unused_import_and_only_that():
    source = ("from __future__ import annotations\n"
              "import os, json as j\n"
              "from a.b import c, d\n"
              "def f(x: c) -> None:\n"
              "    return j.dumps(os.sep)\n")
    assert unused_imports(source) == ["line 3: d"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == []


def definitions(source: str) -> list[tuple[str, int]]:
    """Top-level functions and classes, and the methods of those classes,
    as (name, line); dunder methods are left out, Python calls them."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            out += [(m.name, m.lineno) for m in node.body
                    if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (m.name.startswith("__") and m.name.endswith("__"))]
    return out


def referenced(sources) -> set[str]:
    """Every `Name`, `Attribute` and exact string constant (for `getattr`
    and patch tables) in the sources; a definition alone names nothing."""
    names = set()
    for source in sources:
        for n in ast.walk(ast.parse(source)):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                names.add(n.attr)
            elif isinstance(n, ast.Constant) and isinstance(n.value, str):
                names.add(n.value)
    return names


def unreached(source: str, program_sources) -> list[str]:
    names = referenced(program_sources)
    return [f"line {line}: {name}" for name, line in definitions(source)
            if name not in names and name not in REACH_ALLOWLIST]


def test_checker_flags_an_unreached_definition_and_only_that():
    source = ("class A:\n"
              "    def __init__(self): pass\n"
              "    def used(self): pass\n"
              "    def by_string(self): pass\n"
              "    def unused(self): pass\n"
              "def helper(): return A().used()\n"
              "def orphan(): pass\n"
              "def finite_difference_gradient(): pass\n")
    caller = "helper(); getattr(A, 'by_string')\n"
    assert unreached(source, [source, caller]) == ["line 5: unused", "line 7: orphan"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_definition_is_reached_by_the_program(path):
    program = [p.read_text() for p in PROGRAM]
    assert unreached(path.read_text(), program) == []
