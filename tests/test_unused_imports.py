"""Every name a library module imports is read somewhere in that module.

The package `__init__.py` imports to re-export and is not checked. Only the
standard library's `ast` is used: a name is used if it appears as a `Name`
node anywhere in the module (attribute chains and annotations included).
"""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cf_lattice"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_library_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_detector():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom math import gcd, isqrt\nimport json as j\n"
              "def f(x: j.JSONDecoder):\n    return gcd(x, os.sep)\n")
    assert unused_imports(source) == ["isqrt (line 3)"]
