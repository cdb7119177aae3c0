"""The process-wide memo tables of the library, listed by an AST scan of src/cf_lattice.

Every `functools.lru_cache` or `functools.cache` in the source is found,
decorator or call. There must be none: the stages the checks share are
values of one run (`checks.Stages`), so what a check costs or returns does
not depend on what ran earlier in the process, and no table of a caller's
`Lattice`, Gram or Niemeier entry can come back without failing here.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cf_lattice"
MEMO_NAMES = {"lru_cache", "cache"}


def _memo_name(node):
    """'lru_cache' or 'cache' if the node names one (bare or as functools.x), else None."""
    name = (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)
    return name if name in MEMO_NAMES else None


def memo_tables(source: str) -> list[str]:
    """The name of each function a memo decorates; '<call>' for a memo not used as one."""
    tree = ast.parse(source)
    found, decorators = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                if _memo_name(dec.func if isinstance(dec, ast.Call) else dec):
                    decorators.add(id(dec))
                    found.append(node.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and _memo_name(node.func)
                and id(node) not in decorators):
            found.append("<call>")
    return found


def test_scan_finds_every_memo_form():
    sample = ("import functools\nfrom functools import lru_cache, cache\n"
              "@lru_cache(maxsize=None)\ndef a(x): pass\n"
              "@functools.lru_cache(4)\ndef b(): pass\n"
              "@lru_cache\ndef c(x, *args, y, **kw): pass\n"
              "@cache\ndef d(): pass\n"
              "e = functools.lru_cache(maxsize=2)(len)\n"
              "@staticmethod\ndef f(x): pass\n"
              "class G:\n    @functools.cache\n    def g(self): pass\n")
    assert sorted(memo_tables(sample)) == ["<call>", "a", "b", "c", "d", "g"]


def library_memos() -> set:
    return {(path.name, memo) for path in sorted(SRC.glob("*.py"))
            for memo in memo_tables(path.read_text(encoding="utf-8"))}


def test_library_keeps_no_memo():
    assert library_memos() == set()
