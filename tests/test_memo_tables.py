"""The process-wide memo tables of the library, listed by an AST scan of src/cf_lattice.

Every `functools.lru_cache` or `functools.cache` in the source is found,
decorator or call, with its maxsize. The set must be exactly the one below:
the three argument-free stages that the checks share, one entry each. No
memo is keyed by input, so a table of a caller's `Lattice`, Gram or
Niemeier entry cannot come back without changing this list.
"""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cf_lattice"
MEMO_NAMES = {"lru_cache": 128, "cache": None}   # name -> maxsize when none is given

EXPECTED = {
    ("period.py", "build_period_model", 1, 0),
    ("period.py", "e8_dictionary", 1, 0),
    ("period.py", "niemeier_e6_stage", 1, 0),
}


def _memo_name(node):
    """'lru_cache' or 'cache' if the node names one (bare or as functools.x), else None."""
    name = (node.id if isinstance(node, ast.Name)
            else node.attr if isinstance(node, ast.Attribute) else None)
    return name if name in MEMO_NAMES else None


def _maxsize(node):
    """maxsize of a memo expression: the bare name, or a call with or without arguments."""
    if not isinstance(node, ast.Call):
        return MEMO_NAMES[_memo_name(node)]
    args = node.args + [k.value for k in node.keywords if k.arg == "maxsize"]
    if not args:
        return MEMO_NAMES[_memo_name(node.func)]
    return args[0].value if isinstance(args[0], ast.Constant) else "?"


def memo_tables(source: str) -> list[tuple[str, object, int]]:
    """(function, maxsize, parameter count) of each memo.

    A memo not used as a decorator is reported as ('<call>', maxsize, -1).
    """
    tree = ast.parse(source)
    found, decorators = [], set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                if _memo_name(dec.func if isinstance(dec, ast.Call) else dec):
                    decorators.add(id(dec))
                    a = node.args
                    nargs = (len(a.posonlyargs + a.args + a.kwonlyargs)
                             + (a.vararg is not None) + (a.kwarg is not None))
                    found.append((node.name, _maxsize(dec), nargs))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and _memo_name(node.func)
                and id(node) not in decorators):
            found.append(("<call>", _maxsize(node), -1))
    return found


def test_scan_finds_every_memo_form():
    sample = ("import functools\nfrom functools import lru_cache, cache\n"
              "@lru_cache(maxsize=None)\ndef a(x): pass\n"
              "@functools.lru_cache(4)\ndef b(): pass\n"
              "@lru_cache\ndef c(x, *args, y, **kw): pass\n"
              "@cache\ndef d(): pass\n"
              "e = functools.lru_cache(maxsize=2)(len)\n"
              "@staticmethod\ndef f(x): pass\n")
    assert sorted(memo_tables(sample), key=str) == sorted([
        ("a", None, 1), ("b", 4, 0), ("c", 128, 4), ("d", None, 0), ("<call>", 2, -1)],
        key=str)


def library_memos() -> set:
    return {(path.name, *memo) for path in sorted(SRC.glob("*.py"))
            for memo in memo_tables(path.read_text(encoding="utf-8"))}


def test_library_memo_tables_are_the_three_stages():
    assert library_memos() == EXPECTED


def test_no_memo_is_unbounded_or_takes_a_parameter():
    assert all(size == 1 and nargs == 0 for _, _, size, nargs in library_memos())
