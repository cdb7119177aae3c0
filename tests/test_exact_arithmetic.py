"""The exact-arithmetic contract: the library source never reaches for floating point.

An AST scan of every module in src/cf_lattice flags float and imaginary
literals, calls to float(...), and the float-valued math functions
sqrt, log, exp, floor and ceil (whether used as math.f or imported by name).
A second scan holds the integer-only modules (the glue and the root
enumeration) to no `fractions` import at all.
"""
import ast
from math import isqrt
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cf_lattice"
MODULES = sorted(SRC.glob("*.py"))
FLOAT_MATH = {"sqrt", "log", "exp", "floor", "ceil"}
INTEGER_ONLY = ("niemeier.py", "roots.py")


def float_uses(source: str) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, f"literal {node.value!r}"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append((node.lineno, "float(...)"))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and node.attr in FLOAT_MATH):
            found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, f"from math import {a.name}")
                      for a in node.names if a.name in FLOAT_MATH]
    return found


def test_scan_flags_every_forbidden_form():
    sample = ("import math\nfrom math import floor, isqrt\n"
              "a = 0.5\nb = 2j\nc = float(3)\nd = math.sqrt(2)\ne = isqrt(9)\n")
    assert [what for _, what in sorted(float_uses(sample))] == [
        "from math import floor", "literal 0.5", "literal 2j", "float(...)", "math.sqrt"]


def test_modules_found():
    assert {"intlinalg.py", "roots.py", "lattices.py"} <= {p.name for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_uses_exact_arithmetic_only(path):
    assert float_uses(path.read_text(encoding="utf-8")) == []


def fractions_imports(source: str) -> list[int]:
    """Lines that import the fractions module or anything from it."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if (isinstance(node, ast.ImportFrom) and node.module == "fractions")
            or (isinstance(node, ast.Import)
                and any(a.name == "fractions" for a in node.names))]


def test_fractions_scan_flags_both_import_forms():
    sample = "import math\nfrom fractions import Fraction\nimport os, fractions\n"
    assert fractions_imports(sample) == [2, 3]


@pytest.mark.parametrize("name", INTEGER_ONLY)
def test_integer_only_module_imports_nothing_from_fractions(name):
    assert fractions_imports((SRC / name).read_text(encoding="utf-8")) == []


def test_discriminant_forms_build_no_fraction(monkeypatch):
    """Forms, lifts and the Niemeier glue run in integers over the exponent N: with
    `Fraction` in `cf_lattice.lattices` made to raise, only the three read-only
    views `q`, `b` and `lifts` reach it."""
    from cf_lattice import lattices
    from cf_lattice.niemeier import (construct_niemeier, entries_with_e_summand,
                                     isotropic_subgroups, overlattice)

    def no_fraction(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(lattices, "Fraction", no_fraction)
    e6, a2 = lattices.standard_lattice("E6"), lattices.standard_lattice("A2")
    neg_e6 = lattices.Lattice(tuple(tuple(-x for x in row) for row in e6.gram))
    assert lattices.fqf_isomorphic(lattices.discriminant_data(a2).form,
                                   lattices.discriminant_data(neg_e6).form)
    assert not lattices.fqf_isomorphic(lattices.discriminant_data(a2).form,
                                       lattices.discriminant_data(e6).form)
    odd = lattices.discriminant_data(lattices.standard_lattice("diag(3,-12)"))
    assert odd.form.q_num is None
    assert {odd.form.b_of(x, y) for x in odd.form.elements() for y in odd.form.elements()}
    for entry in entries_with_e_summand():
        root_sum = lattices.direct_sum(*(lattices.standard_lattice(f"{f}{n}")
                                         for f, n in entry.root_system.components))
        data = lattices.discriminant_data(root_sum)
        form = data.form
        elements = list(form.elements())
        assert all(type(form.q_of(x)) is int and type(form.b_of(x, y)) is int
                   for x in elements for y in elements)
        glue = next(isotropic_subgroups(data, isqrt(form.order)))
        assert overlattice(root_sum, data, glue).glue_order ** 2 == form.order
        assert construct_niemeier(entry).lattice.det() == 1
        if form.is_trivial():  # E8^3: the views hold no value to convert
            continue
        for view in (lambda: form.q, lambda: form.b, lambda: data.lifts):
            with pytest.raises(AssertionError, match="a Fraction was built"):
                view()
