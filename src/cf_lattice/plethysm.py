"""Exact character rings for SL(2) and SL(3): tensor, symmetric powers, decomposition.

Characters are Weyl-invariant Laurent polynomials: one variable q for SL(2)
(Sym^n V has character q^n + q^{n-2} + ... + q^{-n}) and two variables for
SL(3) after eliminating x3 = (x1 x2)^{-1}. Symmetric powers go through the
Newton power-sum recurrence with exact rational intermediates.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

SL2 = "SL2"
SL3 = "SL3"


class VirtualCharacterError(ValueError):
    """A genuine (non-negative) character was required."""


@dataclass(frozen=True)
class CharacterPoly:
    group: str
    terms: tuple[tuple[tuple[int, ...], int], ...]  # sorted ((exponents), coeff)

    @staticmethod
    def make(group: str, mapping) -> "CharacterPoly":
        items = tuple(sorted((tuple(e), int(c)) for e, c in mapping.items() if c))
        return CharacterPoly(group, items)

    def as_dict(self) -> dict:
        return {e: c for e, c in self.terms}

    @property
    def nvars(self) -> int:
        return 1 if self.group == SL2 else 2

    def dimension(self) -> int:
        return sum(c for _, c in self.terms)

    def is_weyl_symmetric(self) -> bool:
        d = self.as_dict()
        if self.group == SL2:
            return all(d.get((-e[0],), 0) == c for e, c in d.items())
        for e, c in d.items():
            m1, m2 = e
            if d.get((m2, m1), 0) != c:
                return False
            if d.get((m1 - m2, -m2), 0) != c:
                return False
        return True

    def __add__(self, other):
        _same_group(self, other)
        d = dict(self.terms)
        for e, c in other.terms:
            d[e] = d.get(e, 0) + c
        return CharacterPoly.make(self.group, d)

    def __sub__(self, other):
        _same_group(self, other)
        d = dict(self.terms)
        for e, c in other.terms:
            d[e] = d.get(e, 0) - c
        return CharacterPoly.make(self.group, d)

    def __mul__(self, other):
        if isinstance(other, int):
            return CharacterPoly.make(self.group, {e: c * other for e, c in self.terms})
        _same_group(self, other)
        d: dict = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                key = tuple(a + b for a, b in zip(e1, e2))
                d[key] = d.get(key, 0) + c1 * c2
        return CharacterPoly.make(self.group, d)

    __rmul__ = __mul__

    def dual(self) -> "CharacterPoly":
        return CharacterPoly.make(self.group,
                                  {tuple(-x for x in e): c for e, c in self.terms})

    def adams(self, k: int) -> "CharacterPoly":
        """Substitute each eigenvalue by its k-th power."""
        return CharacterPoly.make(self.group,
                                  {tuple(k * x for x in e): c for e, c in self.terms})


def _same_group(a: CharacterPoly, b: CharacterPoly):
    if a.group != b.group:
        raise ValueError(f"character groups differ: {a.group} vs {b.group}")


def trivial_character(group: str) -> CharacterPoly:
    return CharacterPoly.make(group, {(0,) * (1 if group == SL2 else 2): 1})


def zero_character(group: str) -> CharacterPoly:
    return CharacterPoly(group, ())


def irreducible_character(group: str, weight) -> CharacterPoly:
    """Character of Sym^n V (SL2, weight n) or Gamma_{a,b} (SL3, weight (a,b))."""
    if group == SL2:
        n = int(weight)
        if n < 0:
            raise ValueError("SL2 weight must be >= 0")
        return CharacterPoly.make(SL2, {(n - 2 * i,): 1 for i in range(n + 1)})
    if group == SL3:
        a, b = weight
        if a < 0 or b < 0:
            raise ValueError("SL3 weights must be >= 0")
        # weights of Gamma_{a,b} from semistandard tableaux of shape (a+b, b)
        lam = (a + b, b, 0)
        d: dict = {}
        for content in _ssyt_contents(lam):
            key = (content[0] - content[2], content[1] - content[2])
            d[key] = d.get(key, 0) + 1
        return CharacterPoly.make(SL3, d)
    raise ValueError(f"unknown group {group!r}")


def _ssyt_contents(lam):
    """Content vectors (#1s, #2s, #3s) of semistandard tableaux, entries 1..3."""
    rows: list[list[int]] = [[], [], []]
    out: list[tuple[int, int, int]] = []

    def fill(r, c):
        if r == 3:
            content = [0, 0, 0]
            for row in rows:
                for x in row:
                    content[x - 1] += 1
            out.append(tuple(content))
            return
        if c == lam[r]:
            fill(r + 1, 0)
            return
        lo = rows[r][c - 1] if c > 0 else 1
        if r > 0:
            lo = max(lo, rows[r - 1][c] + 1)
        for x in range(lo, 4):
            rows[r].append(x)
            fill(r, c + 1)
            rows[r].pop()

    fill(0, 0)
    return out


def standard_character(group: str) -> CharacterPoly:
    """The defining representation V."""
    if group == SL2:
        return irreducible_character(SL2, 1)
    return irreducible_character(SL3, (1, 0))


def tensor(a: CharacterPoly, b: CharacterPoly) -> CharacterPoly:
    return a * b


def sym_power(a: CharacterPoly, k: int) -> CharacterPoly:
    """Character of Sym^k, by h_k = (1/k) sum_i p_i h_{k-i} with exact rationals."""
    if k < 0:
        raise ValueError("symmetric power degree must be >= 0")
    group = a.group
    h: list[dict] = [{(0,) * a.nvars: Fraction(1)}]
    p = [None] + [a.adams(i) for i in range(1, k + 1)]
    for m in range(1, k + 1):
        acc: dict = {}
        for i in range(1, m + 1):
            pi = p[i]
            hprev = h[m - i]
            for e1, c1 in pi.terms:
                for e2, c2 in hprev.items():
                    key = tuple(x + y for x, y in zip(e1, e2))
                    acc[key] = acc.get(key, Fraction(0)) + c1 * c2
        h.append({e: c / m for e, c in acc.items() if c})
    final = h[k]
    for e, c in final.items():
        if c.denominator != 1:
            raise ArithmeticError("symmetric power produced non-integral coefficients (bug)")
    return CharacterPoly.make(group, {e: int(c) for e, c in final.items()})


@dataclass(frozen=True)
class RepDecomposition:
    """Multiset of irreducible summands with multiplicities."""

    group: str
    summands: tuple[tuple[object, int], ...]  # ((weight, multiplicity), ...)

    def dimension(self) -> int:
        return sum(m * irrep_dimension(self.group, w) for w, m in self.summands)

    def character(self) -> CharacterPoly:
        total = zero_character(self.group)
        for w, m in self.summands:
            total = total + m * irreducible_character(self.group, w)
        return total

    def __str__(self):
        if not self.summands:
            return "0"
        parts = []
        for w, m in self.summands:
            if self.group == SL2:
                base = "C" if w == 0 else ("V" if w == 1 else f"Sym^{w}(V)")
            else:
                base = "C" if w == (0, 0) else f"Gamma_{{{w[0]},{w[1]}}}"
            parts.append(base + (f"^{m}" if m > 1 else ""))
        return " + ".join(parts)


def irrep_dimension(group: str, weight) -> int:
    if group == SL2:
        return weight + 1
    a, b = weight
    return (a + 1) * (b + 1) * (a + b + 2) // 2


def decompose(a: CharacterPoly) -> RepDecomposition:
    """Greedy highest-weight peeling; errors if the input is virtual."""
    group = a.group
    remaining = dict(a.terms)
    summands: dict = {}
    while remaining:
        top = max(remaining)
        mult = remaining[top]
        if group == SL2:
            weight = top[0]
            if weight < 0:
                raise VirtualCharacterError("leading exponent negative: not a character")
        else:
            m1, m2 = top
            if m1 < m2 or m2 < 0:
                raise VirtualCharacterError("leading weight not dominant: not a character")
            weight = (m1 - m2, m2)
        if mult < 0:
            raise VirtualCharacterError("negative multiplicity: virtual character")
        summands[weight] = summands.get(weight, 0) + mult
        chi = irreducible_character(group, weight)
        for e, c in chi.terms:
            val = remaining.get(e, 0) - mult * c
            if val:
                remaining[e] = val
            else:
                remaining.pop(e, None)
    ordered = tuple(sorted(summands.items(), key=lambda t: (_weight_key(group, t[0]))))
    return RepDecomposition(group, ordered)


def _weight_key(group, w):
    return (-w,) if group == SL2 else (-(w[0] + w[1]), -w[0])


def decomposition_from_summands(group: str, pairs) -> RepDecomposition:
    merged: dict = {}
    for w, m in pairs:
        key = w if group == SL2 else tuple(w)
        merged[key] = merged.get(key, 0) + m
    ordered = tuple(sorted(((w, m) for w, m in merged.items() if m),
                           key=lambda t: _weight_key(group, t[0])))
    return RepDecomposition(group, ordered)


# -- Normal-slice pipelines ----------------------------------------------------
#
# For a point with reductive stabilizer H acting on the ambient P(Sym^3 W),
# the H-character of the normal slice is
#     (Sym^3 W - C) - (sl(W)|_H - Lie H),
# with sl(W)|_H = W (x) W* - C.

def normal_slice_omega() -> RepDecomposition:
    """SL(3) slice at the orbit with W = Sym^2 V; equals Sym^6 V (dim 28)."""
    v = standard_character(SL3)
    w = sym_power(v, 2)
    cube = sym_power(w, 3)
    one = trivial_character(SL3)
    ambient_tangent = cube - one
    orbit_tangent = (w * w.dual() - one) - irreducible_character(SL3, (1, 1))
    slice_char = ambient_tangent - orbit_tangent
    dec = decompose(slice_char)
    if dec.dimension() != slice_char.dimension():
        raise ArithmeticError("dimension bookkeeping failed in the omega slice")
    return dec


def normal_slice_chi() -> RepDecomposition:
    """SL(2) slice with W = Sym^4 V + C and stabilizer algebra Sym^2 V (dim 23)."""
    v = standard_character(SL2)
    w = sym_power(v, 4) + trivial_character(SL2)
    cube = sym_power(w, 3)
    one = trivial_character(SL2)
    ambient_tangent = cube - one
    orbit_tangent = (w * w.dual() - one) - irreducible_character(SL2, 2)
    slice_char = ambient_tangent - orbit_tangent
    dec = decompose(slice_char)
    if dec.dimension() != slice_char.dimension():
        raise ArithmeticError("dimension bookkeeping failed in the chi slice")
    return dec


# -- Expression grammar ---------------------------------------------------------
#
#   expr := term ("+" term)*
#   term := atom ("^" int)?
#   atom := "V" | "C" | "Sym^" int "(" expr ")" | "Gamma_{" int "," int "}"
#
# Whitespace is ignored. Gamma atoms are SL3-only.

class ParseError(ValueError):
    """Syntax error with a 1-indexed character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position + 1})")
        self.position = position + 1


# Deepest Sym^k(...) nesting the parser accepts. The parser recurses once per
# level, so without a bound a deep input ends in a RecursionError.
MAX_NESTING = 32


class _Parser:
    def __init__(self, text: str, group: str):
        self.text = text
        self.group = group
        self.pos = 0
        self.depth = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, token: str):
        self.skip_ws()
        if not self.text.startswith(token, self.pos):
            raise ParseError(f"expected {token!r}", self.pos)
        self.pos += len(token)

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        return int(self.text[start:self.pos])

    def expr(self) -> CharacterPoly:
        total = self.term()
        while self.peek() == "+":
            self.expect("+")
            total = total + self.term()
        return total

    def term(self) -> CharacterPoly:
        base = self.atom()
        if self.peek() == "^":
            self.expect("^")
            mult = self.integer()
            return mult * base
        return base

    def atom(self) -> CharacterPoly:
        self.skip_ws()
        if self.text.startswith("Sym", self.pos):
            self.pos += 3
            self.expect("^")
            k = self.integer()
            self.expect("(")
            if self.depth == MAX_NESTING:
                raise ParseError(f"Sym^k(...) nested deeper than {MAX_NESTING}", self.pos)
            self.depth += 1
            inner = self.expr()
            self.depth -= 1
            self.expect(")")
            return sym_power(inner, k)
        if self.text.startswith("Gamma", self.pos):
            start = self.pos
            if self.group != SL3:
                raise ParseError("Gamma is an SL3-only token", start)
            self.pos += 5
            self.expect("_")
            self.expect("{")
            a = self.integer()
            self.expect(",")
            b = self.integer()
            self.expect("}")
            return irreducible_character(SL3, (a, b))
        if self.text.startswith("V", self.pos):
            self.pos += 1
            return standard_character(self.group)
        if self.text.startswith("C", self.pos):
            self.pos += 1
            return trivial_character(self.group)
        raise ParseError("expected V, C, Sym^k(...) or Gamma_{a,b}", self.pos)


def parse_rep_expression(text: str, group: str) -> CharacterPoly:
    """Parse "Sym^3(Sym^4(V)+C)"-style expressions into a character."""
    if group not in (SL2, SL3):
        raise ValueError(f"unknown group {group!r}")
    parser = _Parser(text, group)
    result = parser.expr()
    parser.skip_ws()
    if parser.pos != len(text):
        raise ParseError("unexpected trailing input", parser.pos)
    return result
