"""Exact character rings for SL(2) and SL(3): tensor, symmetric powers, decomposition.

Characters are Weyl-invariant Laurent polynomials: one variable q for SL(2)
(Sym^n V has character q^n + q^{n-2} + ... + q^{-n}) and two variables for
SL(3) after eliminating x3 = (x1 x2)^{-1}. Everything is integer arithmetic.
Symmetric powers come from the generating function
prod_w (1 - t x^w)^{-c_w} of the complete homogeneous h_k (Macdonald,
*Symmetric Functions*, I.2), one weight and its whole factor at a time, in
one flat list of integers: row d of the table indexes its weights by their
coordinates in a Hermite basis of the lattice the weight differences span,
less d times the least ones, so multiplying by x^{jw} adds a constant to the
index and each step is one slice update. Decompositions
come from Weyl's character formula read as an alternating sum (Fulton-Harris
section 24.1); SL(3) weight multiplicities are Kostka numbers counted in
closed form. Work is bounded by `MAX_CHARACTER_WORK`.
"""
from __future__ import annotations

from itertools import chain, compress, product
from math import comb, gcd
from operator import add

from ._record import Record

SL2 = "SL2"
SL3 = "SL3"


class VirtualCharacterError(ValueError):
    """A genuine (non-negative) character was required."""


class WorkCapError(ValueError):
    """The requested character would take more than MAX_CHARACTER_WORK steps."""


# Bound on the work of one `sym_power` call or one SL(3) irreducible
# character, in steps (entry updates and table slots), checked before
# anything is allocated. sym_power(a, k) is charged
# (sum_w min(|c_w|, k) + 1) * k * (W + ROW_STEPS), W the points of the box
# that k times the range of a's weights spans in the Hermite basis of their
# lattice (see sym_power): each of its slice updates touches at most W
# entries and is charged ROW_STEPS more for its own overhead, and its table
# is (k + 1) * W slots. A slot is one 8-byte pointer, so the same constant
# bounds the table's slots (not the size of the integers in them) as well as
# its time.
# Gamma_{a,b} scans (n+1)(n+2)/2 contents, n = a + 2b, and is
# charged n per content, one per box of its tableaux: almost every content is
# a weight that each later step carries along, so Gamma_{60,60} (3.0e6) is
# inside and Gamma_{2000,0} (2 million weights) is not. Sym^40(Sym^40(V))
# (2.7e6), Sym^2(Sym^1500(V)) (9.0e6), Sym^500000(C) (9.0e6) and
# Sym^2(V^1000000) (110) are inside; Sym^100000000(V) (3e16) and
# Sym^4999999(C) (9.0e7) are not.
MAX_CHARACTER_WORK = 10 ** 7
# Steps charged per slice update besides its entries. An update of a few
# entries costs about as much as 25 entry updates (1 us against 40 ns on a
# 2-core x86 VM); 8 keeps Sym^500000(C) inside the cap, so a one-weight
# Sym^k(C), charged 2k(1 + ROW_STEPS), is admitted up to k = 555,555
# (about a second and 22 MB in a fresh interpreter).
ROW_STEPS = 8
# Python refuses str() of an int past 4,300 digits (sys.get_int_max_str_digits),
# and a decomposition prints its multiplicities and dimension, each at most
# sum_w |c_w| of the character decomposed. A character or a Sym^k whose bound
# on that sum reaches 10^MAX_DIGITS raises WorkCapError; `sym_power` checks its
# bound before any work.
MAX_DIGITS = 4_200
_MAX_BITS = (10 ** MAX_DIGITS).bit_length()  # an int >= 10^MAX_DIGITS has at least these bits


class CharacterPoly(Record):
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


def _same_group(a: CharacterPoly, b: CharacterPoly):
    if a.group != b.group:
        raise ValueError(f"character groups differ: {a.group} vs {b.group}")


def trivial_character(group: str) -> CharacterPoly:
    return CharacterPoly.make(group, {(0,) * (1 if group == SL2 else 2): 1})


def zero_character(group: str) -> CharacterPoly:
    return CharacterPoly(group, ())


def irreducible_character(group: str, weight) -> CharacterPoly:
    """Character of Sym^n V (SL2, weight n) or Gamma_{a,b} (SL3, weight (a,b)).

    For SL3 the multiplicity of content (m1, m2, m3) in shape (a+b, b) is the
    Kostka number: the 1s fill the start of row 1, and a tableau is fixed by
    the number x of 2s in row 1, so it counts the x allowed by the row and
    column conditions. Raises WorkCapError past MAX_CHARACTER_WORK.
    """
    if group == SL2:
        n = int(weight)
        if n < 0:
            raise ValueError("SL2 weight must be >= 0")
        return CharacterPoly.make(SL2, {(n - 2 * i,): 1 for i in range(n + 1)})
    if group == SL3:
        a, b = weight
        if a < 0 or b < 0:
            raise ValueError("SL3 weights must be >= 0")
        lam1, lam2 = a + b, b
        n = lam1 + lam2
        work = n * (n + 1) * (n + 2) // 2
        if work > MAX_CHARACTER_WORK:
            raise WorkCapError(f"Gamma_{{{a},{b}}} needs {work} steps, over the cap "
                               f"{MAX_CHARACTER_WORK}")
        d: dict = {}
        for m1 in range(lam1 + 1):
            for m2 in range(n - m1 + 1):
                lo = max(0, m2 - m1, lam2 - m1, m2 - lam2)
                hi = min(m2, lam1 - m1)
                if hi >= lo:
                    m3 = n - m1 - m2
                    d[(m1 - m3, m2 - m3)] = hi - lo + 1
        return CharacterPoly.make(SL3, d)
    raise ValueError(f"unknown group {group!r}")


def standard_character(group: str) -> CharacterPoly:
    """The defining representation V."""
    if group == SL2:
        return irreducible_character(SL2, 1)
    return irreducible_character(SL3, (1, 0))


def tensor(a: CharacterPoly, b: CharacterPoly) -> CharacterPoly:
    return a * b


def sym_power(a: CharacterPoly, k: int) -> CharacterPoly:
    """Character of Sym^k, from sum_k h_k t^k = prod_w (1 - t x^w)^{-c_w}.

    The table h[0..k] starts at 1 and takes each weight w with its whole
    factor (1 - t x^w)^{-c}. Let m = |c| and b_j = (-1)^j C(m, j), the
    coefficients of (1 - t x^w)^m. For c < 0 the factor is that polynomial:
    d descending, h[d] += sum_{j=1..min(d,m)} b_j x^{jw} h[d-j] over the old
    rows. For c > 0 it divides by it: d ascending, h[d] -= the same sum over
    the new rows. So virtual input keeps its lambda-ring meaning.

    h is one flat list of (k+1) * W integers, indexed in a Hermite basis
    (g0, s), (0, g1) of the lattice L that the differences of a's weights
    span: g0, g1 > 0 and -g1/2 <= s < g1/2 (g1 = 1 and s = 0 for SL(2); a
    pivot is 1 where L has no extent). A weight x of a, less the least
    weight o, is t0 (g0, s) + t1 (0, g1) with t0 = (x - o)_0 / g0 >= 0 and
    t1 = ((x - o)_1 - s t0) / g1; a sum of d weights, less d o, has the sums
    of their (t0, t1) as coordinates (T0, T1), 0 <= T0 <= d * span0 and
    d * lo1 <= T1 <= d * (lo1 + span1), span0, lo1 and span1 the ranges and
    least value over a. Row d stores it at d * W + line * T0 + T1 - d * lo1,
    line = k * span1 + 1 and W = (k * span0 + 1) * line. So x -> x + j * w
    from row d - j to row d adds the constant j * off(w),
    off(w) = line * t0 + t1 - lo1, to the index and never wraps, and each
    (w, d, j) is one slice update. Ordering by (T0, T1) orders weights
    lexicographically, so a's weights, in their sorted order, come with
    ascending off; the entries of row d - j lie between d - j times the
    first off and w's; and row k, read in index order, is already sorted.
    For an SL(3) representation with more than one weight L is the root
    lattice or the weight lattice; for Sym^m(V) it is the root lattice, and
    the box of its weights is (2m + 1) * (m + 1) points, half the one that x1
    and x2 span. A weight costs at most min(m, k) * k * (W + ROW_STEPS)
    steps. Raises WorkCapError past MAX_CHARACTER_WORK.
    Every coefficient of Sym^k(a), and so every integer a decomposition of it
    prints, is at most dim Sym^k(|a|) = C(D + k - 1, k), D = sum_w |c_w|; it
    is built up as C(n, 1), C(n, 2), ..., which only grow up to the middle
    C(n, min(k, D - 1)), and past 10^MAX_DIGITS raises WorkCapError before the
    table is allocated.
    """
    if k < 0:
        raise ValueError("symmetric power degree must be >= 0")
    if k == 0:
        return trivial_character(a.group)
    if not a.terms:
        return zero_character(a.group)
    sl3 = a.nvars == 2
    origin = a.terms[0][0]  # the least weight
    g0 = s = g1 = 0  # the Hermite basis (g0, s), (0, g1)
    for e, _ in a.terms:
        p, q = e[0] - origin[0], e[1] - origin[1] if sl3 else 0
        while p:  # Euclid on the first coordinates, the second carried along
            f = g0 // p
            g0, s, p, q = p, q, g0 - f * p, s - f * q
        g1 = gcd(g1, q)
    g0, g1 = g0 or 1, g1 or 1
    s -= (2 * s + g1) // (2 * g1) * g1
    t0 = [(e[0] - origin[0]) // g0 for e, _ in a.terms]
    t1 = ([(e[1] - origin[1] - s * t) // g1 for (e, _), t in zip(a.terms, t0)] if sl3
          else [0] * len(t0))
    span0, lo1 = max(t0), min(t1)
    line = k * (max(t1) - lo1) + 1
    width = (k * span0 + 1) * line
    # the slice updates, plus one weight's worth for the (k + 1) * width slots of the table
    work = (sum(min(abs(c), k) for _, c in a.terms) + 1) * k * (width + ROW_STEPS)
    if work > MAX_CHARACTER_WORK:
        raise WorkCapError(f"Sym^{k} of a character of {len(a.terms)} weights needs "
                           f"{work} steps, over the cap {MAX_CHARACTER_WORK}")
    n = sum(abs(c) for _, c in a.terms) + k - 1
    bound = 1
    for i in range(min(k, n - k)):
        bound = bound * (n - i) // (i + 1)
        if bound.bit_length() >= _MAX_BITS:
            raise WorkCapError(f"Sym^{k} of a character of {len(a.terms)} weights may have "
                               f"coefficients of more than {MAX_DIGITS} digits")
    offsets = [line * t + u - lo1 for t, u in zip(t0, t1)]
    least = offsets[0]
    h = [0] * ((k + 1) * width)
    h[0] = 1
    for offset, (_, c) in zip(offsets, a.terms):
        m = abs(c)
        sign = -1 if c > 0 else 1
        steps = [(j * offset, sign * (-1) ** j * comb(m, j)) for j in range(1, min(m, k) + 1)]
        for d in range(1, k + 1) if c > 0 else range(k, 0, -1):
            for j, (shift, b) in enumerate(steps[:d], 1):
                src = (d - j) * (width + least)
                dst = d * width + shift + (d - j) * least
                n = (d - j) * (offset - least) + 1
                if b == 1:
                    h[dst:dst + n] = map(add, h[dst:dst + n], h[src:src + n])
                else:
                    h[dst:dst + n] = [y + b * x for y, x in zip(h[dst:dst + n], h[src:src + n])]
    top = h[k * width:]
    x0 = k * origin[0]
    if sl3:
        x1 = k * (origin[1] + g1 * lo1)
        weights = chain.from_iterable(
            product((x0 + g0 * t,), range(x1 + s * t, x1 + s * t + g1 * line, g1))
            for t in range(k * span0 + 1))
    else:
        weights = product(range(x0, x0 + g0 * width, g0))
    return CharacterPoly(a.group, tuple(compress(zip(weights, top), top)))


class RepDecomposition(Record):
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
    """Irreducible summands by Weyl's alternating sum; errors if the input is virtual.

    mult(lambda) = sum_sigma sgn(sigma) c(sigma(lambda + rho) - rho). Read the
    other way round, a weight e with e + rho regular has exactly one sigma
    taking it to a strictly dominant lambda + rho, so one pass over the
    support adds sgn(sigma) c(e) to that lambda; weights with e + rho on a
    wall add nothing. Input that is not Weyl-symmetric, or that gets a
    negative multiplicity, raises VirtualCharacterError.
    """
    if not a.is_weyl_symmetric():
        raise VirtualCharacterError("not Weyl-symmetric: not a character")
    mults: dict = {}
    for e, c in a.terms:
        if a.group == SL2:
            # rho = 1; sigma is the sign of e + 1
            v = e[0] + 1
            if v == 0:
                continue
            weight, sign = abs(v) - 1, (1 if v > 0 else -1)
        else:
            # (m1, m2) is x1^m1 x2^m2 x3^0, so e + rho = (m1 + 2, m2 + 1, 0) in GL3
            # coordinates, and S3 sorts it; Gamma_{a,b} has lambda + rho = (a+b+2, b+1, 0)
            p0, p1, p2 = e[0] + 2, e[1] + 1, 0
            if p0 == p1 or p1 == p2 or p0 == p2:
                continue
            s0, s1, s2 = sorted((p0, p1, p2), reverse=True)
            weight = (s0 - s1 - 1, s1 - s2 - 1)
            sign = -1 if ((p0 < p1) + (p0 < p2) + (p1 < p2)) % 2 else 1
        mults[weight] = mults.get(weight, 0) + sign * c
    if any(m < 0 for m in mults.values()):
        raise VirtualCharacterError("negative multiplicity: virtual character")
    return decomposition_from_summands(a.group, mults.items())


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


# -- Normal slices -------------------------------------------------------------

def normal_slice(cube: CharacterPoly, w: CharacterPoly,
                 stabilizer: CharacterPoly) -> RepDecomposition:
    """H-character of the normal slice at a point with reductive stabilizer H.

    H acts on the ambient P(Sym^3 W); `cube` is the character of Sym^3 W,
    `w` that of W and `stabilizer` that of Lie H, all restricted to H. The
    slice is (Sym^3 W - C) - (sl(W)|_H - Lie H), with sl(W)|_H = W (x) W* - C.
    """
    one = trivial_character(w.group)
    slice_char = (cube - one) - ((w * w.dual() - one) - stabilizer)
    dec = decompose(slice_char)
    if dec.dimension() != slice_char.dimension():
        raise ArithmeticError("dimension bookkeeping failed in the normal slice")
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
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # past the interpreter's limit on digits
            raise ParseError("integer too long", start)

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
    if sum(abs(c) for _, c in result.terms).bit_length() >= _MAX_BITS:
        raise WorkCapError(f"the character may have multiplicities of more than "
                           f"{MAX_DIGITS} digits")
    return result
