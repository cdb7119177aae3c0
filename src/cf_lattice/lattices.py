"""Integral lattices: constructors, complements, saturation, discriminant forms.

A lattice is a free Z-module with an integer Gram matrix on a fixed basis.
Vectors are plain integer tuples in that basis. All values are immutable
and all operations are pure functions. Dual-lattice coordinates (discriminant
forms and their generator lifts) come from the Smith transforms of the Gram,
and sublattice coordinates from one integer adjugate: nothing here inverts a
matrix in Fractions.
"""
from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import gcd, lcm, prod
from operator import mul

from . import intlinalg
from ._record import Record
from .intlinalg import Matrix, hnf, kernel, smith_form

Vector = tuple[int, ...]

_JSON_INT_LIMIT = 2 ** 53


class DegenerateLatticeError(ValueError):
    """Raised when an operation requires det != 0."""


class Lattice(Record):
    """Finitely generated free abelian group with a symmetric integer Gram matrix."""

    gram: tuple[tuple[int, ...], ...]
    name: str | None = None

    def __post_init__(self):
        n = len(self.gram)
        for row in self.gram:
            if len(row) != n:
                raise ValueError("gram matrix must be square")
        for i in range(n):
            for j in range(i):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError("gram matrix must be symmetric")

    @property
    def rank(self) -> int:
        return len(self.gram)

    def det(self) -> int:
        pivots, nullity = self._elimination
        if nullity:
            return 0
        return pivots[-1] if pivots else 1

    @cached_property
    def _elimination(self) -> tuple[list[int], int]:
        """(pivots, nullity) of `intlinalg.symmetric_bareiss` of the Gram, run on the
        first `det`, `is_degenerate` or `signature` of this object.

        The pivots are leading minors of a congruent matrix, so with nullity 0
        the last one is det G.
        """
        pivots, _, nullity = intlinalg.symmetric_bareiss(self.gram)
        return pivots, nullity

    def is_even(self) -> bool:
        # x^2 parity is determined by the Gram diagonal
        return all(self.gram[i][i] % 2 == 0 for i in range(self.rank))

    def is_degenerate(self) -> bool:
        return self.det() == 0

    def signature(self) -> tuple[int, int]:
        pos, neg, zero = intlinalg.pivot_signature(*self._elimination)
        if zero:
            raise DegenerateLatticeError("degenerate form has no signature pair")
        return pos, neg

    def inner(self, x: Vector, y: Vector) -> int:
        if len(x) != self.rank or len(y) != self.rank:
            raise ValueError("vector length does not match lattice rank")
        g = self.gram
        return sum(xi * sum(map(mul, g[i], y)) for i, xi in enumerate(x) if xi)

    def norm(self, x: Vector) -> int:
        return self.inner(x, x)

    def __repr__(self):
        label = self.name or f"rank-{self.rank} lattice"
        return f"Lattice({label})"


class Sublattice(Record):
    """A sublattice given by basis row vectors in the ambient basis."""

    ambient: Lattice
    basis: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if any(len(row) != self.ambient.rank for row in self.basis):
            raise ValueError("sublattice basis rows must have the ambient rank as length")
        if intlinalg.rank(list(self.basis)) != len(self.basis):
            raise ValueError("sublattice basis rows must be linearly independent")

    @property
    def rank(self) -> int:
        return len(self.basis)

    def induced_gram(self) -> tuple[tuple[int, ...], ...]:
        b = [list(r) for r in self.basis]
        g = [list(r) for r in self.ambient.gram]
        bg = intlinalg.mat_mul(b, g)
        return tuple(tuple(r) for r in intlinalg.mat_mul(bg, intlinalg.transpose(b)))

    def lattice(self, name: str | None = None) -> Lattice:
        return Lattice(self.induced_gram(), name=name)

    @cached_property
    def _coordinate_solver(self) -> tuple[Matrix, int, Matrix]:
        """(B, det(B B^T), adj(B B^T)), built on the first `from_ambient` of this object."""
        b = [list(r) for r in self.basis]
        return (b, *intlinalg.adjugate(intlinalg.mat_mul(b, intlinalg.transpose(b))))

    def from_ambient(self, v: Vector) -> Vector:
        """Coordinates c with c * B = v in this basis B; error if v is not in the sublattice.

        In integers: det(B B^T) * c = (v * B^T) * adj(B B^T), B having independent rows.
        The det and adjugate are paid once per sublattice object; the span and
        integrality checks run on every call.
        """
        if len(v) != self.ambient.rank:
            raise ValueError("vector length does not match the ambient rank")
        b, d, adj = self._coordinate_solver
        scaled = intlinalg.mat_vec(adj, intlinalg.mat_vec(b, list(v)))
        if any(sum(c * row[j] for c, row in zip(scaled, b)) != d * x for j, x in enumerate(v)):
            raise ValueError("vector does not lie in the sublattice span")
        if any(c % d for c in scaled):
            raise ValueError("vector lies in the span but not in the sublattice")
        return tuple(c // d for c in scaled)

    def contains(self, v: Vector) -> bool:
        try:
            self.from_ambient(v)
        except ValueError:
            return False
        return True


class FiniteQuadraticForm(Record):
    """Finite abelian group with Q/2Z quadratic and Q/Z bilinear values on generators.

    `invariant_factors` lists cyclic orders d_1 | d_2 | ... (all > 1); elements
    are exponent tuples mod the d_i. Values are integers over the exponent
    N = d_k (1 if trivial): `q_num[i]` is N q_i mod 2N and `b_num[i][j]` is
    N b_ij mod N. `q_num` is None for forms induced by odd lattices, where
    only the bilinear form is well defined. `q_of` and `b_of` return such
    numerators too; `q` and `b` are read-only Fraction views of the fields.
    """

    invariant_factors: tuple[int, ...]
    q_num: tuple[int, ...] | None
    b_num: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return prod(self.invariant_factors) if self.invariant_factors else 1

    @property
    def exponent(self) -> int:
        """N, the common denominator of every value: the last invariant factor (1 if trivial)."""
        return max(self.invariant_factors, default=1)

    @property
    def q(self) -> tuple[Fraction, ...] | None:
        """q_i in [0, 2) as Fractions; None for an odd lattice's form."""
        n = self.exponent
        return None if self.q_num is None else tuple(Fraction(v, n) for v in self.q_num)

    @property
    def b(self) -> tuple[tuple[Fraction, ...], ...]:
        """b_ij in [0, 1) as Fractions."""
        n = self.exponent
        return tuple(tuple(Fraction(v, n) for v in row) for row in self.b_num)

    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def elements(self):
        """All elements, the first coordinate running fastest."""
        return (e[::-1] for e in product(*map(range, reversed(self.invariant_factors))))

    def add(self, x, y):
        return tuple((a + c) % d for a, c, d in zip(x, y, self.invariant_factors))

    def element_order(self, x) -> int:
        return lcm(*(d // gcd(a, d) for a, d in zip(x, self.invariant_factors)))

    def span(self, gens) -> set:
        """The subgroup generated by `gens`, as a set of elements."""
        zero = tuple(0 for _ in self.invariant_factors)
        elems, frontier = {zero}, [zero]
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = self.add(cur, g)
                if nxt not in elems:
                    elems.add(nxt)
                    frontier.append(nxt)
        return elems

    def q_of(self, x) -> int:
        """N q(x) mod 2N: sum_i x_i (N q_i x_i + 2 sum_(j>i) N b_ij x_j)."""
        if self.q_num is None:
            raise ValueError("quadratic values not defined (odd lattice)")
        total = sum([a * (qi * a + 2 * sum(map(mul, row[i + 1:], x[i + 1:])))
                     for i, (a, qi, row) in enumerate(zip(x, self.q_num, self.b_num))])
        return total % (2 * self.exponent)

    def b_of(self, x, y) -> int:
        """N b(x, y) mod N."""
        total = sum([a * sum(map(mul, row, y)) for a, row in zip(x, self.b_num)])
        return total % self.exponent


class GenusInvariants(Record):
    """Rank, signature, parity and discriminant form: the genus comparison data."""

    rank: int
    signature: tuple[int, int]
    even: bool
    disc: FiniteQuadraticForm

    def matches(self, other: "GenusInvariants") -> bool:
        return (self.rank == other.rank
                and self.signature == other.signature
                and self.even == other.even
                and fqf_isomorphic(self.disc, other.disc))


_ADE_RE = re.compile(r"^([ADE])(\d+)$")
_DIAG_RE = re.compile(r"^diag\(\s*(-?\d+(?:\s*,\s*-?\d+)*)\s*\)$")
_IPQ_RE = re.compile(r"^I[_ ]?[({]?\s*(\d+)\s*,\s*(\d+)\s*[)}]?$")


def check_ade(family: str, n: int) -> None:
    """Raise ValueError unless (family, n) names an irreducible A-D-E root system."""
    if family == "A" and n < 1:
        raise ValueError("A_n needs n >= 1")
    if family == "D" and n < 4:
        raise ValueError("D_n needs n >= 4")
    if family == "E" and n not in (6, 7, 8):
        raise ValueError("E_n needs n in {6, 7, 8}")
    if family not in ("A", "D", "E"):
        raise ValueError(f"unknown family {family!r}")


def cartan_gram(family: str, n: int) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix of an irreducible A-D-E root lattice (roots of norm 2)."""
    check_ade(family, n)
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2
    if family == "A":
        for i in range(n - 1):
            g[i][i + 1] = g[i + 1][i] = -1
    elif family == "D":
        for i in range(n - 2):
            g[i][i + 1] = g[i + 1][i] = -1
        # fork: the last node attaches to node n-3
        g[n - 3][n - 1] = g[n - 1][n - 3] = -1
    else:
        # chain 1-3-4-5-6(-7-8) with node 2 attached to node 4
        chain = [0] + list(range(2, n))
        for a, b in zip(chain, chain[1:]):
            g[a][b] = g[b][a] = -1
        g[1][3] = g[3][1] = -1
    return tuple(tuple(r) for r in g)


def standard_lattice(label: str) -> Lattice:
    """Named building blocks: A_n, D_n, E6/E7/E8, U, diag(...), I_{p,q}."""
    text = label.strip()
    if text == "U":
        return Lattice(((0, 1), (1, 0)), name="U")
    m = _ADE_RE.match(text)
    if m:
        family, n = m.group(1), int(m.group(2))
        return Lattice(cartan_gram(family, n), name=f"{family}{n}")
    m = _DIAG_RE.match(text)
    if m:
        entries = [int(x) for x in m.group(1).split(",")]
        g = tuple(tuple(e if i == j else 0 for j in range(len(entries)))
                  for i, e in enumerate(entries))
        return Lattice(g, name=text)
    m = _IPQ_RE.match(text)
    if m:
        p, q = int(m.group(1)), int(m.group(2))
        entries = [1] * p + [-1] * q
        g = tuple(tuple(e if i == j else 0 for j in range(len(entries)))
                  for i, e in enumerate(entries))
        return Lattice(g, name=f"I{p},{q}")
    raise ValueError(f"unrecognized lattice label {label!r}")


def direct_sum(*lattices: Lattice, name: str | None = None) -> Lattice:
    """Block-diagonal Gram; rank and signature add."""
    n = sum(l.rank for l in lattices)
    g = [[0] * n for _ in range(n)]
    off = 0
    for lat in lattices:
        for i in range(lat.rank):
            for j in range(lat.rank):
                g[off + i][off + j] = lat.gram[i][j]
        off += lat.rank
    if name is None:
        parts = [l.name or "?" for l in lattices]
        name = " + ".join(parts)
    return Lattice(tuple(tuple(r) for r in g), name=name)


def span_sublattice(lat: Lattice, vectors) -> Sublattice:
    """Sublattice generated by integer vectors, with canonical HNF basis."""
    basis = hnf([list(v) for v in vectors])
    return Sublattice(lat, tuple(tuple(r) for r in basis))


def orthogonal_complement(lat: Lattice, sub: Sublattice) -> Sublattice:
    """{x in L : x.s = 0 for all s in S}, canonical HNF basis, primitive in L."""
    if lat.is_degenerate():
        raise DegenerateLatticeError("complement requires a nondegenerate ambient lattice")
    if not sub.basis:
        # kernel() of a matrix with no rows cannot see its column count
        return Sublattice(lat, tuple(tuple(r) for r in intlinalg.identity(lat.rank)))
    bg = intlinalg.mat_mul([list(r) for r in sub.basis], [list(r) for r in lat.gram])
    ker = kernel(bg)
    return Sublattice(lat, tuple(tuple(r) for r in ker))


def saturation(lat: Lattice, sub: Sublattice) -> Sublattice:
    """Primitive closure QS intersect L; idempotent, finite index over S."""
    if not sub.basis:
        return sub  # kernel() of no rows is [], which would read as full rank below
    ker = kernel([list(r) for r in sub.basis])
    if not ker:
        sat_basis = hnf(intlinalg.identity(lat.rank))
    else:
        sat_basis = kernel(ker)
    return Sublattice(lat, tuple(tuple(r) for r in sat_basis))


def saturation_index(lat: Lattice, sub: Sublattice) -> int:
    """[sat(S) : S]; 1 iff S is primitive, and 1 for the zero sublattice.

    The index is the last determinantal divisor of the basis B (r x n,
    independent rows): the gcd of its r x r minors (Newman, Integral
    Matrices, 1972, ch. II). The columns of B span a full-rank lattice in
    Z^r of that index, so it is the product of the diagonal of hnf(B^T).
    """
    return prod(r[i] for i, r in enumerate(hnf(intlinalg.transpose(sub.basis))))


class DiscriminantData(Record):
    """Discriminant form together with lifts of its generators to L*.

    Row i of `lift_rows` is N Q e_i / d_i, N the exponent: N times a
    representative of generator i in L*, as integer coordinates in the basis
    of L. `lifts` is a read-only Fraction view of the representatives.
    """

    form: FiniteQuadraticForm
    lift_rows: tuple[tuple[int, ...], ...]

    @property
    def exponent(self) -> int:
        """N, the exponent of L*/L: its last invariant factor (1 if trivial)."""
        return self.form.exponent

    @property
    def lifts(self) -> tuple[tuple[Fraction, ...], ...]:
        n = self.exponent
        return tuple(tuple(Fraction(x, n) for x in row) for row in self.lift_rows)

    def lift(self, element) -> tuple[int, ...]:
        """N times a representative of `element` in L*: integer coordinates over N."""
        out = [0] * (len(self.lift_rows[0]) if self.lift_rows else 0)
        for a, row in zip(element, self.lift_rows):
            if a:
                out = [x + a * y for x, y in zip(out, row)]
        return tuple(out)


def discriminant_data(lat: Lattice) -> DiscriminantData:
    """Discriminant form with generator lifts, from the Smith transforms of the Gram.

    P G Q = D gives G^-1 = Q D^-1 P, so generator i of L*/L lifts to
    Q e_i / d_i (Nikulin 1979; Cohen, GTM 138, 2.4), whose row over the
    exponent N is r_i = (N / d_i) Q e_i. The rows pair to r_i^T G r_j =
    N^2 b_ij, a multiple of N since r_i / N lies in L*; divided by N, these
    pairings are N b_ij and, on the diagonal, N q_i. One integer product,
    no inverse of P or G, so P is not carried (`smith_form` without P). A
    zero invariant factor means det G = 0, and raises DegenerateLatticeError.
    """
    g = [list(r) for r in lat.gram]
    d, _, q = smith_form(g, carry_p=False)
    if 0 in d:
        raise DegenerateLatticeError("discriminant group requires det != 0")
    factors = tuple(di for di in d if di > 1)
    n = max(factors, default=1)
    rows = [[row[i] * (n // di) for row in q] for i, di in enumerate(d) if di > 1]
    g_rows = [intlinalg.mat_vec(g, r) for r in rows]
    pairings = [[sum(map(mul, ri, gr)) // n for gr in g_rows] for ri in rows]
    form = FiniteQuadraticForm(
        invariant_factors=factors,
        q_num=tuple(row[i] % (2 * n) for i, row in enumerate(pairings)) if lat.is_even() else None,
        b_num=tuple(tuple(x % n for x in row) for row in pairings),
    )
    return DiscriminantData(form=form, lift_rows=tuple(map(tuple, rows)))


def genus_invariants(lat: Lattice) -> GenusInvariants:
    """Raises DegenerateLatticeError on a degenerate Gram, through `Lattice.signature`."""
    return GenusInvariants(
        rank=lat.rank,
        signature=lat.signature(),
        even=lat.is_even(),
        disc=discriminant_data(lat).form,
    )


_FQF_ORDER_LIMIT = 100


def fqf_isomorphic(a: FiniteQuadraticForm, b: FiniteQuadraticForm) -> bool:
    """Brute-force isomorphism test preserving q (and b); orders capped at 100."""
    if a.order > _FQF_ORDER_LIMIT or b.order > _FQF_ORDER_LIMIT:
        raise ValueError(f"group order exceeds supported bound {_FQF_ORDER_LIMIT}")
    if a.invariant_factors != b.invariant_factors:
        return False
    if (a.q_num is None) != (b.q_num is None):
        return False
    if a.is_trivial():
        return True
    k = len(a.invariant_factors)
    gens_a = [tuple(1 if i == j else 0 for j in range(k)) for i in range(k)]
    elements_b = list(b.elements())

    def compatible(ga, image):
        if b.element_order(image) != a.element_order(ga):
            return False
        if a.q_num is not None and b.q_of(image) != a.q_of(ga):
            return False
        return True

    def extend(idx, images):
        if idx == k:
            # images define a homomorphism; bijectivity <=> they generate b
            return len(b.span(images)) == b.order
        ga = gens_a[idx]
        for cand in elements_b:
            if not compatible(ga, cand):
                continue
            ok = True
            for prev_i, prev in enumerate(images):
                if b.b_of(cand, prev) != a.b_num[idx][prev_i]:
                    ok = False
                    break
            if ok and extend(idx + 1, images + [cand]):
                return True
        return False

    return extend(0, [])


def hadamard_bits(gram) -> int:
    """A b with |det G| <= 2^b, from Hadamard's bound |det G| <= prod_i |g_i|.

    Row i has |g_i|^2 = s_i < 2^L_i, L_i the bit length of s_i, so its length
    is below 2^ceil(L_i / 2): no elimination and no square root is taken.
    """
    return sum((sum(x * x for x in row).bit_length() + 1) // 2 for row in gram)


def vector_divisibility(lat: Lattice, v: Vector) -> int:
    """gcd of the pairings of v with a basis of L."""
    if not any(v):
        raise ValueError("divisibility of the zero vector is undefined")
    pairings = intlinalg.mat_vec([list(r) for r in lat.gram], list(v))
    return gcd(*pairings) if len(pairings) > 1 else abs(pairings[0])


# -- JSON interchange ---------------------------------------------------------
#
# {"name": str?, "gram": [[int, ...], ...]}. Entries are JSON numbers when
# |x| < 2^53 and decimal strings otherwise, so round trips are bit exact.

def _encode_int(x: int):
    return x if abs(x) < _JSON_INT_LIMIT else str(x)


def parse_int(text: str) -> int:
    """int(text); past the interpreter's limit on digits, a ValueError that says so."""
    try:
        return int(text)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        if sum(map(str.isdigit, text)) > limit:
            raise ValueError(f"entry has more than {limit:,} digits") from None
        raise


def _decode_int(x) -> int:
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise ValueError(f"gram entries must be integers or decimal strings, got {x!r}")
    return parse_int(x) if isinstance(x, str) else x


def lattice_to_json(lat: Lattice) -> str:
    doc = {"gram": [[_encode_int(x) for x in row] for row in lat.gram]}
    if lat.name is not None:
        doc = {"name": lat.name, **doc}
    return json.dumps(doc)


def lattice_from_json(text: str) -> Lattice:
    doc = json.loads(text, parse_int=parse_int)
    if not isinstance(doc, dict) or "gram" not in doc:
        raise ValueError("lattice document must be an object with a 'gram' key")
    name = doc.get("name")
    if "name" in doc and not isinstance(name, str):
        raise ValueError(f"lattice 'name' must be a string, got {name!r}")
    rows = doc["gram"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("lattice 'gram' must be an array of arrays")
    gram = tuple(tuple(_decode_int(x) for x in row) for row in rows)
    return Lattice(gram, name=name)
