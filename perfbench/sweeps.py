"""Seeded inputs and independent oracles for the two sweep workloads.

Every input is built here from a `random.Random` seeded by (seed, pass), so
the same seed gives the same inputs. The expected answers come from closed
formulas, from this file's own exact arithmetic, or from sympy, and never
from cf_lattice: the package is only used to wrap generated data in its
input types (`Lattice`, `Sublattice`, `QhSingularity`).

A case is one timed call. `kind` names the public function
(`<module>.<function>`); `check(result)` raises `Mismatch` when the answer is
wrong. A case whose input is the output of an earlier case names it with
`From(index)`. A probe case is a call whose Smith normal form may not end at
this commit (`smith_normal_form` itself, or `discriminant_data` on a skewed
basis): it runs only in traced passes, under a short budget, and a probe
that runs out of it is counted in `intlinalg.smith_normal_form.over_budget`
instead of failing the run.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from math import comb, gcd, lcm, prod
from typing import Callable


class Mismatch(AssertionError):
    """The program's answer disagrees with the oracle."""


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise Mismatch(what)


@dataclass(frozen=True)
class From:
    """Placeholder argument: the result of the case at this index."""

    index: int


@dataclass
class Case:
    kind: str                      # "<module>.<function>" in cf_lattice
    args: tuple
    check: Callable[[object], None]
    meta: dict = field(default_factory=dict)
    # judges an exception raised by the call; by default every exception is wrong
    check_error: Callable[[Exception], None] | None = None
    probe: bool = False


# -- exact helpers (no cf_lattice) ---------------------------------------------

def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def transpose(a):
    return [list(c) for c in zip(*a)]


def identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def domain_matrix(rows):
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix
    return DomainMatrix.from_list([list(r) for r in rows], ZZ)


def sympy_det(rows) -> int:
    return int(domain_matrix(rows).det()) if rows else 1


def sympy_rank(rows) -> int:
    return domain_matrix(rows).rank() if rows else 0


def same_row_span(a, b) -> bool:
    """Row spans over Z agree: compare sympy's canonical Hermite forms."""
    from sympy import Matrix
    from sympy.matrices.normalforms import hermite_normal_form
    if not a or not b:
        return not any(any(r) for r in a) and not any(any(r) for r in b)
    return hermite_normal_form(Matrix(a).T) == hermite_normal_form(Matrix(b).T)


def saturated(rows) -> bool:
    """The gcd of the maximal minors is 1 (full row rank and primitive)."""
    g = 0
    for cols in combinations(range(len(rows[0])), len(rows)):
        g = gcd(g, sympy_det([[row[c] for c in cols] for row in rows]))
        if g == 1:
            return True
    return False


# -- A-D-E lattices --------------------------------------------------------------

def cartan(family: str, n: int):
    """Cartan matrix with Bourbaki numbering (E: node 1 hangs off node 3)."""
    g = [[2 * int(i == j) for j in range(n)] for i in range(n)]
    if family == "A":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif family == "D":
        edges = [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    else:
        edges = [(0, 2), (1, 3)] + [(i, i + 1) for i in range(2, n - 1)]
    for i, j in edges:
        g[i][j] = g[j][i] = -1
    return g


def block_sum(blocks):
    n = sum(len(b) for b in blocks)
    g = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            g[off + i][off:off + len(row)] = row
        off += len(b)
    return g


def positive_roots(g):
    """Positive roots in simple-root coordinates (simply laced: add a_j when (b, a_j) = -1)."""
    n = len(g)
    simple = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    found = set(simple)
    frontier = simple
    while frontier:
        grown = []
        for beta in frontier:
            for j in range(n):
                if sum(beta[i] * g[i][j] for i in range(n)) == -1:
                    gamma = beta[:j] + (beta[j] + 1,) + beta[j + 1:]
                    if gamma not in found:
                        found.add(gamma)
                        grown.append(gamma)
        frontier = grown
    return sorted(found)


def root_count(family: str, n: int) -> int:
    return {"A": n * (n + 1), "D": 2 * n * (n - 1)}.get(family) or {6: 72, 7: 126, 8: 240}[n]


def norm4_count(family: str, n: int) -> int:
    """Vectors of norm 4: A_n and D_n from their coordinate models, E_n from the theta series."""
    if family == "A":
        return comb(n + 1, 2) * comb(n - 1, 2)
    if family == "D":
        return 2 * n + 16 * comb(n, 4)
    return {6: 270, 7: 756, 8: 2160}[n]


def disc_cyclic(family: str, n: int) -> list[int]:
    if family == "A":
        return [n + 1]
    if family == "D":
        return [4] if n % 2 else [2, 2]
    return {6: [3], 7: [2], 8: []}[n]


def lattice_det(family: str, n: int) -> int:
    return prod(disc_cyclic(family, n))


def invariant_factors_of(cyclic_orders) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... (> 1) of a product of cyclic groups."""
    powers: dict[int, list[int]] = {}
    for m in cyclic_orders:
        p = 2
        while m > 1:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if e:
                powers.setdefault(p, []).append(p ** e)
            p += 1
    length = max((len(v) for v in powers.values()), default=0)
    factors = [1] * length
    for v in powers.values():
        for k, q in enumerate(sorted(v, reverse=True)):
            factors[length - 1 - k] *= q
    return tuple(factors)


def parse_label(text: str):
    return [(part[0], int(part[1:])) for part in text.split("+")]


def unimodular_skew(n: int, strength: int, rng: random.Random):
    """U and U^-1 from `strength` elementary operations row_i += c row_j, c = +-1."""
    u, u_inv = identity(n), identity(n)
    for _ in range(strength):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        for row in u_inv:              # right-multiply by the inverse operation
            row[j] -= c * row[i]
    return u, u_inv


def signed_permutation(n: int, rng: random.Random):
    order = rng.sample(range(n), n)
    return [[rng.choice((-1, 1)) if j == order[i] else 0 for j in range(n)] for i in range(n)]


def disc_case(lat, gram, factors, meta, probe: bool = False) -> Case:
    """discriminant_data: the invariant factors, and q and b recomputed from the lifts."""
    rank = len(gram)

    def check_disc(data):
        form = data.form
        expect(tuple(form.invariant_factors) == factors,
               f"invariant factors {form.invariant_factors}, expected {factors}")
        for i, li in enumerate(data.lifts):
            li = [Fraction(x) for x in li]
            pairing = [sum(li[a] * gram[a][b] for a in range(rank)) for b in range(rank)]
            expect(all(x.denominator == 1 for x in pairing), "lift is not in the dual lattice")
            expect(lcm(*[x.denominator for x in li]) == factors[i],
                   "lift order differs from its invariant factor")
            for j, lj in enumerate(data.lifts):
                val = sum(li[a] * gram[a][b] * lj[b] for a in range(rank) for b in range(rank))
                expect(form.b[i][j] == val % 1, "bilinear value disagrees with the lifts")
                if i == j:
                    expect(form.q[i] == val % 2, "quadratic value disagrees with the lifts")

    return Case("lattices.discriminant_data", (lat,), check_disc, meta=meta, probe=probe)


def label_text(comps) -> str:
    return "+".join(f"{f}{n}" for f, n in sorted(comps))


def lattice_cases(comps, strength: int, rng: random.Random, *, norm4: bool):
    """Enumeration, identification, discriminant, complement and saturation on one lattice."""
    from cf_lattice.lattices import Lattice, Sublattice

    rank = sum(n for _, n in comps)
    blocks = [cartan(f, n) for f, n in comps]
    g = block_sum(blocks)
    u, u_inv = unimodular_skew(rank, strength, rng)
    skewed = mat_mul(mat_mul(u, g), transpose(u))
    lat = Lattice(tuple(tuple(r) for r in skewed))
    meta = {"label": label_text(comps), "strength": strength}

    def to_cartan(v):
        return [sum(v[i] * u[i][j] for i in range(rank)) for j in range(rank)]

    def cartan_norm(x):
        return sum(x[i] * g[i][j] * x[j] for i in range(rank) for j in range(rank) if g[i][j])

    def vector_set_check(norm, count):
        def check(vectors):
            vs = [tuple(v) for v in vectors]
            distinct = set(vs)
            expect(len(vs) == count, f"{len(vs)} vectors of norm {norm}, formula gives {count}")
            expect(len(distinct) == len(vs), "repeated vector")
            expect(all(tuple(-x for x in v) in distinct for v in vs), "not closed under negation")
            expect(all(cartan_norm(to_cartan(v)) == norm for v in vs),
                   "vector of the wrong norm after undoing the basis change")
        return check

    n2 = sum(root_count(f, n) for f, n in comps)
    cases = [Case("roots.short_vectors", (lat, 2), vector_set_check(2, n2), meta=meta)]
    if norm4:
        n4 = sum(norm4_count(f, n) for f, n in comps)
        n4 += sum(root_count(*a) * root_count(*b)
                  for i, a in enumerate(comps) for b in comps[i + 1:])
        cases.append(Case("roots.short_vectors", (lat, 4), vector_set_check(4, n4), meta=meta))

    # roots from the Cartan data, moved into the skewed basis and shuffled
    root_rows = []
    off = 0
    for b in blocks:
        for r in positive_roots(b):
            x = [0] * rank
            x[off:off + len(b)] = r
            y = tuple(sum(x[i] * u_inv[i][j] for i in range(rank)) for j in range(rank))
            root_rows += [y, tuple(-c for c in y)]
        off += len(b)
    rng.shuffle(root_rows)
    expected_label = sorted(comps)

    def check_label(label):
        expect(sorted(label.components) == expected_label,
               f"identified {label}, generated {label_text(comps)}")

    cases.append(Case("roots.identify_root_system", (lat, root_rows), check_label, meta=meta))

    factors = invariant_factors_of([m for f, n in comps for m in disc_cyclic(f, n)])
    # Timed on the lattice in a signed-permutation basis; the skewed basis is a
    # probe, because there the Smith normal form inside may not end at this commit.
    p = signed_permutation(rank, rng)
    permuted = mat_mul(mat_mul(p, g), transpose(p))
    cases.append(disc_case(Lattice(tuple(tuple(r) for r in permuted)), permuted, factors, meta))
    cases.append(disc_case(lat, skewed, factors, meta, probe=True))

    # the first component, written in the skewed basis, and the rest
    k = comps[0][1]
    first = [list(r) for r in u_inv[:k]]
    rest = [list(r) for r in u_inv[k:]]
    sub = Sublattice(lat, tuple(tuple(r) for r in first))
    rest_det = prod(lattice_det(f, n) for f, n in comps[1:])

    def check_complement(comp):
        rows = [list(r) for r in comp.basis]
        expect(len(rows) == rank - k, f"complement rank {len(rows)}, expected {rank - k}")
        if rows:
            cross = mat_mul(mat_mul(rows, skewed), transpose(first))
            expect(not any(any(r) for r in cross), "complement is not orthogonal")
            gram = mat_mul(mat_mul(rows, skewed), transpose(rows))
            expect(abs(sympy_det(gram)) == rest_det, "complement has the wrong determinant")
            expect(same_row_span(rows, rest), "complement is not the other components")

    cases.append(Case("lattices.orthogonal_complement", (lat, sub), check_complement, meta=meta))

    # a triangular mix with a diagonal entry 2 spans a proper finite-index sublattice
    mix = [[rng.randint(-2, 2) if j > i else 0 for j in range(k)] for i in range(k)]
    for i in range(k):
        mix[i][i] = rng.choice((-1, 1))
    pivot = rng.randrange(k)
    mix[pivot][pivot] = 2
    rng.shuffle(mix)
    scaled = Sublattice(lat, tuple(tuple(r) for r in mat_mul(mix, first)))

    def check_saturation(sat):
        expect(same_row_span([list(r) for r in sat.basis], first),
               "saturation is not the primitive closure")

    cases.append(Case("lattices.saturation", (lat, scaled), check_saturation, meta=meta))
    return cases


# -- integer matrices ------------------------------------------------------------

def is_row_hnf(rows) -> bool:
    last = -1
    for r, row in enumerate(rows):
        col = next((j for j, x in enumerate(row) if x), None)
        if col is None or col <= last or row[col] <= 0:
            return False
        if any(not 0 <= rows[i][col] < row[col] for i in range(r)):
            return False
        last = col
    return True


def in_echelon_span(h, v) -> bool:
    """v is an integer combination of the rows of the echelon matrix h."""
    v = list(v)
    for row in h:
        col = next(j for j, x in enumerate(row) if x)
        c, r = divmod(v[col], row[col])
        if r:
            return False
        if c:
            v = [a - c * b for a, b in zip(v, row)]
    return not any(v)


def matrix_cases(m, *, square: bool, kernel_rows=None, tag: str, snf_probe: bool = False):
    """det, rational_inverse, hnf and smith_normal_form on `m`; kernel on `kernel_rows`.

    With `snf_probe` the Smith normal form is a probe case.
    """
    meta = {"input": tag}
    cases = []
    if square:
        n = len(m)

        def check_det(d):
            expect(d == sympy_det(m), "determinant disagrees with sympy")

        def check_inverse(inv):
            prod_ = [[sum(Fraction(m[i][t]) * inv[t][j] for t in range(n)) for j in range(n)]
                     for i in range(n)]
            expect(prod_ == identity(n), "A * inverse is not the identity")

        def check_snf(out):
            d, p, q = out
            diag = mat_mul(mat_mul(p, m), q)
            expect(all(diag[i][j] == (d[i] if i == j else 0) for i in range(n) for j in range(n)),
                   "P*A*Q is not diag(d)")
            expect(all(x >= 0 for x in d), "negative invariant factor")
            expect(all(d[i + 1] % d[i] == 0 if d[i] else d[i + 1] == 0 for i in range(n - 1)),
                   "invariant factors do not divide")
            expect(abs(sympy_det(p)) == 1 and abs(sympy_det(q)) == 1, "transform not unimodular")
            expect(prod(d) == abs(sympy_det(m)), "product of factors is not |det A|")

        def check_singular(exc):
            expect(isinstance(exc, ValueError) and sympy_det(m) == 0,
                   f"{type(exc).__name__} on a matrix with det {sympy_det(m)}")

        cases += [Case("intlinalg.det", (m,), check_det, meta=meta),
                  Case("intlinalg.rational_inverse", (m,), check_inverse, meta=meta,
                       check_error=check_singular),
                  Case("intlinalg.smith_normal_form", (m,), check_snf, meta=meta,
                       probe=snf_probe)]

    def check_hnf(h):
        expect(is_row_hnf(h), "not in row Hermite normal form")
        expect(len(h) == sympy_rank(m), "HNF rank disagrees with sympy")
        if square and len(h) == len(m):
            # sympy's Hermite form takes seconds on the banded inputs; for a
            # nonsingular M, rows of M in span(H) and |det H| = |det M| suffice
            expect(all(in_echelon_span(h, row) for row in m), "a row of A is not in span(H)")
            expect(prod(row[next(j for j, x in enumerate(row) if x)] for row in h)
                   == abs(sympy_det(m)), "HNF determinant differs from |det A|")
        else:
            expect(same_row_span(h, m), "HNF row span differs from sympy's Hermite form")

    cases.append(Case("intlinalg.hnf", (m,), check_hnf, meta=meta))
    if kernel_rows is not None:
        km = kernel_rows
        ncols = len(km[0])

        def check_kernel(ker):
            expect(all(not any(sum(r[j] * x[j] for j in range(ncols)) for r in km) for x in ker),
                   "kernel vector is not annihilated")
            expect(len(ker) == ncols - sympy_rank(km), "kernel has the wrong rank")
            expect(saturated(ker), "kernel basis is not saturated")

        cases.append(Case("intlinalg.kernel", (km,), check_kernel, meta=meta))
    return cases


def dense(n, cols, rng):
    return [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(n)]


def rank_deficient(n, cols, rng):
    r = n - 1
    a = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
    b = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(r)]
    return mat_mul(a, b)


def banded(n, width, rng):
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = rng.randint(2 * width, 2 * width + 3)
        for k in range(1, width + 1):
            if i + k < n:
                g[i][i + k] = g[i + k][i] = rng.randint(-2, 2)
    return g


# -- representations and spectra -------------------------------------------------

def weyl_dim(group: str, w) -> int:
    if group == "SL2":
        return w + 1
    a, b = w
    return (a + 1) * (b + 1) * (a + b + 2) // 2


def plethysm_cases(group: str, k: int, m: int, plus_trivial: bool, index: int):
    """parse_rep_expression then decompose; dim Sym^k(W) = C(dim W + k - 1, k)."""
    from cf_lattice.plethysm import SL2, SL3
    inner = f"Sym^{m}(V)" + ("+C" if plus_trivial else "")
    text = f"Sym^{k}({inner})"
    dim_w = (m + 1 if group == "SL2" else comb(m + 2, 2)) + int(plus_trivial)
    dim = comb(dim_w + k - 1, k)
    meta = {"expression": text, "group": group, "dim": dim}

    def check_char(ch):
        expect(sum(c for _, c in ch.terms) == dim, "character dimension is not C(dim W + k - 1, k)")

    def check_dec(dec):
        expect(all(mult > 0 for _, mult in dec.summands), "non-positive multiplicity")
        expect(sum(mult * weyl_dim(group, w) for w, mult in dec.summands) == dim,
               "summand dimensions do not add up to C(dim W + k - 1, k)")

    g = SL2 if group == "SL2" else SL3
    return [Case("plethysm.parse_rep_expression", (text, g), check_char, meta=meta),
            Case("plethysm.decompose", (From(index),), check_dec, meta=meta)]


def spectrum_case(exponents):
    """Brieskorn-Pham x1^a1 + ... : spectrum {sum i_k/a_k - 1 : 1 <= i_k < a_k}."""
    from cf_lattice.spectra import QhSingularity
    n = len(exponents)
    expected = sorted(sum(Fraction(i, a) for i, a in zip(idx, exponents)) - 1
                      for idx in product(*[range(1, a) for a in exponents]))
    milnor = prod(a - 1 for a in exponents)
    pivot = Fraction(n - 2, 2)

    def check(sp):
        entries = sorted(Fraction(e) for e in sp.entries)
        expect(len(entries) == milnor, "count is not the Milnor number")
        expect(entries == sorted(2 * pivot - e for e in entries), "spectrum is not symmetric")
        expect(entries == expected, "spectrum differs from the Brieskorn-Pham formula")

    sing = QhSingularity(weights=tuple(Fraction(1, a) for a in exponents))
    return Case("spectra.spectrum", (sing,), check, meta={"exponents": list(exponents)})


def cusp_case(p, q, r):
    expected = sorted([Fraction(0), Fraction(1)]
                      + [Fraction(j, m) for m in (p, q, r) for j in range(1, m)])

    def check(sp):
        expect(sorted(Fraction(e) for e in sp.entries) == expected,
               "cusp spectrum is not {0,1} + {j/m}")

    return Case("spectra.cusp_spectrum", (p, q, r), check, meta={"pqr": [p, q, r]})


CUSP_TRIPLES = [(p, q, r) for p in range(2, 13) for q in range(p, 13) for r in range(q, 13)
                if Fraction(1, p) + Fraction(1, q) + Fraction(1, r) < 1 and p + q + r <= 27]

# Plethysm shapes Sym^k(Sym^m(V)) in cost strata; a pass runs all of them.
# The last SL(2) stratum has results of dimension C(28, k), about 4 * 10^7.
SL2_STRATA = [[(k, m) for k in range(2, 5) for m in range(2, 5)],
              [(k, m) for k in range(5, 8) for m in range(5, 8)],
              [(k, m) for k in range(9, 12) for m in range(8, 11)],
              [(k, 28 - k) for k in range(13, 16)]]
SL3_STRATA = [[(2, 2), (2, 3), (3, 2)],
              [(3, 3), (4, 2), (2, 4)],
              [(4, 4), (5, 3), (6, 3), (3, 4)]]


# -- passes ----------------------------------------------------------------------

# (components, skew strength in elementary operations per unit of rank, norm 4 too)
LATTICE_GRID = [
    ("E8", 0.5, True), ("E7+A1", 0.25, True), ("D8", 0.0, True),
    ("D12", 0.5, False), ("E6+E6", 0.25, False), ("A11+A1", 0.0, False),
    ("E8+E8", 0.25, False), ("D16", 0.5, False), ("A9+D5+A2", 0.5, False),
    ("E7+E7+A2", 0.0, False),
]


# Smith normal forms that end at this commit: dense up to 5x5. The larger
# dense ones and all banded ones are probes.
SNF_DENSE_MAX = 5


def lattice_sweep(seed: int, pass_index: int, quick: bool = False) -> list[Case]:
    """One pass: the lattice grid in fresh skewed bases, dense 3x3..8x8, one banded Gram.

    Every pass holds the same shapes, so passes cost about the same; the seed
    and the pass index pick the basis changes, the order of the components and
    the matrix entries, so no two inputs repeat.
    """
    rng = random.Random(f"lattice-sweep:{seed}:{pass_index}")
    cases: list[Case] = []
    for label, share, norm4 in LATTICE_GRID[:2] if quick else LATTICE_GRID:
        comps = parse_label(label)
        rng.shuffle(comps)
        rank = sum(n for _, n in comps)
        cases += lattice_cases(comps, int(rank * share), rng, norm4=norm4)
    for n in range(3, 5) if quick else range(3, 9):
        cases += matrix_cases(dense(n, n, rng), square=True, tag=f"dense {n}x{n}",
                              snf_probe=n > SNF_DENSE_MAX)
    k = rng.randint(3, 6)
    rect = rank_deficient(k, k + 2, rng)
    cases += matrix_cases(rect, square=False, kernel_rows=rect,
                          tag=f"rank-deficient {k}x{k + 2}")
    if not quick:
        n, width = rng.randint(12, 28), rng.randint(1, 3)
        g = banded(n, width, rng)
        cases += matrix_cases(g, square=True, kernel_rows=g[:n - 3],
                              tag=f"banded {n}x{n} width {width}", snf_probe=True)
    # probes last, so that what they leave in cf_lattice's caches cannot speed up a timed call
    return [c for c in cases if not c.probe] + [c for c in cases if c.probe]


def rep_sweep(seed: int, pass_index: int, quick: bool = False) -> list[Case]:
    """One pass: SL(2)/SL(3) plethysms, Brieskorn-Pham spectra, cusp spectra.

    Every pass holds every plethysm shape of the strata, so that the slow
    calls are the same in every pass and every run; the seed and the pass
    index pick the order, the shapes with a trivial summand, the weight
    systems and the cusp triples.
    """
    rng = random.Random(f"rep-sweep:{seed}:{pass_index}")
    cases: list[Case] = []
    shapes = [("SL2", k, m, False) for stratum in SL2_STRATA for k, m in stratum]
    shapes += [("SL3", k, m, False) for stratum in SL3_STRATA for k, m in stratum]
    shapes += [("SL2", *rng.choice(SL2_STRATA[1]), True), ("SL3", *rng.choice(SL3_STRATA[0]), True)]
    rng.shuffle(shapes)
    if quick:
        shapes = [s for s in shapes if (s[1], s[2]) in SL2_STRATA[0] + SL3_STRATA[0]][:2]
    for group, k, m, plus in shapes:
        cases += plethysm_cases(group, k, m, plus, len(cases))
    for _ in range(2 if quick else 8):
        nvars = rng.choice((2, 3, 3, 4))
        while True:
            exps = [rng.randint(2, 12) for _ in range(nvars)]
            if prod(a - 1 for a in exps) <= 2000:
                break
        cases.append(spectrum_case(exps))
    for _ in range(2 if quick else 8):
        p, q, r = rng.choice(CUSP_TRIPLES)
        triple = [p, q, r]
        rng.shuffle(triple)
        cases.append(cusp_case(*triple))
    return cases


SWEEPS = {"lattice-sweep": lattice_sweep, "rep-sweep": rep_sweep}
