import cmath
import json
import random
from collections import Counter
from fractions import Fraction
from math import isqrt, lcm, prod

import pytest
import sympy
from sympy.matrices.normalforms import invariant_factors

from cf_lattice import (
    DegenerateLatticeError,
    Lattice,
    Sublattice,
    direct_sum,
    discriminant_data,
    fqf_isomorphic,
    genus_invariants,
    lattice_from_json,
    lattice_to_json,
    orthogonal_complement,
    saturation,
    saturation_index,
    span_sublattice,
    standard_lattice,
    vector_divisibility,
)
from cf_lattice import intlinalg
from cf_lattice.niemeier import entries_with_e_summand
from cf_lattice.period import build_period_model, glue_unimodular_26_2

I_21_2 = standard_lattice("I_{21,2}")
H = tuple([1] * 21 + [3, 3])


def test_standard_lattices_conventional_grams():
    assert standard_lattice("A2").gram == ((2, -1), (-1, 2))
    assert standard_lattice("U").gram == ((0, 1), (1, 0))
    assert standard_lattice("diag(5)").gram == ((5,),)
    e8 = standard_lattice("E8")
    assert e8.det() == 1
    assert e8.is_even()
    d4 = standard_lattice("D4")
    assert d4.det() == 4
    # the D4 fork: three nodes attached to the center
    center_degree = max(sum(1 for x in row if x == -1) for row in d4.gram)
    assert center_degree == 3


def test_standard_lattice_range_errors():
    for bad in ("A0", "D3", "E9", "E5", "nonsense"):
        with pytest.raises(ValueError):
            standard_lattice(bad)


def test_direct_sum_signature_and_det():
    u = standard_lattice("U")
    uu = direct_sum(u, u)
    assert uu.signature() == (2, 2)
    e8e8a2 = direct_sum(standard_lattice("E8"), standard_lattice("E8"),
                        standard_lattice("A2"))
    assert e8e8a2.rank == 18
    assert e8e8a2.det() == 3
    # det of diag(1 x p, -1 x q) is (-1)^q; two negative entries give +1
    assert I_21_2.det() == 1
    assert standard_lattice("I_{2,1}").det() == -1


def test_inner_product_examples():
    u = standard_lattice("U")
    assert u.inner((1, 0), (0, 1)) == 1
    assert I_21_2.inner(H, H) == 3
    a2 = standard_lattice("A2")
    assert a2.inner((1, 0), (0, 1)) == -1
    with pytest.raises(ValueError):
        u.inner((1, 0, 0), (0, 1))


def test_complement_of_polarization():
    comp = orthogonal_complement(I_21_2, span_sublattice(I_21_2, [H]))
    lat = comp.lattice()
    assert lat.rank == 22
    assert lat.is_even()
    assert lat.signature() == (20, 2)
    assert discriminant_data(lat).form.invariant_factors == (3,)
    # exact annihilation of every returned row against the input
    for row in comp.basis:
        assert I_21_2.inner(row, H) == 0


def test_complement_may_be_degenerate_but_flagged():
    amb = direct_sum(standard_lattice("U"), standard_lattice("diag(2)"))
    iso = (1, 0, 0)  # isotropic in the hyperbolic plane
    comp = orthogonal_complement(amb, span_sublattice(amb, [iso]))
    assert comp.contains(iso)
    assert comp.lattice().is_degenerate()


def test_complement_of_e6_in_e7_is_norm6_line():
    e7 = standard_lattice("E7")
    e6_rows = tuple(tuple(1 if j == i else 0 for j in range(7)) for i in range(6))
    comp = orthogonal_complement(e7, span_sublattice(e7, e6_rows))
    assert comp.rank == 1
    assert comp.induced_gram() == ((6,),)


def test_saturation_examples():
    u = standard_lattice("U")
    sub = span_sublattice(u, [(2, 0)])
    sat = saturation(u, sub)
    assert sat.basis == ((1, 0),)
    assert saturation_index(u, sub) == 2
    # idempotence
    again = saturation(u, sat)
    assert again.basis == sat.basis


def test_zero_sublattice_saturation_and_complement():
    a2 = standard_lattice("A2")
    zero = span_sublattice(a2, [(0, 0)])
    assert zero.basis == ()
    assert saturation(a2, zero).basis == ()
    assert saturation_index(a2, zero) == 1
    assert not zero.lattice().is_degenerate()
    assert orthogonal_complement(a2, zero).basis == ((1, 0), (0, 1))


def test_from_ambient_and_contains_match_sympy():
    """c * B = v solved by sympy: a unique integral c, a non-integral c, or no c at all."""
    rng = random.Random(17)
    lat = standard_lattice("I_{4,1}")
    seen = {"in": 0, "span only": 0, "outside": 0}
    for k in (1, 2, 3, 4) * 3:
        b = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(k)]
        if sympy.Matrix(b).rank() < k:
            continue
        b[0] = [2 * x for x in b[0]]
        sub = Sublattice(lat, tuple(tuple(r) for r in b))
        c = [rng.randint(-4, 4) for _ in range(k)]
        combination = [sum(ci * row[j] for ci, row in zip(c, b)) for j in range(5)]
        half_first = [x + y // 2 for x, y in zip(combination, b[0])]
        for v in (combination, half_first, [rng.randint(-4, 4) for _ in range(5)]):
            v = tuple(v)
            try:
                sol, params = sympy.Matrix(b).T.gauss_jordan_solve(sympy.Matrix(v))
            except ValueError:  # sympy: inconsistent system
                seen["outside"] += 1
                with pytest.raises(ValueError, match="does not lie in the sublattice span"):
                    sub.from_ambient(v)
                assert not sub.contains(v)
                continue
            assert not params  # independent rows: the solution is unique
            if all(x.is_integer for x in sol):
                seen["in"] += 1
                assert sub.from_ambient(v) == tuple(int(x) for x in sol)
                assert sub.contains(v)
            else:
                seen["span only"] += 1
                with pytest.raises(ValueError, match="lies in the span but not in the sublattice"):
                    sub.from_ambient(v)
                assert not sub.contains(v)
    assert min(seen.values()) >= 5
    zero = Sublattice(lat, ())
    assert zero.from_ambient((0,) * 5) == ()
    assert zero.contains((0,) * 5)
    with pytest.raises(ValueError, match="does not lie in the sublattice span"):
        zero.from_ambient((1, 0, 0, 0, 0))
    assert not zero.contains((1, 0, 0, 0, 0))
    for v in ((1, 0, 0, 0), (1, 0, 0, 0, 0, 0)):
        with pytest.raises(ValueError, match="ambient rank"):
            sub.from_ambient(v)
        assert not sub.contains(v)


@pytest.fixture(scope="module")
def period_model():
    return build_period_model()


@pytest.fixture(scope="module")
def core_and_e6_image(period_model):
    return period_model.core, glue_unimodular_26_2(period_model).e6_image


def reference_from_ambient(sub, v):
    """The adjugate solver: det(B B^T) c = (v B^T) adj(B B^T), the span checked first."""
    if len(v) != sub.ambient.rank:
        raise ValueError("vector length does not match the ambient rank")
    b = [list(r) for r in sub.basis]
    d, adj = intlinalg.adjugate(intlinalg.mat_mul(b, intlinalg.transpose(b)))
    scaled = intlinalg.mat_vec(adj, intlinalg.mat_vec(b, list(v)))
    if any(sum(c * row[j] for c, row in zip(scaled, b)) != d * x for j, x in enumerate(v)):
        raise ValueError("vector does not lie in the sublattice span")
    if any(c % d for c in scaled):
        raise ValueError("vector lies in the span but not in the sublattice")
    return tuple(c // d for c in scaled)


def _coordinates_or_message(solve, v):
    try:
        return solve(v)
    except ValueError as exc:
        return str(exc)


def _skewed_sublattice(rng, lat, r):
    """(S, A): A holds r seeded independent rows, and S is spanned by A with its first
    row times 2 or 3, in a basis skewed by 3r seeded unimodular row steps."""
    n = lat.rank
    while True:
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(r)]
        if intlinalg.rank(a) == r:
            break
    b = [list(row) for row in a]
    b[0] = [rng.choice((2, 3)) * x for x in b[0]]
    for _ in range(3 * r if r > 1 else 0):
        i, j = rng.sample(range(r), 2)
        c = rng.choice((-2, -1, 1, 2))
        b[i] = [x + c * y for x, y in zip(b[i], b[j])]
    return Sublattice(lat, tuple(map(tuple, b))), a


def test_from_ambient_equals_the_adjugate_solver(core_and_e6_image):
    """The Hermite solver returns the adjugate solver's coordinates or its message, and
    `contains` agrees, on seeded skewed sublattices of rank 1-12 in ambients of rank up
    to 14, on the core and on the E6 image in II_{26,2}: lattice vectors, vectors of the
    span only (a lattice vector plus A's first row) and vectors outside the span."""
    rng = random.Random(29)
    cases = []
    for r in range(1, 13):
        for n in sorted({r, min(r + 1, 14), rng.randint(r, 14), 14}):
            ambient = Lattice(tuple(map(tuple, intlinalg.identity(n))))
            sub, a = _skewed_sublattice(rng, ambient, r)
            for _ in range(3):
                c = [rng.randint(-4, 4) for _ in range(r)]
                in_lattice = intlinalg.mat_mul([c], [list(row) for row in sub.basis])[0]
                span_only = [x + y for x, y in zip(in_lattice, a[0])]
                off = [x + rng.randint(-1, 1) for x in in_lattice]
                cases += [(sub, v) for v in (in_lattice, span_only, off)]
    for sub in core_and_e6_image:
        rows = [list(row) for row in sub.basis]
        for _ in range(6):
            v = intlinalg.mat_mul([[rng.randint(-3, 3) for _ in rows]], rows)[0]
            cases += [(sub, v), (sub, [x + (j == 0) for j, x in enumerate(v)])]
    seen = Counter()
    for sub, v in cases:
        v = tuple(v)
        got = _coordinates_or_message(sub.from_ambient, v)
        assert got == _coordinates_or_message(lambda u: reference_from_ambient(sub, u), v)
        assert sub.contains(v) == isinstance(got, tuple)
        seen[got if isinstance(got, str) else "in the sublattice"] += 1
    assert len(seen) == 3 and min(seen.values()) >= 40


def test_sublattice_rows_must_have_ambient_length():
    a2 = standard_lattice("A2")
    with pytest.raises(ValueError, match="ambient rank"):
        Sublattice(a2, ((1, 0, 0),))
    with pytest.raises(ValueError, match="ambient rank"):
        span_sublattice(a2, [(1, 0, 0)])


def test_saturation_of_primitive_is_identity():
    e8 = standard_lattice("E8")
    sub = span_sublattice(e8, [(1, 0, 0, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0, 0)])
    assert saturation(e8, sub).basis == sub.basis


def gram_det_ratio_index(lat, sub):
    """[sat(S) : S] as the square root of det(B B^T) / det(B' B'^T), B' a basis of sat(S)."""
    def gram_det(rows):
        b = [list(r) for r in rows]
        return abs(intlinalg.det(intlinalg.mat_mul(b, intlinalg.transpose(b))))
    ratio, rest = divmod(gram_det(sub.basis), gram_det(saturation(lat, sub).basis))
    root = isqrt(ratio)
    assert rest == 0 and root * root == ratio
    return root


@pytest.mark.parametrize("r", range(9))
def test_saturation_index_matches_the_gram_det_ratio(r):
    """Seeded rank-r sublattices of Z^10, their saturations (index 1) and images
    under a triangular T with diagonal entries 1-3 (index times det T)."""
    rng = random.Random(2400 + r)
    lat = standard_lattice("I_{10,0}")
    indices = set()
    for _ in range(6):
        rows = [[rng.randint(-4, 4) for _ in range(10)] for _ in range(r)]
        if intlinalg.rank(rows) < r:
            continue
        sub = Sublattice(lat, tuple(map(tuple, rows)))
        k = saturation_index(lat, sub)
        assert k == gram_det_ratio_index(lat, sub)
        assert saturation_index(lat, saturation(lat, sub)) == 1
        t = [[rng.randint(1, 3) if i == j else rng.randint(-2, 2) * (j < i)
              for j in range(r)] for i in range(r)]
        scaled = Sublattice(lat, tuple(map(tuple, intlinalg.mat_mul(t, rows))))
        det_t = prod(t[i][i] for i in range(r))
        assert saturation_index(lat, scaled) == gram_det_ratio_index(lat, scaled) == k * det_t
        indices.add(k * det_t)
    assert indices == {1} if r == 0 else max(indices) > 1


def test_index_squared_law_definite():
    # |det S| |det S^perp| / |det L| is the square of [L : S + S^perp]
    e8 = standard_lattice("E8")
    e6_rows = tuple(tuple(1 if j == i else 0 for j in range(8)) for i in range(6))
    sub = span_sublattice(e8, e6_rows)
    comp = orthogonal_complement(e8, sub)
    ds = abs(intlinalg.det(sub.induced_gram()))
    dc = abs(intlinalg.det(comp.induced_gram()))
    ratio = ds * dc // abs(e8.det())
    root = isqrt(ratio)
    assert root * root == ratio == 9


def test_discriminant_group_orders():
    assert discriminant_data(standard_lattice("A2")).form.invariant_factors == (3,)
    assert discriminant_data(standard_lattice("E8")).form.is_trivial()
    assert discriminant_data(standard_lattice("E7")).form.invariant_factors == (2,)
    assert discriminant_data(standard_lattice("D16")).form.invariant_factors == (2, 2)
    assert discriminant_data(standard_lattice("A17")).form.invariant_factors == (18,)
    with pytest.raises(DegenerateLatticeError):
        discriminant_data(Lattice(((0,),)))


def test_discriminant_data_reads_degeneracy_off_the_smith_form(monkeypatch):
    """No determinant before the Smith form: a zero invariant factor is det G = 0."""
    def forbidden(*args):
        raise AssertionError("a determinant was computed")

    monkeypatch.setattr(intlinalg, "det", forbidden)
    monkeypatch.setattr(Lattice, "det", forbidden)
    assert discriminant_data(standard_lattice("E7")).form.invariant_factors == (2,)
    assert discriminant_data(Lattice(())).form.is_trivial()
    for gram in (((0,),), ((2, 2), (2, 2)), ((2, 1, 3), (1, 2, 3), (3, 3, 6))):
        with pytest.raises(DegenerateLatticeError):
            discriminant_data(Lattice(gram))


def test_disc_group_order_equals_det_on_random_lattices():
    rng = random.Random(11)
    done = 0
    while done < 100:
        n = rng.randint(1, 4)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = rng.randint(-5, 5)
        lat = Lattice(tuple(tuple(r) for r in g))
        d = lat.det()
        if d == 0:
            continue
        assert discriminant_data(lat).form.order == abs(d)
        done += 1


def _seeded_nondegenerate_grams():
    """Random symmetric Grams (odd or even, often indefinite) and A-D-E sums in skewed bases."""
    rng = random.Random(29)
    grams = []
    while len(grams) < 16:
        n = rng.randint(2, 5)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = rng.randint(-4, 4)
            if len(grams) % 2:
                g[i][i] *= 2
        if sympy.Matrix(g).det():
            grams.append(g)
    grams.extend(_skewed_sum(rng, labels) for labels in SKEWED_SUM_DETS)
    return grams


# |det| of each A-D-E sum (U is the hyperbolic plane), which a unimodular basis change keeps
SKEWED_SUM_DETS = {("A3", "D5"): 16, ("E6", "A2"): 9, ("D4", "D4"): 16, ("A1", "A1", "E7"): 8,
                   ("A4", "U"): 5}


def _skewed_sum(rng, labels):
    """U G U^T for the direct sum of `labels`: 3n seeded row steps row i += sign * row j,
    one sign per step, so U is unimodular and the lattice is the same."""
    g = [list(r) for r in direct_sum(*(standard_lattice(x) for x in labels)).gram]
    n = len(g)
    u = intlinalg.identity(n)
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        sign = rng.choice((-1, 1))
        u[i] = [a + sign * b for a, b in zip(u[i], u[j])]
    return intlinalg.mat_mul(intlinalg.mat_mul(u, g), intlinalg.transpose(u))


def test_seeded_skewed_sums_keep_their_determinant():
    skewed = _seeded_nondegenerate_grams()[-len(SKEWED_SUM_DETS):]
    assert [abs(sympy.Matrix(g).det()) for g in skewed] == list(SKEWED_SUM_DETS.values())
    assert all(g != [list(r) for r in direct_sum(*(standard_lattice(x) for x in labels)).gram]
               for g, labels in zip(skewed, SKEWED_SUM_DETS))


@pytest.mark.parametrize("g", _seeded_nondegenerate_grams())
def test_discriminant_data_matches_sympy(g):
    """Invariant factors are sympy's; lift i lies in L*, has order d_i in L*/L, the lifts
    generate L*/L, and q and b are the values of the lifts."""
    lat = Lattice(tuple(tuple(r) for r in g))
    data = discriminant_data(lat)
    factors = [abs(int(x)) for x in invariant_factors(sympy.Matrix(g))]
    assert data.form.invariant_factors == tuple(x for x in factors if x > 1)
    pairings = []
    for lift, d in zip(data.lifts, data.form.invariant_factors):
        pairing = [sum(gij * x for gij, x in zip(row, lift)) for row in g]
        assert all(x.denominator == 1 for x in pairing)  # lift in L*
        assert all((d * x).denominator == 1 for x in lift)
        for p in sympy.primefactors(d):
            assert any((d // p * x).denominator != 1 for x in lift)
        pairings.append([int(x) for x in pairing])
    # L* / L in pairing coordinates is Z^n / G Z^n: the lifts generate it
    assert set(invariant_factors(sympy.Matrix(g + pairings))) == {1}

    def value(x, y):
        return sum(x[i] * g[i][j] * y[j] for i in range(len(g)) for j in range(len(g)))

    lifts = data.lifts
    assert data.form.b == tuple(tuple(value(x, y) % 1 for y in lifts) for x in lifts)
    if lat.is_even():
        assert data.form.q == tuple(value(x, x) % 2 for x in lifts)
    else:
        assert data.form.q is None
    assert all(isinstance(x, Fraction) for lift in lifts for x in lift)


def test_disc_quadratic_values():
    # Milgram: an even lattice of signature s has Gauss-sum argument s mod 8,
    # which pins q = 2/3 for the polarization complement and 4/3 for E6
    comp = orthogonal_complement(I_21_2, span_sublattice(I_21_2, [H]))
    q_core = discriminant_data(comp.lattice()).form.q[0]
    q_a2 = discriminant_data(standard_lattice("A2")).form.q[0]
    q_e6 = discriminant_data(standard_lattice("E6")).form.q[0]
    assert str(q_core) == "2/3"
    assert q_core == q_a2
    assert str(q_e6) == "4/3"
    assert (q_core + q_e6) % 2 == 0


def _milgram_sides(form, signature):
    """Both sides of Milgram's formula for an even lattice's discriminant form:
    sum over x in A of exp(pi i q(x)), and sqrt|A| exp(2 pi i (p - n) / 8).
    Complex floats, in this oracle only; the library stays exact."""
    p, n = signature
    gauss = sum(cmath.exp(1j * cmath.pi * form.q_of(x) / form.exponent) for x in form.elements())
    return gauss, cmath.sqrt(form.order) * cmath.exp(2j * cmath.pi * (p - n) / 8)


def _squarefree_divisors(m):
    """The squarefree t | m, each with its Moebius sign (-1)^(number of primes of t)."""
    out, k, p = [(1, 1)], m, 2
    while k > 1:
        if p * p > k:
            p = k
        if k % p == 0:
            out += [(t * p, -mu) for t, mu in out]
            while k % p == 0:
                k //= p
        p += 1
    return out


def _divided_by_binomial(poly, d):
    """poly / (x^d - 1) if it divides exactly, else None; coefficients lowest first."""
    quotient = []
    for i in range(len(poly) - d):
        quotient.append((quotient[i - d] if i >= d else 0) - poly[i])
    top = poly[len(poly) - d:]
    if [quotient[i] if i >= 0 else 0 for i in range(len(quotient) - d, len(quotient))] != top:
        return None
    return quotient


def _milgram_holds_exactly(form, signature):
    """S^2 = |A| i^(p - n) for S = sum over x in A of zeta_2N^(N q(x)), in Z[zeta_M].

    With M = lcm(2N, 8), an element of Z[zeta_M] is an integer polynomial of
    degree < M in zeta = zeta_M, and it is 0 iff the M-th cyclotomic
    polynomial divides it. Phi_M = prod over squarefree t | M of
    (x^(M/t) - 1)^mu(t), so Phi_M divides T iff the binomials with mu = 1
    divide T times those with mu = -1: shifts and exact divisions, no floats.
    """
    p, n = signature
    big_n = form.exponent
    m = lcm(2 * big_n, 8)
    counts = Counter(form.q_of(x) * (m // (2 * big_n)) for x in form.elements())
    poly = [0] * m
    for e1, c1 in counts.items():
        for e2, c2 in counts.items():
            poly[(e1 + e2) % m] += c1 * c2
    poly[m // 4 * (p - n) % m] -= form.order
    for t, mu in _squarefree_divisors(m):
        if mu == -1:  # times x^(m/t) - 1
            d = m // t
            poly = [(poly[i - d] if i >= d else 0) - (poly[i] if i < len(poly) else 0)
                    for i in range(len(poly) + d)]
    for t, mu in _squarefree_divisors(m):
        if mu == 1:
            poly = _divided_by_binomial(poly, m // t)
            if poly is None:
                return False
    return True


def _check_milgram(lat):
    form = discriminant_data(lat).form
    p, n = lat.signature()
    gauss, expected = _milgram_sides(form, (p, n))
    assert abs(gauss - expected) < 1e-9, lat.gram  # fixes the sign of S
    assert _milgram_holds_exactly(form, (p, n)), lat.gram
    assert not _milgram_holds_exactly(form, (p + 2, n)), lat.gram  # -S^2, never S^2


def _milgram_lattices():
    e6_negative = Lattice(tuple(tuple(-x for x in r) for r in standard_lattice("E6").gram))
    cases = {label: standard_lattice(label)
             for label in ("A1", "A2", "A7", "D4", "D5", "E6", "E7", "E8")}
    cases["core_20_2"] = orthogonal_complement(I_21_2, span_sublattice(I_21_2, [H])).lattice()
    cases["A2+E6"] = direct_sum(standard_lattice("A2"), standard_lattice("E6"))
    cases["U+A2"] = direct_sum(standard_lattice("U"), standard_lattice("A2"))
    cases["E6(-1)+A1"] = direct_sum(e6_negative, standard_lattice("A1"))
    for entry in entries_with_e_summand():  # the rank-24 root sums, |A| up to 144
        cases[str(entry.root_system)] = direct_sum(
            *(standard_lattice(f"{f}{n}") for f, n in entry.root_system.components))
    rng = random.Random(41)
    for labels in SKEWED_SUM_DETS:
        cases["skewed-" + "+".join(labels)] = Lattice(tuple(map(tuple, _skewed_sum(rng, labels))))
    return cases


MILGRAM_CASES = _milgram_lattices()


@pytest.mark.parametrize("label", list(MILGRAM_CASES))
def test_discriminant_form_satisfies_milgram(label):
    lat = MILGRAM_CASES[label]
    assert lat.is_even()
    _check_milgram(lat)


def _random_even_lattices(rng, definite, indefinite):
    """Seeded random even nondegenerate lattices of rank 2-6 with 1 < |A| = |det| <= 3,000:
    the first `definite` of them (positive or negative) definite, the rest indefinite."""
    found = {True: [], False: []}
    want = {True: definite, False: indefinite}
    while any(len(found[k]) < want[k] for k in want):
        n = rng.randint(2, 6)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 2 * rng.randint(-2, 4)
            for j in range(i + 1, n):
                g[i][j] = g[j][i] = rng.randint(-2, 2)
        lat = Lattice(tuple(map(tuple, g)))
        if not 1 < abs(lat.det()) <= 3000:
            continue
        kind = 0 in lat.signature()
        if len(found[kind]) < want[kind]:
            found[kind].append(lat)
    return found[True] + found[False]


def test_milgram_on_seeded_random_even_lattices():
    lattices = _random_even_lattices(random.Random(43), 17, 18)
    assert len({lat.gram for lat in lattices}) == 35
    for lat in lattices:
        _check_milgram(lat)


def test_milgram_rejects_a2_with_the_q_value_of_e6():
    # A2 and E6 both have discriminant group Z/3; swapping in E6's q = 4/3
    # conjugates the Gauss sum, which then matches signature 6, not 2
    form = discriminant_data(standard_lattice("A2")).form
    wrong = form.replace(q_num=(4,))
    gauss, expected = _milgram_sides(wrong, (2, 0))
    assert abs(gauss - expected) > 1
    assert abs(gauss - _milgram_sides(wrong, (6, 0))[1]) < 1e-9
    # S^2 sees p - n mod 4 only, so the exact check passes both: the sign of S is cmath's
    assert _milgram_holds_exactly(wrong, (2, 0)) and _milgram_holds_exactly(form, (6, 0))
    assert not _milgram_holds_exactly(form, (4, 0))


def test_fqf_isomorphism():
    comp = orthogonal_complement(I_21_2, span_sublattice(I_21_2, [H]))
    core_disc = discriminant_data(comp.lattice()).form
    a2_disc = discriminant_data(standard_lattice("A2")).form
    e6_disc = discriminant_data(standard_lattice("E6")).form
    assert fqf_isomorphic(core_disc, a2_disc)
    assert not fqf_isomorphic(core_disc, e6_disc)
    # sign flip: negating the Gram negates q
    neg_a2 = Lattice(((-2, 1), (1, -2)))
    assert fqf_isomorphic(discriminant_data(neg_a2).form, e6_disc)
    # trivial vs trivial
    t = discriminant_data(standard_lattice("E8")).form
    assert fqf_isomorphic(t, t)
    # Z/2 with q = 1/2 vs q = 3/2
    plus = discriminant_data(Lattice(((2,),))).form
    minus = discriminant_data(Lattice(((-2,),))).form
    assert not fqf_isomorphic(plus, minus)


def test_fqf_isomorphism_order_cap():
    big = Lattice(((202,),))
    with pytest.raises(ValueError):
        fqf_isomorphic(discriminant_data(big).form, discriminant_data(big).form)


def test_genus_invariants_examples():
    u = genus_invariants(standard_lattice("U"))
    assert (u.rank, u.signature, u.even) == (2, (1, 1), True)
    assert u.disc.is_trivial()
    i212 = genus_invariants(I_21_2)
    assert (i212.rank, i212.signature, i212.even) == (23, (21, 2), False)
    assert i212.disc.is_trivial()


@pytest.mark.parametrize("gram", [((0,),), ((2, 2), (2, 2)), ((0, 1, 1), (1, 0, 1), (1, 1, 2))])
def test_genus_invariants_reject_degenerate_grams(gram):
    """A degenerate Gram has no signature pair, so `Lattice.signature` raises, and
    no determinant is taken first."""
    with pytest.raises(DegenerateLatticeError):
        genus_invariants(Lattice(gram))


def test_vector_divisibility():
    e8 = standard_lattice("E8")
    assert vector_divisibility(e8, (1, 0, 0, 0, 0, 0, 0, 0)) == 1
    u = standard_lattice("U")
    assert vector_divisibility(u, (2, 0)) == 2
    with pytest.raises(ValueError):
        vector_divisibility(u, (0, 0))


def test_asymmetric_grams_raise_as_tuples_and_as_lists():
    """One entry off its mirror, at eight places of a 24x24 Gram or in a 2x2 one,
    raises ValueError whether the rows are tuples or lists; symmetric Grams build."""
    g = [list(r) for r in direct_sum(standard_lattice("E8"), standard_lattice("D16")).gram]
    positions = [(0, 1), (1, 0), (0, 23), (23, 0), (22, 23), (23, 22), (7, 8), (12, 5)]
    for i, j in positions:
        bad = [list(r) for r in g]
        bad[i][j] += 1
        for gram in (tuple(map(tuple, bad)), bad):
            with pytest.raises(ValueError, match="symmetric"):
                Lattice(gram)
    for gram in (((2, 1), (0, 2)), [[2, 1], [0, 2]], [[0, -1], [1, 0]]):
        with pytest.raises(ValueError, match="symmetric"):
            Lattice(gram)
    with pytest.raises(ValueError, match="square"):
        Lattice([[2, 1], [1]])
    assert Lattice(tuple(map(tuple, g))).det() == Lattice(g).det() == 4


def test_json_round_trip_and_big_integers():
    lat = standard_lattice("A2")
    assert lattice_from_json(lattice_to_json(lat)) == lat
    big = 2 ** 60
    huge = Lattice(((big,),), name="huge")
    text = lattice_to_json(huge)
    doc = json.loads(text)
    assert isinstance(doc["gram"][0][0], str)  # beyond 2^53: decimal string
    assert lattice_from_json(text) == huge
    small = Lattice(((7,),))
    assert isinstance(json.loads(lattice_to_json(small))["gram"][0][0], int)


def test_json_rejects_malformed():
    for text in ('{"gram": [[1.5]]}', "[1, 2]", '{"name": 5, "gram": [[2]]}',
                 '{"name": null, "gram": [[2]]}', '{"gram": 5}', '{"gram": [5]}'):
        with pytest.raises(ValueError):
            lattice_from_json(text)


def test_induced_gram_consistency():
    # basis . gram . basis^T equals the reported induced Gram, for complements
    rng = random.Random(12)
    for _ in range(20):
        n = rng.randint(2, 4)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = rng.randint(-3, 3)
        lat = Lattice(tuple(tuple(r) for r in g))
        if lat.det() == 0:
            continue
        v = tuple(rng.randint(-2, 2) for _ in range(n))
        if not any(v):
            continue
        comp = orthogonal_complement(lat, span_sublattice(lat, [v]))
        b = [list(r) for r in comp.basis]
        expected = intlinalg.mat_mul(intlinalg.mat_mul(b, [list(r) for r in lat.gram]),
                                     intlinalg.transpose(b))
        assert [list(r) for r in comp.induced_gram()] == expected


def test_induced_gram_equals_the_b_g_then_b_transpose_order(period_model, core_and_e6_image):
    """B (B G)^T is (B G) B^T item by item: on the core, the E6 image in II_{26,2} and
    the monodromy check's rank-2 sublattice and its rank-21 complement, and on seeded
    sparse bases (Hermite complements and few-entry rows) in dense Grams of rank up
    to 40."""
    h, delta = period_model.polarization, period_model.long_root
    second = tuple(a - (a + b) // 3 for a, b in zip(h, delta))
    fixed = span_sublattice(I_21_2, [h, second])
    subs = [*core_and_e6_image, Sublattice(I_21_2, (h, second)),
            orthogonal_complement(I_21_2, fixed)]
    rng = random.Random(37)
    for n in (3, 8, 17, 40):
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = rng.randint(-9, 9)
        lat = Lattice(tuple(map(tuple, g)))
        sparse = [[rng.choice((-1, 1)) if rng.random() < 0.2 else 0 for _ in range(n)]
                  for _ in range(n // 2)]
        subs.append(span_sublattice(lat, sparse))
        if not lat.is_degenerate():
            line = span_sublattice(lat, [[rng.randint(-2, 2) for _ in range(n)]])
            subs.append(orthogonal_complement(lat, line))
    for sub in subs:
        b = [list(r) for r in sub.basis]
        expected = intlinalg.mat_mul(intlinalg.mat_mul(b, [list(r) for r in sub.ambient.gram]),
                                     intlinalg.transpose(b))
        assert sub.induced_gram() == tuple(map(tuple, expected))
    assert len(subs) >= 10


# -- q_of and b_of against the Fraction sums they replaced ---------------------------

def reference_q_of(form, x):
    """`FiniteQuadraticForm.q_of` as it was: a Fraction sum over the generators."""
    if form.q is None:
        raise ValueError("quadratic values not defined (odd lattice)")
    total = sum((Fraction(a * a) * qq for a, qq in zip(x, form.q)), Fraction(0))
    k = len(x)
    for i in range(k):
        for j in range(i + 1, k):
            total += 2 * x[i] * x[j] * form.b[i][j]
    return total % 2


def reference_b_of(form, x, y):
    """`FiniteQuadraticForm.b_of` as it was."""
    total = Fraction(0)
    k = len(x)
    for i in range(k):
        for j in range(k):
            total += x[i] * y[j] * form.b[i][j]
    return total % 1


def _forms_for_value_checks():
    """Discriminant forms of the six Niemeier root sums, the polarization core (Z/3),
    seeded A-D-E sums in skewed bases and seeded random Grams, odd ones included;
    groups of order at most 144, the largest a Niemeier root sum has."""
    lats = [direct_sum(*(standard_lattice(f"{f}{n}") for f, n in e.root_system.components))
            for e in entries_with_e_summand()]
    lats.append(orthogonal_complement(I_21_2, span_sublattice(I_21_2, [H])).lattice())
    rng = random.Random(30)
    labels = ("A1", "A2", "A3", "A4", "A5", "A7", "D4", "D5", "D6", "E6", "E7")
    for _ in range(8):
        sum_labels = rng.sample(labels, rng.randint(1, 3))
        lats.append(Lattice(tuple(map(tuple, _skewed_sum(rng, sum_labels)))))
    lats.extend(Lattice(tuple(map(tuple, g))) for g in _seeded_nondegenerate_grams()[:16])
    forms = [discriminant_data(lat).form for lat in lats]
    return [f for f in forms if f.order <= 144]


def test_q_of_and_b_of_equal_the_fraction_sums(time_budget):
    forms = _forms_for_value_checks()
    assert sum(f.q is None for f in forms) >= 4 and max(f.order for f in forms) == 144
    for form in forms:
        elements = list(form.elements())
        others = elements if form.order <= 36 else elements[::7]
        for x in elements:
            if form.q is None:
                with pytest.raises(ValueError):
                    form.q_of(x)
            else:
                got = form.q_of(x)
                assert type(got) is int
                assert Fraction(got, form.exponent) == reference_q_of(form, x)
            for y in others:
                got = form.b_of(x, y)
                assert type(got) is int
                assert Fraction(got, form.exponent) == reference_b_of(form, x, y)


def test_q_of_is_the_norm_of_a_lift_mod_2():
    """q(x) = x^2 mod 2 for the lift of x, on the A11+D7+E6 form (order 144)."""
    lat = direct_sum(*map(standard_lattice, ("A11", "D7", "E6")))
    data = discriminant_data(lat)
    n = data.exponent
    for x in data.form.elements():
        v = data.lift(x)
        assert Fraction(data.form.q_of(x), n) == Fraction(lat.norm(v), n * n) % 2


def test_det_and_signature_share_one_elimination(monkeypatch):
    """`Lattice.det` is the last pivot of `symmetric_bareiss` (0 with a nullity, 1 at
    rank 0) and equals `intlinalg.det` on seeded sparse Grams of ranks 0-7, degenerate
    ones included; `det`, `signature` and `is_degenerate` of one object eliminate once."""
    rng = random.Random(31)
    degenerate = 0
    for _ in range(1500):
        n = rng.randint(0, 7)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if rng.random() < 0.35:
                    g[i][j] = g[j][i] = rng.randint(-3, 3)
        lat = Lattice(tuple(map(tuple, g)))
        d = intlinalg.det(g)
        assert lat.det() == d
        assert lat.is_degenerate() == (d == 0)
        pivots, _, nullity = intlinalg.symmetric_bareiss(g)
        pos, neg, zero = intlinalg.pivot_signature(pivots, nullity)
        assert (zero == 0) == (d != 0)
        if zero:
            degenerate += 1
            with pytest.raises(DegenerateLatticeError):
                lat.signature()
        else:
            assert lat.signature() == (pos, neg)
    assert degenerate > 300

    calls = []
    bareiss = intlinalg.symmetric_bareiss
    monkeypatch.setattr(intlinalg, "symmetric_bareiss", lambda g: calls.append(g) or bareiss(g))
    lat = standard_lattice("I_{21,2}")
    assert lat.det() == 1 and len(calls) == 1
    assert (lat.signature(), lat.is_degenerate(), lat.det()) == ((21, 2), False, 1)
    assert len(calls) == 1
