import random
from itertools import combinations, combinations_with_replacement, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from cf_lattice import checks, plethysm
from cf_lattice.plethysm import (
    MAX_CHARACTER_WORK,
    MAX_NESTING,
    ROW_STEPS,
    SL2,
    SL3,
    CharacterPoly,
    ParseError,
    VirtualCharacterError,
    WorkCapError,
    decompose,
    decomposition_from_summands,
    irreducible_character,
    irrep_dimension,
    normal_slice,
    parse_rep_expression,
    standard_character,
    sym_power,
    tensor,
    trivial_character,
)


def sym_power_oracle(char, k):
    """Independent oracle: expand the eigenvalue multiset into slots and sum
    monomials over weakly increasing slot tuples."""
    slots = []
    for e, c in char.terms:
        slots.extend([e] * c)
    out = {}
    for combo in combinations_with_replacement(range(len(slots)), k):
        key = tuple(sum(slots[i][j] for i in combo) for j in range(char.nvars))
        out[key] = out.get(key, 0) + 1
    return CharacterPoly.make(char.group, out)


def reference_sym_power(char, k):
    """Reference for sym_power: the same recursion over a list of k + 1 dicts
    from weight to coefficient, with no work cap: each weight w with its whole
    factor (1 - t x^w)^{-c}, d ascending for c > 0 (division) and descending
    for c < 0 (multiplication)."""
    h = [{(0,) * char.nvars: 1}] + [{} for _ in range(k)]
    for e, c in char.terms:
        m = abs(c)
        sign = -1 if c > 0 else 1
        steps = [(tuple(j * x for x in e), sign * (-1) ** j * comb(m, j))
                 for j in range(1, min(m, k) + 1)]
        for d in range(1, k + 1) if c > 0 else range(k, 0, -1):
            hd = h[d]
            for j, (shift, b) in enumerate(steps[:d], 1):
                for x, v in h[d - j].items():
                    y = tuple(p + q for p, q in zip(x, shift))
                    hd[y] = hd.get(y, 0) + b * v
    return CharacterPoly.make(char.group, h[k])


def exterior_power_oracle(char, k):
    """Lambda^k of a genuine character: monomials over strictly increasing slot tuples."""
    slots = []
    for e, c in char.terms:
        slots.extend([e] * c)
    out = {}
    for combo in combinations(range(len(slots)), k):
        key = tuple(sum(slots[i][j] for i in combo) for j in range(char.nvars))
        out[key] = out.get(key, 0) + 1
    return CharacterPoly.make(char.group, out)


def ssyt_oracle(a, b):
    """Gamma_{a,b} by listing the semistandard tableaux of shape (a+b, b), entries 1..3."""
    out = {}
    for top in combinations_with_replacement((1, 2, 3), a + b):
        for bottom in combinations_with_replacement((2, 3), b):
            if all(x < y for x, y in zip(top, bottom)):
                n1, n2, n3 = ((top + bottom).count(i) for i in (1, 2, 3))
                key = (n1 - n3, n2 - n3)
                out[key] = out.get(key, 0) + 1
    return CharacterPoly.make(SL3, out)


def test_irreducible_sl2():
    assert irreducible_character(SL2, 0).terms == (((0,), 1),)
    v = irreducible_character(SL2, 1)
    assert v.as_dict() == {(1,): 1, (-1,): 1}
    assert irreducible_character(SL2, 4).dimension() == 5
    with pytest.raises(ValueError):
        irreducible_character(SL2, -1)


def test_irreducible_sl3_dimensions():
    for a in range(5):
        for b in range(5):
            chi = irreducible_character(SL3, (a, b))
            assert chi.dimension() == (a + 1) * (b + 1) * (a + b + 2) // 2
            assert chi.is_weyl_symmetric()
    assert irreducible_character(SL3, (2, 2)).dimension() == 27


def test_tensor_clebsch_gordan():
    v = standard_character(SL2)
    assert str(decompose(tensor(v, v))) == "Sym^2(V) + C"
    s4 = irreducible_character(SL2, 4)
    dec = decompose(tensor(s4, s4))
    assert [w for w, _ in dec.summands] == [8, 6, 4, 2, 0]
    one = trivial_character(SL2)
    assert tensor(s4, one) == s4


def test_tensor_group_mismatch():
    with pytest.raises(ValueError):
        tensor(standard_character(SL2), standard_character(SL3))


@pytest.mark.parametrize("group,weight,k", [
    (SL2, 1, 3), (SL2, 4, 2), (SL2, 4, 3), (SL3, (1, 0), 3), (SL3, (2, 0), 3),
    (SL3, (1, 1), 2),
])
def test_sym_power_matches_oracle(group, weight, k):
    chi = irreducible_character(group, weight)
    assert sym_power(chi, k) == sym_power_oracle(chi, k)


def test_sym_power_dimension_law():
    for k in range(5):
        for chi in (irreducible_character(SL2, 3),
                    irreducible_character(SL3, (1, 1))):
            n = chi.dimension()
            assert sym_power(chi, k).dimension() == comb(n + k - 1, k)


def test_sym_power_binomial_expansion():
    a = irreducible_character(SL2, 2)
    b = irreducible_character(SL2, 4)
    for k in range(4):
        lhs = sym_power(a + b, k)
        rhs = CharacterPoly(SL2, ())
        for i in range(k + 1):
            rhs = rhs + tensor(sym_power(a, i), sym_power(b, k - i))
        assert lhs == rhs


def test_sym_power_examples():
    # SL2: Sym^2(Sym^4 V) and Sym^3(Sym^4 V)
    s4 = irreducible_character(SL2, 4)
    assert str(decompose(sym_power(s4, 2))) == "Sym^8(V) + Sym^4(V) + C"
    assert sym_power(s4, 2).dimension() == 15
    assert str(decompose(sym_power(s4, 3))) == \
        "Sym^12(V) + Sym^8(V) + Sym^6(V) + Sym^4(V) + C"
    assert sym_power(s4, 3).dimension() == 35
    # SL3: dim Sym^3(Sym^2 V) = C(8,3)
    w = sym_power(standard_character(SL3), 2)
    assert sym_power(w, 3).dimension() == comb(8, 3) == 56


def test_decompose_round_trip():
    dec = decomposition_from_summands(SL2, [(6, 1), (2, 2), (0, 3)])
    assert decompose(dec.character()) == dec
    dec3 = decomposition_from_summands(SL3, [((2, 1), 2), ((0, 0), 1)])
    assert decompose(dec3.character()) == dec3
    assert decompose(CharacterPoly(SL2, ())).summands == ()


def test_decompose_rejects_virtual():
    v = standard_character(SL2)
    with pytest.raises(VirtualCharacterError):
        decompose(v - 3 * trivial_character(SL2))


def test_sl3_cube_of_quadric_space():
    w = sym_power(standard_character(SL3), 2)
    dec = decompose(sym_power(w, 3))
    assert str(dec) == "Gamma_{6,0} + Gamma_{2,2} + C"
    assert dec.dimension() == 56
    dims = [irrep_dimension(SL3, w) for w, _ in dec.summands]
    assert dims == [28, 27, 1]


def test_sl2_cube_of_quartic_plus_line():
    w = sym_power(standard_character(SL2), 4) + trivial_character(SL2)
    dec = decompose(sym_power(w, 3))
    assert str(dec) == "Sym^12(V) + Sym^8(V)^2 + Sym^6(V) + Sym^4(V)^3 + C^3"
    assert dec.dimension() == 56


def omega_slice():
    """The SL(3) point with W = Sym^2 V and stabilizer SL(3)."""
    w = sym_power(standard_character(SL3), 2)
    return normal_slice(sym_power(w, 3), w, irreducible_character(SL3, (1, 1)))


def chi_slice():
    """The SL(2) curve with W = Sym^4 V + C and stabilizer algebra Sym^2 V."""
    w = sym_power(standard_character(SL2), 4) + trivial_character(SL2)
    return normal_slice(sym_power(w, 3), w, irreducible_character(SL2, 2))


def test_normal_slice_omega():
    dec = omega_slice()
    assert str(dec) == "Gamma_{6,0}"
    assert dec.dimension() == 28
    # dimension bookkeeping: 56 - 1 - (35 - 8)
    assert 56 - 1 - (35 - 8) == 28


def test_normal_slice_chi():
    dec = chi_slice()
    assert str(dec) == "Sym^12(V) + Sym^8(V) + C"
    assert dec.dimension() == 23
    assert 56 - 1 - (35 - 3) == 23


@pytest.mark.parametrize("check_id", ["plethysm-omega", "plethysm-chi"])
def test_each_plethysm_check_builds_sym3_w_once(monkeypatch, check_id):
    """The check's own Sym^3 W serves both its cube decomposition and its normal slice."""
    cubes = []

    def counted(a, k):
        if k == 3:
            cubes.append(a)
        return sym_power(a, k)

    monkeypatch.setattr(plethysm, "sym_power", counted)
    assert checks.run_check(check_id).status == "pass"
    assert len(cubes) == 1


def test_adjoint_restriction_through_quadric():
    w = sym_power(standard_character(SL3), 2)
    g = w * w.dual() - trivial_character(SL3)
    dec = decompose(g)
    assert str(dec) == "Gamma_{2,2} + Gamma_{1,1}"
    assert dec.dimension() == 35


def test_weyl_symmetry_of_public_results():
    for chi in (sym_power(standard_character(SL3), 2),
                sym_power(sym_power(standard_character(SL3), 2), 3),
                sym_power(standard_character(SL2), 4),
                chi_slice().character()):
        assert chi.is_weyl_symmetric()


def test_parse_expressions():
    e = parse_rep_expression("Sym^3(Sym^4(V)+C)", SL2)
    assert e.dimension() == 56
    assert parse_rep_expression("V", SL2) == standard_character(SL2)
    assert parse_rep_expression(" Sym^2( V ) ^ 2 ", SL2) == \
        2 * sym_power(standard_character(SL2), 2)
    g = parse_rep_expression("Gamma_{2,2}", SL3)
    assert g.dimension() == 27


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_rep_expression("Sym^2(", SL2)
    assert "position 7" in str(err.value)
    with pytest.raises(ParseError):
        parse_rep_expression("Gamma_{1,1}", SL2)
    with pytest.raises(ParseError):
        parse_rep_expression("V + ", SL2)
    with pytest.raises(ParseError):
        parse_rep_expression("V)", SL2)


def test_parse_nesting_is_bounded():
    def nested(depth):
        return "Sym^1(" * depth + "V" + ")" * depth

    assert parse_rep_expression(nested(MAX_NESTING), SL2) == standard_character(SL2)
    with pytest.raises(ParseError):
        parse_rep_expression(nested(MAX_NESTING + 1), SL2)


def test_irreducible_sl3_matches_tableaux():
    for a, b in product(range(6), repeat=2):
        assert irreducible_character(SL3, (a, b)) == ssyt_oracle(a, b)


_SL2_WEIGHTS = st.integers(0, 4)
_SL3_WEIGHTS = st.tuples(st.integers(0, 2), st.integers(0, 2))


@st.composite
def _summands(draw, group, max_size=3):
    weights = _SL2_WEIGHTS if group == SL2 else _SL3_WEIGHTS
    return draw(st.lists(st.tuples(weights, st.integers(1, 2)), min_size=1, max_size=max_size))


def _character(group, summands):
    return decomposition_from_summands(group, summands).character()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from((SL2, SL3)).flatmap(
    lambda g: st.tuples(st.just(g), _summands(g, max_size=2), st.integers(0, 3))))
def test_sym_power_matches_oracle_on_genuine_characters(case):
    group, summands, k = case
    chi = _character(group, summands)
    if chi.dimension() > 12:
        k = min(k, 2)
    assert sym_power(chi, k) == sym_power_oracle(chi, k)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from((SL2, SL3)).flatmap(
    lambda g: st.tuples(st.just(g), _summands(g, max_size=2), _summands(g, max_size=1),
                        st.integers(0, 3))))
def test_sym_power_of_a_difference_is_the_lambda_ring_expansion(case):
    # Sym^k(a - c) = sum_j (-1)^j Sym^{k-j}(a) Lambda^j(c)
    group, a_summands, c_summands, k = case
    a, c = _character(group, a_summands), _character(group, c_summands)
    rhs = CharacterPoly(group, ())
    for j in range(k + 1):
        rhs = rhs + (-1) ** j * (sym_power(a, k - j) * exterior_power_oracle(c, j))
    assert sym_power(a - c, k) == rhs


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from((SL2, SL3)).flatmap(lambda g: st.tuples(st.just(g), _summands(g))))
def test_decompose_round_trips_random_summands(case):
    group, summands = case
    dec = decomposition_from_summands(group, summands)
    assert decompose(dec.character()) == dec


@pytest.mark.parametrize("chi", [
    irreducible_character(SL2, 2) - trivial_character(SL2),   # weight 0 cancels
    CharacterPoly.make(SL2, {(1,): 1}),                       # not Weyl-symmetric
    CharacterPoly.make(SL3, {(1, 0): 1}),
    irreducible_character(SL3, (1, 1)) - 3 * trivial_character(SL3),
])
def test_decompose_rejects_virtual_and_asymmetric_input(chi):
    with pytest.raises(VirtualCharacterError):
        decompose(chi)


def test_work_cap():
    assert issubclass(WorkCapError, ValueError)
    v = standard_character(SL2)
    big = sym_power(sym_power(v, 40), 40)
    assert big.dimension() == comb(80, 40)
    assert len(decompose(big).summands) == 800
    with pytest.raises(WorkCapError):
        sym_power(v, 100_000_000)
    assert sym_power(10 ** 15 * v, 0) == trivial_character(SL2)
    with pytest.raises(WorkCapError):
        irreducible_character(SL3, (2000, 0))
    assert irreducible_character(SL3, (60, 60)).dimension() == 61 * 61 * 122 // 2
    one = trivial_character(SL2)
    assert sym_power(one, 1000) == one
    with pytest.raises(WorkCapError):  # 10^7 rows of one term each
        sym_power(one, MAX_CHARACTER_WORK)
    zero = CharacterPoly(SL2, ())
    assert sym_power(zero, 10 ** 9) == zero
    assert sym_power(zero, 0) == one


def _adams(char, r):
    return CharacterPoly.make(char.group, {tuple(r * x for x in e): c for e, c in char.terms})


def _halve(char, n):
    assert all(c % n == 0 for _, c in char.terms)
    return CharacterPoly.make(char.group, {e: c // n for e, c in char.terms})


@pytest.mark.parametrize("a", [
    10 ** 6 * standard_character(SL2),                                     # Sym^2(V^1000000)
    sym_power(sym_power(standard_character(SL2), 10), 10),                 # dim 184,756
    sym_power(sym_power(standard_character(SL2), 8), 8),                   # dim 12,870
    irreducible_character(SL2, 4) - 10 ** 6 * trivial_character(SL2) - 3 * standard_character(SL2),
    10 ** 5 * irreducible_character(SL3, (1, 1)) - 7 * standard_character(SL3),
])
def test_sym_power_large_multiplicities_newton(a):
    # Sym^2 = (psi^1^2 + psi^2) / 2 and Sym^3 = (psi^1^3 + 3 psi^1 psi^2 + 2 psi^3) / 6,
    # true in any lambda-ring, so on virtual input too
    assert sym_power(a, 2) == _halve(a * a + _adams(a, 2), 2)
    assert sym_power(a, 3) == _halve(a * a * a + 3 * (a * _adams(a, 2)) + 2 * _adams(a, 3), 6)


def test_parse_rejects_integers_past_the_digit_limit():
    with pytest.raises(ParseError):
        parse_rep_expression("Sym^" + "1" * 5000 + "(V)", SL2)


def _seeded_character(rng, group):
    """A genuine character (irreducibles with multiplicities) or a virtual one
    (random weights, coefficients of either sign), multiplicities up to 10^6."""
    big = rng.choice((3, 10 ** 6))
    if rng.random() < 0.5:
        weights = range(5) if group == SL2 else [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1)]
        summands = [(rng.choice(weights), rng.randint(1, big)) for _ in range(rng.randint(1, 2))]
        return decomposition_from_summands(group, summands).character()
    mapping = {}
    for _ in range(rng.randint(1, 4)):
        e = (rng.randint(-3, 3),) if group == SL2 else (rng.randint(-2, 2), rng.randint(-2, 2))
        mapping[e] = rng.choice((-1, 1)) * rng.randint(1, big)
    return CharacterPoly.make(group, mapping)


@pytest.mark.parametrize("group", [SL2, SL3])
def test_sym_power_matches_the_dict_reference_on_seeded_characters(group):
    rng = random.Random(f"sym-power-reference:{group}")
    virtual = 0
    for _ in range(40):
        chi, k = _seeded_character(rng, group), rng.randint(0, 8)
        virtual += any(c < 0 for _, c in chi.terms)
        assert sym_power(chi, k).terms == reference_sym_power(chi, k).terms
    assert 10 <= virtual <= 30


# Sym^k(Sym^m(V)) and Sym^k(Sym^m(V) + C): small, medium and large shapes for
# each group, up to results of dimension about 4 * 10^7
_SWEEP_SHAPES = (
    [(SL2, k, m) for k in range(2, 5) for m in range(2, 5)]
    + [(SL2, k, m) for k in range(5, 8) for m in range(5, 8)]
    + [(SL2, k, m) for k in range(9, 12) for m in range(8, 11)]
    + [(SL2, 13, 15), (SL2, 14, 14), (SL2, 15, 13)]
    + [(SL3, k, m) for k, m in ((2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (2, 4),
                                (4, 4), (5, 3), (6, 3), (3, 4))])


@pytest.mark.parametrize("group,k,m", _SWEEP_SHAPES)
def test_sym_power_matches_the_dict_reference_on_sweep_shapes(group, k, m):
    inner = reference_sym_power(standard_character(group), m)
    assert sym_power(standard_character(group), m) == inner
    for w in (inner, inner + trivial_character(group)):
        assert sym_power(w, k).terms == reference_sym_power(w, k).terms


# Weight sets whose differences span lattices of every shape the Hermite basis
# of sym_power meets: one point, a horizontal, vertical or slanted line, the
# SL(3) root lattice and a sheared sublattice of index 2, with coefficients of
# either sign
@pytest.mark.parametrize("group,mapping", [
    (SL2, {(4,): 2}),
    (SL2, {(-6,): 1, (3,): -2, (9,): 1}),
    (SL3, {(1, -2): 3}),
    (SL3, {(-2, 5): 1, (0, 5): -1, (4, 5): 2}),
    (SL3, {(3, -3): 1, (3, 0): 2, (3, 6): -1}),
    (SL3, {(-1, 2): 1, (1, 5): 1, (5, 11): -3}),
    (SL3, {(0, 0): -1, (2, 1): 1, (1, 2): 2, (-1, 1): 1, (3, 0): -2}),
    (SL3, {(0, 0): 1, (1, 1): -1, (0, 2): 1, (2, 0): 2, (3, 1): 1}),
    (SL3, {(-12, -3): -1, (12, 0): 10 ** 6, (9, -2): -10 ** 6, (-4, 2): 5}),
])
@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_sym_power_matches_the_dict_reference_on_sublattices(group, mapping, k):
    chi = CharacterPoly.make(group, mapping)
    assert sym_power(chi, k).terms == reference_sym_power(chi, k).terms


def test_sl3_symmetric_powers_are_charged_in_the_root_lattice():
    """The 66 weights of Sym^10(V) span the root lattice, index 3, and fill a
    triangle: its Hermite coordinates span 20 and 10, so W for Sym^20 is
    401 * 201, not the 401 * 401 that x1 and x2 span."""
    chi = sym_power(standard_character(SL3), 10)
    with pytest.raises(WorkCapError, match=f" {67 * 20 * (401 * 201 + ROW_STEPS)} steps"):
        sym_power(chi, 20)
