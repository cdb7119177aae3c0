import json
import random

import pytest

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
    assert comp.is_degenerate()


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
    assert orthogonal_complement(a2, zero).basis == ((1, 0), (0, 1))


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


def test_index_squared_law_definite():
    # |det S| |det S^perp| / |det L| is the square of [L : S + S^perp]
    e8 = standard_lattice("E8")
    e6_rows = tuple(tuple(1 if j == i else 0 for j in range(8)) for i in range(6))
    sub = span_sublattice(e8, e6_rows)
    comp = orthogonal_complement(e8, sub)
    ds = abs(intlinalg.det(sub.induced_gram()))
    dc = abs(intlinalg.det(comp.induced_gram()))
    ratio = ds * dc // abs(e8.det())
    root = intlinalg.floor_sqrt_fraction(ratio)
    assert root * root == ratio == 9


def test_discriminant_group_orders():
    assert discriminant_data(standard_lattice("A2")).form.invariant_factors == (3,)
    assert discriminant_data(standard_lattice("E8")).form.is_trivial()
    assert discriminant_data(standard_lattice("E7")).form.invariant_factors == (2,)
    assert discriminant_data(standard_lattice("D16")).form.invariant_factors == (2, 2)
    assert discriminant_data(standard_lattice("A17")).form.invariant_factors == (18,)
    with pytest.raises(DegenerateLatticeError):
        discriminant_data(Lattice(((0,),)))


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


def test_vector_divisibility():
    e8 = standard_lattice("E8")
    assert vector_divisibility(e8, (1, 0, 0, 0, 0, 0, 0, 0)) == 1
    u = standard_lattice("U")
    assert vector_divisibility(u, (2, 0)) == 2
    with pytest.raises(ValueError):
        vector_divisibility(u, (0, 0))


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
    with pytest.raises(ValueError):
        lattice_from_json("{\"gram\": [[1.5]]}")
    with pytest.raises(ValueError):
        lattice_from_json("[1, 2]")


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
