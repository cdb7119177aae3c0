import random
from collections import Counter
from fractions import Fraction
from math import isqrt, lcm
from operator import mul

import pytest

from cf_lattice import (
    Lattice,
    direct_sum,
    discriminant_data,
    intlinalg,
    orthogonal_complement,
    span_sublattice,
    standard_lattice,
)
from cf_lattice.niemeier import (
    GluedLattice,
    GlueError,
    construct_niemeier,
    embed_e6,
    entries_with_e_summand,
    glue_adds_roots,
    isotropic_subgroups,
    niemeier_table,
    overlattice,
)
from cf_lattice.period import build_period_model
from cf_lattice.roots import (
    RootSystemLabel,
    _enumerate_norm,
    count_roots,
    identify_root_system,
    positive_roots,
    root_components,
    roots,
)


@pytest.fixture(scope="module")
def core_lattice():
    """The polarization complement, built once for the module's 26_2 glues."""
    return build_period_model().core_lattice


def test_table_has_24_entries_with_census_invariant():
    table = niemeier_table()
    assert len(table) == 24
    for entry in table:
        assert entry.root_system.root_count() == 24 * entry.coxeter_number
    rootless = [e for e in table if e.root_system.is_empty()]
    assert len(rootless) == 1
    assert rootless[0].coxeter_number == 0


def test_exactly_six_entries_contain_an_e_summand():
    entries = entries_with_e_summand()
    assert sorted(str(e.root_system) for e in entries) == [
        "A11+D7+E6", "A17+E7", "D10+E7^2", "D16+E8", "E6^4", "E8^3"]


def test_e6_4_entry_data():
    entry = next(e for e in niemeier_table() if str(e.root_system) == "E6^4")
    assert entry.coxeter_number == 12
    assert entry.root_count() == 288


def test_glue_e6_a2_gives_240_roots():
    # both isotropic order-3 subgroups of disc(E6 + A2) glue to a lattice
    # with the E8 root census
    base = direct_sum(standard_lattice("E6"), standard_lattice("A2"))
    data = discriminant_data(base)
    subgroups = list(isotropic_subgroups(data, 3))
    assert len(subgroups) == 2
    for subgroup in subgroups:
        gen = next(e for e in subgroup if any(e))
        glued = overlattice(base, data, [gen])
        lat = glued.lattice
        assert lat.is_even()
        assert abs(lat.det()) == 1
        assert glued.glue_order == 3
        assert len(roots(lat)) == 240
        assert str(identify_root_system(lat, roots(lat))) == "E8"


def test_trivial_glue_returns_same_gram():
    e8 = standard_lattice("E8")
    data = discriminant_data(e8)
    glued = overlattice(e8, data, ())
    assert glued.lattice.gram == e8.gram
    assert glued.glue_order == 1


def test_overlattice_rejects_non_isotropic_glue():
    a2 = standard_lattice("A2")
    data = discriminant_data(a2)
    with pytest.raises(GlueError, match="not isotropic"):
        overlattice(a2, data, [(1,)])  # the generator: q = 2/3, not isotropic
    d4 = standard_lattice("D4")
    with pytest.raises(GlueError, match="norm not in 2Z"):
        overlattice(d4, discriminant_data(d4), [(1, 0)])  # in L*, odd norm 1


def test_overlattice_rejects_vectors_outside_dual():
    # the element (1, 0) of disc(diag(2, 6)) lifts to (1/2, 0), which is not
    # in the dual of A2
    a2 = standard_lattice("A2")
    data = discriminant_data(Lattice(((2, 0), (0, 6))))
    assert fraction_lift(data, (1, 0)) == (Fraction(1, 2), Fraction(0))
    with pytest.raises(GlueError, match="dual lattice"):
        overlattice(a2, data, [(1, 0)])


def fraction_lift(data, element):
    """A representative of `element` in L*, as Fractions: sum of a_i times lift i."""
    n = len(data.lifts[0]) if data.lifts else 0
    return tuple(sum((a * gen[j] for a, gen in zip(element, data.lifts)), Fraction(0))
                 for j in range(n))


def reference_overlattice(lat, generators):
    """The Fraction gluing that `overlattice` replaced: pairings and norms summed in
    Fractions, the rows scaled by the lcm of their denominators."""
    if not lat.is_even():
        raise GlueError("gluing is defined here for even lattices only")
    n = lat.rank
    g = [list(r) for r in lat.gram]
    rows = [[Fraction(x) for x in row] for row in intlinalg.identity(n)]
    for gen in generators:
        pairings = [sum(gen[i] * g[i][j] for i in range(n)) for j in range(n)]
        if any(p.denominator != 1 for p in pairings):
            raise GlueError("glue vector does not lie in the dual lattice")
        nrm = sum(gen[i] * g[i][j] * gen[j] for i in range(n) for j in range(n))
        if nrm % 2 != 0:
            raise GlueError("glue vector is not isotropic (norm not in 2Z)")
        rows.append(list(gen))
    den = lcm(*[x.denominator for row in rows for x in row])
    h = intlinalg.hnf([[int(x * den) for x in row] for row in rows])
    if len(h) != n:
        raise GlueError("glue vectors do not preserve the rank (bug)")
    scaled_gram = intlinalg.mat_mul(intlinalg.mat_mul(h, g), intlinalg.transpose(h))
    den_sq = den * den
    if any(x % den_sq for row in scaled_gram for x in row):
        raise GlueError("resulting pairings are not integral")
    result = Lattice(tuple(tuple(x // den_sq for x in row) for row in scaled_gram),
                     name=(lat.name or "L") + " glued")
    if not result.is_even():
        raise GlueError("resulting lattice is odd")
    index = isqrt(abs(lat.det()) // abs(result.det()))
    det_h, adj_h = intlinalg.adjugate(h)
    return GluedLattice(
        lattice=result,
        old_in_new=tuple(tuple(den * x // det_h for x in row) for row in adj_h),
        glue_order=index,
    )


def glue_outcome(glue):
    """What a glue call yields: its Gram, name, old_in_new and glue order, or GlueError."""
    try:
        glued = glue()
    except GlueError:
        return GlueError
    return glued.lattice.gram, glued.lattice.name, glued.old_in_new, glued.glue_order


def overlattice_outcome(lat, data, elements):
    return glue_outcome(lambda: overlattice(lat, data, elements))


def glue_both_ways(lat, data, elements):
    """The outcomes of the integer and of the reference glue of the same elements."""
    lifts = [fraction_lift(data, e) for e in elements]
    return (overlattice_outcome(lat, data, elements),
            glue_outcome(lambda: reference_overlattice(lat, lifts)))


def test_lift_is_the_fraction_lift_times_the_exponent():
    for label in ("A11+D7+E6", "D4+D4", "A2+A5", "E7"):
        comps = [standard_lattice(c) for c in label.split("+")]
        data = discriminant_data(direct_sum(*comps))
        n_exp = data.exponent
        assert n_exp == data.form.invariant_factors[-1]
        for element in data.form.elements():
            assert data.lift(element) == tuple(n_exp * x for x in fraction_lift(data, element))
    assert discriminant_data(standard_lattice("E8")).exponent == 1


def test_overlattice_matches_the_fraction_reference_on_every_niemeier_subgroup(time_budget):
    counts, accepted = {}, 0
    for entry in entries_with_e_summand():
        comps = [standard_lattice(f"{f}{n}") for f, n in entry.root_system.components]
        base = direct_sum(*comps, name=str(entry.root_system))
        data = discriminant_data(base)
        subgroups = list(isotropic_subgroups(data, isqrt(data.form.order)))
        counts[str(entry.root_system)] = len(subgroups)
        for subgroup in subgroups:
            # the reference cannot lift the zero of a trivial group; overlattice skips it
            new, ref = glue_both_ways(base, data, [e for e in subgroup if any(e)])
            assert new == ref
            accepted += new is not GlueError
            # construct_niemeier's call, with the zero element, glues the same
            assert overlattice_outcome(base, data, subgroup) == new
    assert counts == {"D16+E8": 2, "E8^3": 1, "A17+E7": 1, "D10+E7^2": 2,
                      "A11+D7+E6": 4, "E6^4": 8}
    assert accepted == 18  # all isotropic; unimodularity and roots pick among them


def test_overlattice_matches_the_fraction_reference_on_e6_a2_and_26_2_glues(core_lattice):
    base = direct_sum(standard_lattice("E6"), standard_lattice("A2"))
    data = discriminant_data(base)
    outcomes = [glue_both_ways(base, data, [e]) for e in data.form.elements() if any(e)]
    assert all(new == ref for new, ref in outcomes)
    # the nonzero elements of the two isotropic subgroups glue, the other four do not
    assert sum(new is not GlueError for new, _ in outcomes) == 4
    # one element from each: both isotropic, but they pair to a third mod Z
    x, y = (next(e for e in s if any(e)) for s in isotropic_subgroups(data, 3))
    with pytest.raises(GlueError, match="not integral"):
        overlattice(base, data, [x, y])
    assert glue_both_ways(base, data, [x, y]) == (GlueError, GlueError)
    total = direct_sum(core_lattice, standard_lattice("E6"))
    data = discriminant_data(total)
    subgroup = next(isotropic_subgroups(data, 3))
    new, ref = glue_both_ways(total, data, [next(e for e in subgroup if any(e))])
    assert new == ref
    assert abs(Lattice(new[0]).det()) == 1


def test_overlattice_index_law_all_glues():
    for entry in entries_with_e_summand():
        comps = [standard_lattice(f"{f}{n}") for f, n in entry.root_system.components]
        base = direct_sum(*comps)
        glued = construct_niemeier(entry)
        assert abs(glued.lattice.det()) * glued.glue_order ** 2 == abs(base.det())


@pytest.mark.parametrize("name,glue_order,root_count", [
    ("E8^3", 1, 720),
    ("D16+E8", 2, 720),
    ("A17+E7", 6, 432),
    ("D10+E7^2", 4, 432),
    ("E6^4", 9, 288),
    ("A11+D7+E6", 12, 288),
])
def test_construct_niemeier_invariants(name, glue_order, root_count):
    entry = next(e for e in niemeier_table() if str(e.root_system) == name)
    glued = construct_niemeier(entry)
    lat = glued.lattice
    assert lat.rank == 24
    assert lat.is_even()
    assert abs(lat.det()) == 1
    assert glued.glue_order == glue_order
    rts = roots(lat)
    assert len(rts) == root_count
    assert identify_root_system(lat, rts) == entry.root_system


def test_theta_series_identity_for_d16_e8():
    """The theta series of an even unimodular rank-24 lattice lies in the weight-12
    modular forms <E12, Delta>, which forces N4 = 196560 - 24 N2 (Conway-Sloane,
    SPLAG ch. 16): a check of the enumerator that does not depend on the glue."""
    entry = next(e for e in niemeier_table() if str(e.root_system) == "D16+E8")
    lat = construct_niemeier(entry).lattice
    n2 = len(roots(lat))
    n4 = 2 * len(_enumerate_norm(lat.gram, 4))  # uncached: N4 is 179280 vectors
    assert n2 == 720
    assert n4 == 196560 - 24 * n2 == 179280


def test_construct_niemeier_rejects_non_e_entries():
    entry = next(e for e in niemeier_table() if str(e.root_system) == "D24")
    with pytest.raises(ValueError):
        construct_niemeier(entry)


def test_embed_e6_gives_cartan_gram():
    e6_cartan = standard_lattice("E6").gram
    for name in ("E8^3", "E6^4", "A17+E7"):
        entry = next(e for e in niemeier_table() if str(e.root_system) == name)
        glued = construct_niemeier(entry)
        lat = glued.lattice
        component = next(halves for (family, _), halves
                         in root_components(lat, positive_roots(lat)) if family == "E")
        sub = embed_e6(lat, component)
        assert sub.induced_gram() == e6_cartan
        assert set(sub.basis) <= set(component) | {tuple(-x for x in v) for v in component}


# Root sums with a glue order: each isotropic subgroup of that order is glued.
_SMALL_GLUES = [("E6+A2", 3), ("E7+A1", 2), ("D8", 2), ("A8", 3), ("A4^2", 5), ("D16", 2),
                ("A1^8", 2), ("D4^2", 4), ("A2^4", 9), ("A5+A1", 2)]


def test_glue_certificate_agrees_with_the_walk(time_budget):
    """`glue_adds_roots` against a walk of the glued lattice, on every isotropic
    subgroup of full order for the six E entries (every candidate the search of
    `construct_niemeier` can visit) and on small glues that exercise each
    class-norm rule: A_n, D_n vector and spinor, E6 and E7 classes, with the
    minimum sum equal to 2 (roots added) and above it (none)."""
    cases = [(e.root_system, None) for e in entries_with_e_summand()]
    cases += [(RootSystemLabel.parse(text), order) for text, order in _SMALL_GLUES]
    verdicts = Counter()
    for label, order in cases:
        base = direct_sum(*(standard_lattice(f"{f}{n}") for f, n in label.components))
        data = discriminant_data(base)
        for subgroup in isotropic_subgroups(data, order or isqrt(data.form.order)):
            glued = overlattice(base, data, subgroup)
            walked = count_roots(positive_roots(glued.lattice)) != label.root_count()
            assert glue_adds_roots(label.components, data, subgroup) == walked, (label, subgroup)
            verdicts[str(label), walked] += 1
    assert verdicts == {
        ("D16+E8", False): 2, ("E8^3", False): 1, ("A17+E7", False): 1,
        ("D10+E7^2", False): 2, ("A11+D7+E6", False): 4, ("E6^4", False): 8,
        ("A2+E6", True): 2, ("A1+E7", True): 1, ("D8", True): 2, ("A8", True): 1,
        ("A4^2", True): 2, ("D16", False): 2, ("A1^8", True): 70, ("A1^8", False): 1,
        ("D4^2", True): 6, ("A2^4", True): 8, ("A1+A5", True): 1}
    assert sum(n for (_, added), n in verdicts.items() if added) == 93


def test_embed_e6_into_e8_directly():
    e8 = standard_lattice("E8")
    sub = embed_e6(e8, roots(e8))
    assert sub.induced_gram() == standard_lattice("E6").gram
    comp = orthogonal_complement(e8, sub)
    lat = comp.lattice()
    assert str(identify_root_system(lat, roots(lat))) == "A2"


def test_embed_e6_complement_within_e7():
    # inside E7 the orthogonal complement of an embedded E6 is a norm-6 line
    e7 = standard_lattice("E7")
    sub = embed_e6(e7, roots(e7))
    comp = orthogonal_complement(e7, sub)
    assert comp.rank == 1
    assert comp.induced_gram() == ((6,),)


def test_embed_e6_requires_an_e_component():
    d4 = standard_lattice("D4")
    with pytest.raises(ValueError):
        embed_e6(d4, roots(d4))


def test_saturating_e6_plus_norm6_line_gives_e7():
    # E6 + its norm-6 complement line spans an index-3 sublattice of E7
    # (det 3*6 = 18 against 2); the saturation recovers the 126-root census
    e7 = standard_lattice("E7")
    sub = embed_e6(e7, roots(e7))
    comp = orthogonal_complement(e7, sub)
    rows = list(sub.basis) + list(comp.basis)
    span = span_sublattice(e7, rows)
    from cf_lattice import saturation, saturation_index
    closed = saturation(e7, span)
    assert closed.rank == 7
    lat = closed.lattice()
    assert len(roots(lat)) == 126
    assert saturation_index(e7, span) == 3


def bareiss_overlattice(lat, data, elements):
    """The integer gluing that `overlattice` replaced: two Bareiss determinants for the
    index and a Gauss-Jordan adjugate of h for the old basis in the new one."""
    if not lat.is_even():
        raise GlueError("gluing is defined here for even lattices only")
    n = lat.rank
    g = [list(r) for r in lat.gram]
    den = data.exponent
    rows = [[den if i == j else 0 for j in range(n)] for i in range(n)]
    for e in filter(any, elements):
        v = data.lift(e)
        gv = intlinalg.mat_vec(g, v)
        if any(x % den for x in gv):
            raise GlueError("glue vector does not lie in the dual lattice")
        if sum(map(mul, v, gv)) % (2 * den * den):
            raise GlueError("glue vector is not isotropic (norm not in 2Z)")
        rows.append(list(v))
    h = intlinalg.hnf(rows)
    if len(h) != n:
        raise GlueError("glue vectors do not preserve the rank (bug)")
    scaled_gram = intlinalg.mat_mul(intlinalg.mat_mul(h, g), intlinalg.transpose(h))
    den_sq = den * den
    if any(x % den_sq for row in scaled_gram for x in row):
        raise GlueError("resulting pairings are not integral: glue is not a subgroup"
                        " of the discriminant form")
    new_gram = tuple(tuple(x // den_sq for x in row) for row in scaled_gram)
    result = Lattice(new_gram, name=(lat.name or "L") + " glued")
    if not result.is_even():
        raise GlueError("resulting lattice is odd: glue vector not isotropic mod 2Z")
    old_det = abs(lat.det())
    new_det = abs(result.det())
    index_sq = old_det // new_det if new_det else 0
    index = isqrt(index_sq)
    if index * index != index_sq or new_det * index_sq != old_det:
        raise ArithmeticError("overlattice index is not integral (bug)")
    det_h, adj_h = intlinalg.adjugate(h)
    return GluedLattice(
        lattice=result,
        old_in_new=tuple(tuple(den * x // det_h for x in row) for row in adj_h),
        glue_order=index,
    )


def glue_message(glue):
    """The message of the GlueError a glue call raises, or its full outcome."""
    try:
        glued = glue()
    except GlueError as exc:
        return str(exc)
    return glued.lattice.gram, glued.lattice.name, glued.old_in_new, glued.glue_order


def assert_glues_like_bareiss(lat, data, elements):
    new = glue_message(lambda: overlattice(lat, data, elements))
    assert new == glue_message(lambda: bareiss_overlattice(lat, data, elements))
    return new


def test_overlattice_matches_the_bareiss_reference_on_the_niemeier_and_26_2_glues(
        core_lattice, time_budget):
    accepted = 0
    for entry in entries_with_e_summand():
        comps = [standard_lattice(f"{f}{n}") for f, n in entry.root_system.components]
        base = direct_sum(*comps, name=str(entry.root_system))
        data = discriminant_data(base)
        for subgroup in isotropic_subgroups(data, isqrt(data.form.order)):
            accepted += not isinstance(assert_glues_like_bareiss(base, data, subgroup), str)
    assert accepted == 18
    total = direct_sum(core_lattice, standard_lattice("E6"))
    data = discriminant_data(total)
    subgroup = next(isotropic_subgroups(data, 3))
    gram, _, _, glue_order = assert_glues_like_bareiss(total, data, subgroup)
    assert glue_order == 3
    assert abs(Lattice(gram).det()) == 1


_SMALL_SUMMANDS = ("A1", "A2", "A3", "A4", "A5", "A7", "A8", "D4", "D5", "D6", "D8",
                   "E6", "E7")


def test_overlattice_matches_the_bareiss_reference_on_seeded_glues(time_budget):
    """Seeded A-D-E sums of rank at most 12: every isotropic subgroup of order k > 1
    with k^2 dividing the discriminant order glues alike (up to three per order), and
    so do random pairs of group elements and of isotropic elements."""
    rng = random.Random(16)
    glued, kinds = 0, set()
    while glued < 40:
        labels, used = [], 0
        while used < 4 or rng.random() < 0.6:
            label = rng.choice([c for c in _SMALL_SUMMANDS if used + int(c[1:]) <= 12] or ["A1"])
            if used + int(label[1:]) > 12:
                break
            labels.append(label)
            used += int(label[1:])
        base = direct_sum(*map(standard_lattice, labels))
        data = discriminant_data(base)
        order = data.form.order
        if order > 600:
            continue
        for k in range(2, isqrt(order) + 1):
            if order % (k * k):
                continue
            for subgroup, _ in zip(isotropic_subgroups(data, k), range(3)):
                outcome = assert_glues_like_bareiss(base, data, subgroup)
                assert not isinstance(outcome, str)
                assert outcome[3] == k
                glued += 1
        elements = list(data.form.elements())
        isotropic = [e for e in elements if data.form.q_of(e) == 0]
        for pool in (elements, elements, isotropic):
            if len(pool) > 1:
                outcome = assert_glues_like_bareiss(base, data, rng.sample(pool, 2))
                kinds.add(outcome if isinstance(outcome, str) else "glued")
    assert len(kinds) == 3  # some glue, some are not isotropic, some pair non-integrally


def test_overlattice_matches_the_bareiss_reference_on_seeded_dense_grams(time_budget):
    """The reference multiplies (h G) h^T, `overlattice` h (h G)^T: the same glued Gram
    item by item on A-D-E sums in seeded skewed bases U G U^T, where G is mostly
    nonzero, for up to two isotropic subgroups of each order k > 1 with k^2 dividing
    the discriminant order."""
    rng = random.Random(61)
    glued = 0
    for labels in ("E6+A2", "A3+A3+D4", "D4+D4", "A5+A1+E6", "A2+A2+A2+A2", "E7+A1",
                   "A8", "A4+A4", "D6+A1+A1"):
        g = [list(r) for r in direct_sum(*map(standard_lattice, labels.split("+"))).gram]
        n = len(g)
        u = intlinalg.identity(n)
        for _ in range(3 * n):
            i, j = rng.sample(range(n), 2)
            sign = rng.choice((-1, 1))
            u[i] = [x + sign * y for x, y in zip(u[i], u[j])]
        base = Lattice(tuple(map(tuple, intlinalg.mat_mul(intlinalg.mat_mul(u, g),
                                                          intlinalg.transpose(u)))))
        assert 2 * sum(row.count(0) for row in base.gram) < n * n
        data = discriminant_data(base)
        for k in range(2, isqrt(data.form.order) + 1):
            if data.form.order % (k * k) == 0:
                for subgroup, _ in zip(isotropic_subgroups(data, k), range(2)):
                    assert_glues_like_bareiss(base, data, subgroup)
                    glued += 1
    assert glued >= 10


def test_overlattice_rejects_each_invalid_glue_like_the_bareiss_reference():
    a2 = standard_lattice("A2")
    e6_a2 = direct_sum(standard_lattice("E6"), a2)
    data = discriminant_data(e6_a2)
    x, y = (next(e for e in s if any(e)) for s in isotropic_subgroups(data, 3))
    odd = Lattice(((1, 0), (0, 3)))
    cases = [
        (odd, discriminant_data(odd), [(1,)], "even lattices only"),
        (a2, discriminant_data(Lattice(((2, 0), (0, 6)))), [(1, 0)], "dual lattice"),
        (a2, discriminant_data(a2), [(1,)], "not isotropic"),
        (e6_a2, data, [x, y], "not integral"),
    ]
    for lat, lat_data, elements, message in cases:
        with pytest.raises(GlueError, match=message):
            overlattice(lat, lat_data, elements)
        assert message in assert_glues_like_bareiss(lat, lat_data, elements)


def test_overlattice_and_construct_niemeier_take_no_determinant_or_inverse(monkeypatch):
    """The glue order, |det| and the old basis come from the triangular Hermite form
    and the discriminant order: no Bareiss det, no adjugate."""
    def forbidden(*args):
        raise AssertionError("a determinant or an adjugate was computed")

    for owner, name in ((intlinalg, "det"), (intlinalg, "adjugate"), (Lattice, "det")):
        monkeypatch.setattr(owner, name, forbidden)
    entry = next(e for e in niemeier_table() if str(e.root_system) == "A11+D7+E6")
    glued = construct_niemeier(entry)
    assert glued.glue_order == 12
