from fractions import Fraction

import pytest

from cf_lattice import (
    direct_sum,
    discriminant_data,
    orthogonal_complement,
    span_sublattice,
    standard_lattice,
)
from cf_lattice.niemeier import (
    GlueError,
    GlueGroup,
    construct_niemeier,
    embed_e6,
    entries_with_e_summand,
    isotropic_subgroups,
    niemeier_table,
    overlattice,
)
from cf_lattice.roots import _enumerate_norm, identify_root_system, roots


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
        glued = overlattice(base, GlueGroup(data.form, (data.lift(gen),)))
        lat = glued.lattice
        assert lat.is_even()
        assert abs(lat.det()) == 1
        assert glued.glue_order == 3
        assert len(roots(lat)) == 240
        assert str(identify_root_system(lat, roots(lat))) == "E8"


def test_trivial_glue_returns_same_gram():
    e8 = standard_lattice("E8")
    data = discriminant_data(e8)
    glued = overlattice(e8, GlueGroup(data.form, ()))
    assert glued.lattice.gram == e8.gram
    assert glued.glue_order == 1


def test_overlattice_rejects_non_isotropic_glue():
    a2 = standard_lattice("A2")
    data = discriminant_data(a2)
    gen = data.lifts[0]  # q = 2/3, not isotropic
    with pytest.raises(GlueError):
        overlattice(a2, GlueGroup(data.form, (gen,)))


def test_overlattice_rejects_vectors_outside_dual():
    a2 = standard_lattice("A2")
    data = discriminant_data(a2)
    bad = (Fraction(1, 2), Fraction(0))
    with pytest.raises(GlueError):
        overlattice(a2, GlueGroup(data.form, (bad,)))


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
        lat = construct_niemeier(entry).lattice
        sub = embed_e6(lat)
        assert sub.induced_gram() == e6_cartan


def test_embed_e6_into_e8_directly():
    e8 = standard_lattice("E8")
    sub = embed_e6(e8)
    assert sub.induced_gram() == standard_lattice("E6").gram
    comp = orthogonal_complement(e8, sub)
    lat = comp.lattice()
    assert str(identify_root_system(lat, roots(lat))) == "A2"


def test_embed_e6_complement_within_e7():
    # inside E7 the orthogonal complement of an embedded E6 is a norm-6 line
    e7 = standard_lattice("E7")
    sub = embed_e6(e7)
    comp = orthogonal_complement(e7, sub)
    assert comp.rank == 1
    assert comp.induced_gram() == ((6,),)


def test_embed_e6_requires_an_e_component():
    with pytest.raises(ValueError):
        embed_e6(standard_lattice("D4"))


def test_saturating_e6_plus_norm6_line_gives_e7():
    # E6 + its norm-6 complement line spans an index-3 sublattice of E7
    # (det 3*6 = 18 against 2); the saturation recovers the 126-root census
    e7 = standard_lattice("E7")
    sub = embed_e6(e7)
    comp = orthogonal_complement(e7, sub)
    rows = list(sub.basis) + list(comp.basis)
    span = span_sublattice(e7, rows)
    from cf_lattice import saturation, saturation_index
    closed = saturation(e7, span)
    assert closed.rank == 7
    lat = closed.lattice()
    assert len(roots(lat)) == 126
    assert saturation_index(e7, span) == 3
