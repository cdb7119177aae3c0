import random
from collections import Counter
from fractions import Fraction
from itertools import product
from math import prod

import pytest

from cf_lattice.spectra import (
    MAX_CUSP_MILNOR,
    CuspRangeError,
    QhSingularity,
    SpectrumMultiset,
    cusp_spectrum,
    interval_check,
    spectrum,
    surface_catalog,
    suspend,
)


def brieskorn_pham_oracle(exponents):
    """Independent oracle for x1^m1 + ... + xn^mn: the monomial basis of the
    Milnor algebra is x^a with 0 <= a_i <= m_i - 2, and each basis monomial
    contributes sum (a_i + 1)/m_i - 1."""
    out = []
    for a in product(*[range(m - 1) for m in exponents]):
        out.append(sum(Fraction(ai + 1, m) for ai, m in zip(a, exponents)) - 1)
    return sorted(out)


@pytest.mark.parametrize("exponents", [
    (2, 2, 2),       # ordinary double point
    (3, 3, 2),       # the D4-equivalent diagonal form
    (4, 3, 2),       # E6
    (5, 3, 2),       # E8
    (3, 3, 3),       # simple elliptic, degree-3 cone
    (4, 4, 2),       # simple elliptic
    (6, 3, 2),       # simple elliptic
    (5, 4, 3),       # a heavier diagonal form
])
def test_spectrum_matches_brieskorn_pham_oracle(exponents):
    weights = tuple(Fraction(1, m) for m in exponents)
    sp = spectrum(QhSingularity(weights))
    assert list(sp.entries) == brieskorn_pham_oracle(exponents)


def test_spectrum_of_node_and_d4():
    a1 = spectrum(QhSingularity((Fraction(1, 2),) * 3))
    assert a1.entries == (Fraction(1, 2),)
    d4 = spectrum(QhSingularity((Fraction(1, 3), Fraction(1, 3), Fraction(1, 2))))
    assert d4.entries == (Fraction(1, 6), Fraction(1, 2), Fraction(1, 2), Fraction(5, 6))


def test_spectrum_of_non_diagonal_weight_systems():
    # D5 (x^4 + x y^2 + z^2): Jacobian-basis oracle {1, x, x^2, x^3, y}
    # with weights (1/4, 3/8, 1/2) gives {1/8, 3/8, 1/2, 5/8, 7/8}
    d5 = spectrum(QhSingularity((Fraction(1, 4), Fraction(3, 8), Fraction(1, 2))))
    assert d5.entries == (Fraction(1, 8), Fraction(3, 8), Fraction(1, 2),
                          Fraction(5, 8), Fraction(7, 8))
    # E7 (x^3 + x y^3 + z^2): basis {1, y, y^2, y^3, y^4, x, x y},
    # weights (1/3, 2/9, 1/2)
    e7 = spectrum(QhSingularity((Fraction(1, 3), Fraction(2, 9), Fraction(1, 2))))
    assert e7.entries == tuple(Fraction(k, 18) for k in (1, 5, 7, 9, 11, 13, 17))


def test_spectrum_invalid_weights():
    with pytest.raises(ValueError):
        QhSingularity((Fraction(3, 2),))
    with pytest.raises(ValueError):
        # not a quasihomogeneous isolated-singularity weight system
        spectrum(QhSingularity((Fraction(2, 5), Fraction(3, 7))))


def test_milnor_number_and_symmetry_across_catalog():
    for entry in surface_catalog():
        sp = spectrum(entry.singularity)
        assert len(sp) == entry.singularity.milnor_number()
        assert sp.is_symmetric()


def test_catalog_dichotomy():
    for entry in surface_catalog():
        sp = spectrum(entry.singularity)
        if entry.kind == "du_val":
            assert interval_check(sp, 0, 1, strict_lo=True, strict_hi=True)
        else:
            assert entry.kind == "simple_elliptic"
            assert interval_check(sp, 0, 1)
            assert sp.minimum() == 0
            assert sp.maximum() == 1


def test_etilde8_extremes():
    sp = spectrum(QhSingularity((Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))))
    assert len(sp) == 10
    assert sp.minimum() == 0
    assert sp.maximum() == 1


def test_e8_strictly_interior():
    sp = spectrum(QhSingularity((Fraction(1, 3), Fraction(1, 5), Fraction(1, 2))))
    assert sp.minimum() == Fraction(1, 30)
    assert interval_check(sp, 0, 1, strict_lo=True, strict_hi=True)


def test_suspension_shift_and_composition():
    a1 = spectrum(QhSingularity((Fraction(1, 2),) * 3))
    doubled = suspend(a1, 2)
    assert doubled.entries == (Fraction(3, 2),)
    assert doubled.nvars == 5
    assert interval_check(doubled, 1, 2)
    assert suspend(a1, 0) == a1
    assert suspend(suspend(a1, 1), 1) == suspend(a1, 2)
    with pytest.raises(ValueError):
        suspend(a1, -1)


def test_double_suspension_lands_in_1_2_for_whole_catalog():
    for entry in surface_catalog():
        sp = suspend(spectrum(entry.singularity), 2)
        assert interval_check(sp, 1, 2)
        assert sp.is_symmetric()


def test_interval_check_strictness_flags():
    sp = SpectrumMultiset.make([0, Fraction(1, 2), 1], 3)
    assert interval_check(sp, 0, 1)
    assert not interval_check(sp, 0, 1, strict_lo=True)
    assert not interval_check(sp, 0, 1, strict_hi=True)


def test_cusp_spectrum_examples():
    t237 = cusp_spectrum(2, 3, 7)
    assert len(t237) == 11
    assert t237.minimum() == 0 and t237.maximum() == 1
    assert t237.is_symmetric()
    counts = Counter(t237.entries)
    assert counts[Fraction(1, 2)] == 1
    assert counts[Fraction(1, 3)] == 1
    assert counts[Fraction(1, 7)] == 1
    assert len(cusp_spectrum(3, 3, 4)) == 9
    # argument order does not matter
    assert cusp_spectrum(7, 2, 3).entries == t237.entries


def test_cusp_spectrum_range_errors():
    with pytest.raises(CuspRangeError):
        cusp_spectrum(2, 3, 5)  # 1/2 + 1/3 + 1/5 > 1
    with pytest.raises(CuspRangeError):
        cusp_spectrum(3, 3, 3)  # boundary case is not hyperbolic
    with pytest.raises(ValueError):
        cusp_spectrum(1, 5, 9)


def cusp_oracle(p, q, r):
    """{0, 1} plus j/m for 1 <= j < m, one arm m at a time, as a sorted list."""
    out = [Fraction(0), Fraction(1)]
    for m in (p, q, r):
        for j in range(1, m):
            out.append(Fraction(j, m))
    return sorted(out)


def test_cusp_table_is_validated_data():
    # every triple of the range the package once shipped as a table
    triples = [(p, q, r) for p in range(2, 13) for q in range(p, 13) for r in range(q, 13)
               if p + q + r <= 27 and Fraction(1, p) + Fraction(1, q) + Fraction(1, r) < 1]
    assert len(triples) == 228
    for p, q, r in triples:
        sp = cusp_spectrum(p, q, r)
        assert len(sp) == p + q + r - 1
        assert sp.is_symmetric()
        assert sp.minimum() == 0 and sp.maximum() == 1
        assert list(sp.entries) == cusp_oracle(p, q, r)


def test_cusp_spectrum_beyond_former_table():
    sp = cusp_spectrum(2, 3, 40)
    assert len(sp) == 44
    assert list(sp.entries) == cusp_oracle(2, 3, 40)
    assert Counter(sp.entries)[Fraction(1, 2)] == 2  # 1/2 from the arm 2, 20/40 from the arm 40


def test_cusp_spectrum_milnor_cap():
    # mu = p + q + r - 1: at the bound the spectrum is built, past it refused
    assert len(cusp_spectrum(2, 3, MAX_CUSP_MILNOR - 4)) == MAX_CUSP_MILNOR
    with pytest.raises(CuspRangeError):
        cusp_spectrum(2, 3, MAX_CUSP_MILNOR - 3)
    with pytest.raises(CuspRangeError):
        cusp_spectrum(2, 3, 10 ** 9)


def test_catalog_milnor_numbers_are_the_root_system_ranks():
    # a du Val X_n has Milnor number n, the rank of its Dynkin diagram; the
    # simple elliptic Etilde6, Etilde7, Etilde8 have 8, 9 and 10
    cat = surface_catalog()
    assert [e.name for e in cat] == (
        [f"A{n}_surface" for n in range(1, 13)] + [f"D{n}_surface" for n in range(4, 13)]
        + ["E6_surface", "E7_surface", "E8_surface",
           "Etilde6_surface", "Etilde7_surface", "Etilde8_surface"])
    for entry in cat:
        label = entry.name.removesuffix("_surface")
        mu = entry.singularity.milnor_number()
        if entry.kind == "du_val":
            assert mu == int(label[1:])
        else:
            assert entry.kind == "simple_elliptic"
            assert mu == {"Etilde6": 8, "Etilde7": 9, "Etilde8": 10}[label]
        assert entry.singularity.name == entry.name


def _seeded_brieskorn_pham(count):
    rng = random.Random("spectra-sorted")
    out = []
    while len(out) < count:
        exponents = [rng.randint(2, 9) for _ in range(rng.choice((2, 3, 4)))]
        if prod(m - 1 for m in exponents) <= 600:  # the Milnor number
            out.append(QhSingularity(tuple(Fraction(1, m) for m in exponents)))
    return out


def test_spectra_are_built_sorted():
    """spectrum, suspend and cusp_spectrum build their entries in order, so each
    equals the multiset that sorts the same entries."""
    results = []
    for sing in [e.singularity for e in surface_catalog()] + _seeded_brieskorn_pham(20):
        sp = spectrum(sing)
        results += [sp, suspend(sp, 1), suspend(sp, 2)]
    for p, q, r in [(2, 3, 7), (2, 3, 8), (2, 4, 5), (3, 3, 4), (2, 3, 9), (3, 3, 5)]:
        sp = cusp_spectrum(p, q, r)
        results += [sp, suspend(sp, 2)]
    assert len(results) == 3 * (27 + 20) + 2 * 6
    for sp in results:
        assert sp == SpectrumMultiset.make(sp.entries, sp.nvars)
        assert sp.is_symmetric()


@pytest.mark.parametrize("entries, nvars, symmetric", [
    ([0, Fraction(1, 3), 1], 3, False),
    ([0, Fraction(1, 3), Fraction(2, 3), 1], 3, True),
    ([Fraction(1, 2)], 3, True),
    ([Fraction(1, 2)], 4, False),
    ([0, 0, 1], 3, False),
])
def test_is_symmetric_pairs_each_entry_with_its_mirror(entries, nvars, symmetric):
    assert SpectrumMultiset.make(entries, nvars).is_symmetric() is symmetric
