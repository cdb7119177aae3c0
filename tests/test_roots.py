import inspect
import json
import os
import random
import subprocess
import sys
from itertools import combinations, permutations, product
from math import isqrt, lcm
from operator import add
from pathlib import Path

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix

from cf_lattice import (
    Lattice,
    direct_sum,
    orthogonal_complement,
    span_sublattice,
    standard_lattice,
    vector_divisibility,
)
import cf_lattice.roots as roots_module
from cf_lattice import intlinalg
from cf_lattice.intlinalg import smith_normal_form
from cf_lattice.niemeier import construct_niemeier, entries_with_e_summand
from cf_lattice.roots import (
    _enumerate_norm,
    _half,
    EnumerationCapError,
    Isometry,
    RootSystemLabel,
    ade_root_count,
    disc_action,
    find_long_root,
    identify_root_system,
    reflection,
    root_components,
    roots,
    short_vectors,
)


def brute_force_norm_count(lat, norm):
    """Independent oracle: full coordinate box from the Cauchy-Schwarz bound
    |x_i|^2 <= norm * (G^-1)_ii (sympy's inverse), filtered by the exact norm.
    floor(sqrt(p/q)) = isqrt(p q) // q for q > 0."""
    n = lat.rank
    g_inv = sympy.Matrix(lat.gram).inv()
    radicands = [norm * g_inv[i, i] for i in range(n)]
    bounds = [isqrt(r.p * r.q) // r.q for r in radicands]
    count = 0
    vectors = []
    for x in product(*[range(-b, b + 1) for b in bounds]):
        if any(x) and lat.norm(x) == norm:
            count += 1
            vectors.append(x)
    return count, sorted(vectors)


@pytest.mark.parametrize("label,norm", [("A2", 2), ("A3", 2), ("D4", 2),
                                        ("A2", 6), ("D4", 4)])
def test_short_vectors_against_box_oracle(label, norm):
    lat = standard_lattice(label)
    expected_count, expected_vectors = brute_force_norm_count(lat, norm)
    got = short_vectors(lat, norm)
    assert len(got) == expected_count
    assert sorted(got) == expected_vectors


def test_e6_roots_against_box_oracle():
    lat = standard_lattice("E6")
    expected_count, _ = brute_force_norm_count(lat, 2)
    assert expected_count == 72
    assert len(roots(lat)) == 72


def e8_coordinate_model_roots():
    """Independent E8 model: integer vectors with two nonzero entries +-1,
    plus half-integer vectors with even minus-sign count (doubled to stay
    integral); norm 2 in the Euclidean metric."""
    out = set()
    for i in range(8):
        for j in range(i + 1, 8):
            for si in (-1, 1):
                for sj in (-1, 1):
                    v = [0] * 8
                    v[i], v[j] = 2 * si, 2 * sj  # doubled coordinates
                    out.add(tuple(v))
    for signs in product((-1, 1), repeat=8):
        if signs.count(-1) % 2 == 0:
            out.add(tuple(signs))
    return out


def test_e8_root_count_against_coordinate_model():
    model = e8_coordinate_model_roots()
    # doubled coordinates: x.x = 8 corresponds to norm 2
    assert all(sum(x * x for x in v) == 8 for v in model)
    assert len(model) == 240
    assert len(roots(standard_lattice("E8"))) == len(model)


@pytest.mark.parametrize("label,count", [
    ("A1", 2), ("A2", 6), ("A5", 30), ("D4", 24), ("D10", 180),
    ("E6", 72), ("E7", 126), ("E8", 240),
])
def test_root_census_closed_forms(label, count):
    lat = standard_lattice(label)
    assert len(roots(lat)) == count
    family, n = label[0], int(label[1:])
    assert ade_root_count(family, n) == count


def test_short_vectors_contract():
    lat = standard_lattice("E6")
    vs = short_vectors(lat, 2)
    seen = set(vs)
    assert len(seen) == len(vs)  # exactly once per vector
    for v in vs:
        assert lat.norm(v) == 2
        assert tuple(-x for x in v) in seen  # closed under negation
    assert short_vectors(lat, 2) == vs  # deterministic
    assert roots(standard_lattice("diag(4)")) == []
    with pytest.raises(ValueError):
        short_vectors(standard_lattice("U"), 2)
    # semidefinite; indefinite; indefinite with a zero leading entry, which pivots out of order
    for gram in (((2, 2), (2, 2)), ((2, 3), (3, 2)), ((0, 1), (1, 2))):
        with pytest.raises(ValueError):
            short_vectors(Lattice(gram), 2)
    with pytest.raises(ValueError):
        short_vectors(lat, 0)


def _random_unimodular(rng, n):
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    rng.shuffle(u)
    return u


@pytest.mark.parametrize("lat", [standard_lattice("E7"),
                                 direct_sum(standard_lattice("D5"), standard_lattice("A2"))],
                         ids=["E7", "D5+A2"])
def test_short_vectors_invariant_under_change_of_basis(lat):
    """In the basis U B (U unimodular) the Gram is U G U^T and y maps back to y U."""
    rng = random.Random(23)
    n = lat.rank
    g = [list(r) for r in lat.gram]
    for _ in range(3):
        u = _random_unimodular(rng, n)
        assert abs(intlinalg.det(u)) == 1
        skewed = Lattice(tuple(tuple(r) for r in intlinalg.mat_mul(
            intlinalg.mat_mul(u, g), intlinalg.transpose(u))))
        for norm in (2, 4):
            back = {tuple(intlinalg.mat_vec(intlinalg.transpose(u), list(y)))
                    for y in short_vectors(skewed, norm)}
            assert back == set(short_vectors(lat, norm))


_DISTINCT_E8_PROBE = """
import json
import random
import resource
from cf_lattice import Lattice, standard_lattice
from cf_lattice.intlinalg import mat_mul, transpose
from cf_lattice.roots import identify_root_system, short_vectors
e8 = [list(r) for r in standard_lattice("E8").gram]
rng = random.Random(20)
grams, labels = set(), set()

def walk(count):
    for _ in range(count):
        u = [[int(i == j) for j in range(8)] for i in range(8)]
        for _ in range(8):
            i, j = rng.sample(range(8), 2)
            c = rng.choice((-1, 1))
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        lat = Lattice(tuple(map(tuple, mat_mul(mat_mul(u, e8), transpose(u)))))
        grams.add(hash(lat.gram))
        labels.add(str(identify_root_system(lat, short_vectors(lat, 2))))

walk(20)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
walk(300)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({"distinct": len(grams), "labels": sorted(labels), "grown_kb": after - before}))
"""

_LAUNCHER = "import subprocess, sys; subprocess.run(sys.argv[1:], check=True)"


def test_distinct_lattices_leave_no_memory_behind():
    """300 seeded skewed bases of E8, after 20 to warm up, go through `short_vectors`
    and `identify_root_system` in a fresh process: peak RSS grows by less than 4 MB.
    Nothing is kept between calls; a table of every walk (240 roots each) grew it by
    about 10 MB."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path_env = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path_env if path_env else "")}
    # a process starts with the peak RSS of the one that forked it, here pytest's, so
    # the probe runs under a small launcher and its own growth shows
    result = subprocess.run([sys.executable, "-c", _LAUNCHER, sys.executable, "-c",
                             _DISTINCT_E8_PROBE], env=env,
                            capture_output=True, text=True, timeout=120, check=True)
    got = json.loads(result.stdout)
    assert got["distinct"] == 320
    assert got["labels"] == ["E8"]
    assert got["grown_kb"] < 4 * 1024


def test_identify_root_system_basics():
    e8 = standard_lattice("E8")
    assert str(identify_root_system(e8, roots(e8))) == "E8"
    a2a2 = direct_sum(standard_lattice("A2"), standard_lattice("A2"))
    assert str(identify_root_system(a2a2, roots(a2a2))) == "A2^2"
    mixed = direct_sum(standard_lattice("A1"), standard_lattice("D5"),
                       standard_lattice("E6"))
    assert str(identify_root_system(mixed, roots(mixed))) == "A1+D5+E6"


def test_identify_is_permutation_invariant():
    lat = direct_sum(standard_lattice("A3"), standard_lattice("D4"))
    rs = roots(lat)
    rng = random.Random(13)
    for _ in range(5):
        shuffled = rs[:]
        rng.shuffle(shuffled)
        assert identify_root_system(lat, shuffled) == identify_root_system(lat, rs)


def test_identify_rejects_non_ade():
    lat = standard_lattice("A2")
    # two pairing roots alone form a connected rank-2 component with 4 roots,
    # which matches no A-D-E census entry
    with pytest.raises(ValueError):
        identify_root_system(lat, [(1, 0), (0, 1)])
    # a vector of norm != 2 is rejected outright
    with pytest.raises(ValueError):
        identify_root_system(lat, [(2, 0)])


def test_e6_complement_in_e8_is_a2():
    e8 = standard_lattice("E8")
    e6_rows = tuple(tuple(1 if j == i else 0 for j in range(8)) for i in range(6))
    comp = orthogonal_complement(e8, span_sublattice(e8, e6_rows))
    lat = comp.lattice()
    assert str(identify_root_system(lat, roots(lat))) == "A2"


def _sympy_rank(rows):
    return DomainMatrix.from_list(rows, sympy.ZZ).convert_to(sympy.QQ).rank()


def reference_root_components(lat, root_list):
    """Brute-force oracle: breadth-first search over the pairwise nonzero-pairing graph
    of the halves (first nonzero coordinate positive), each component labelled by
    sympy's rank of its halves and the A-D-E root count. O(m^2 n) pairings."""
    halves = list(dict.fromkeys(v if next(x for x in v if x) > 0 else tuple(-x for x in v)
                                for v in root_list))
    gv = [[sum(a * b for a, b in zip(row, v)) for row in lat.gram] for v in halves]
    remaining = list(range(len(halves)))
    comps = []
    while remaining:
        comp, queue, remaining = [remaining[0]], [remaining[0]], remaining[1:]
        while queue:
            w = gv[queue.pop()]
            reached = [o for o in remaining if sum(a * b for a, b in zip(halves[o], w))]
            comp += reached
            queue += reached
            remaining = [o for o in remaining if o not in reached]
        vectors = sorted(halves[i] for i in comp)
        rk = _sympy_rank(vectors)
        label = next(((fam, rk) for fam in "ADE"
                      if not (fam == "D" and rk < 4 or fam == "E" and rk not in (6, 7, 8))
                      and ade_root_count(fam, rk) == 2 * len(vectors)), None)
        if label is None:
            raise ValueError("not A-D-E")
        comps.append((label, vectors))
    return comps


def _skewed_roots(rng, lat):
    """(U G U^T, the roots in that basis) for a seeded unimodular U; a vector x in the
    old basis has coordinates x U^-1 (sympy's inverse) in the new one."""
    n = lat.rank
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    u_inv = [[int(x) for x in row] for row in sympy.Matrix(u).inv().tolist()]
    g = intlinalg.mat_mul(intlinalg.mat_mul(u, [list(r) for r in lat.gram]),
                          intlinalg.transpose(u))
    moved = [tuple(sum(v[k] * u_inv[k][j] for k in range(n)) for j in range(n))
             for v in roots(lat)]
    return Lattice(tuple(tuple(r) for r in g)), moved


_SUMS = ["A1+A1", "A2+D4", "D4+D4", "A1+D5+E6", "E7+A3+A1", "E8+D8", "A5+A5+D6",
         "A11+D7+E6", "D16+E8", "A8+A8+A8", "E6+E6+E6+E6", "A24"]


@pytest.mark.parametrize("label", _SUMS)
def test_root_components_match_the_pairwise_search(label):
    """Item for item (labels, order, sorted halves) against the brute-force search, in
    seeded skewed bases, each with shuffled input orders and random signs."""
    rng = random.Random(sum(map(ord, label)))
    lat = direct_sum(*[standard_lattice(p) for p in label.split("+")])
    for _ in range(2):
        skewed, rs = _skewed_roots(rng, lat)
        for _ in range(2):
            shuffled = [v if rng.random() < 0.5 else tuple(-x for x in v) for v in rs]
            rng.shuffle(shuffled)
            got = root_components(skewed, shuffled)
            assert got == reference_root_components(skewed, shuffled)
            for (_, rank), halves in got:  # rank = number of simple roots found
                assert rank == _sympy_rank(halves)
            assert str(identify_root_system(skewed, shuffled)) == str(RootSystemLabel.parse(label))


def test_root_components_of_the_niemeier_lattices():
    from cf_lattice.niemeier import construct_niemeier, entries_with_e_summand

    for entry in entries_with_e_summand():
        lat = construct_niemeier(entry).lattice
        rs = roots(lat)
        got = root_components(lat, rs)
        assert got == reference_root_components(lat, rs)
        assert RootSystemLabel(tuple(sorted(lab for lab, _ in got))) == entry.root_system


def oldest_first_root_components(lat, root_list):
    """`root_components` with each half scanning the simple roots found before it
    oldest first: the reference for the newest-first scan."""
    halves = list(dict.fromkeys(map(_half, root_list)))
    g = [list(r) for r in lat.gram]
    simple, gs, parent = [], [], []
    home = {}
    for v in sorted(halves):
        for i, gs_i in enumerate(gs):
            if sum([v[j] * x for j, x in gs_i]) == 1:
                if tuple(a - b for a, b in zip(v, simple[i])) not in home:
                    raise ValueError("root list is not closed under reflections")
                home[v] = i
                break
        else:
            gv = intlinalg.mat_vec(g, v)
            if sum(a * b for a, b in zip(v, gv)) != 2:
                raise ValueError("input contains a vector of norm != 2")
            k = len(simple)
            parent.append(k)
            for i, s in enumerate(simple):
                if sum(a * b for a, b in zip(s, gv)):
                    parent[roots_module._find(parent, i)] = k
            simple.append(v)
            gs.append([(j, x) for j, x in enumerate(gv) if x])
            home[v] = k
    members = {}
    for v in halves:
        members.setdefault(roots_module._find(parent, home[v]), []).append(v)
    comps = []
    for root, vectors in members.items():
        block = [i for i in range(len(simple)) if roots_module._find(parent, i) == root]
        det = intlinalg.det([[sum([simple[i][jj] * x for jj, x in gs[j]]) for j in block]
                             for i in block])
        if det == 0:
            raise ValueError("simple roots of a component are dependent: not a root system")
        comps.append((roots_module._ade_label(len(block), det, 2 * len(vectors)),
                      sorted(vectors)))
    return comps


def _scan_order_inputs():
    """(lattice, root list, kind): the six Niemeier lists and E8, seeded A-D-E sums in
    skewed bases, and each of those corrupted by a dropped +-pair, an added norm-4
    vector, or a reflection-closed part plus one root outside it."""
    cases = [(lat, roots(lat), "whole") for lat in
             [construct_niemeier(e).lattice for e in entries_with_e_summand()]
             + [standard_lattice("E8")]]
    rng = random.Random(2323)
    summands = ["A1", "A2", "A3", "A5", "A7", "D4", "D5", "D7", "E6", "E7", "E8"]
    for _ in range(12):
        lat = direct_sum(*[standard_lattice(p) for p in rng.sample(summands, rng.randint(1, 3))])
        cases.append((*_skewed_roots(rng, lat), "whole"))
    for lat, rs, _ in list(cases):
        rs = list(rs)
        rng.shuffle(rs)
        cases.append((lat, [v for v in rs if _half(v) != _half(rs[0])], "dropped"))
        if lat.rank <= 16:
            extra = rng.choice(short_vectors(lat, 4))
        else:  # the sum of two orthogonal roots
            extra = next(tuple(map(add, rs[0], v)) for v in rs if not lat.inner(rs[0], v))
        cases.append((lat, rs + [extra], "norm 4"))
        # a root outside a closed part that pairs nonzero with one of its roots a:
        # its reflection in a is in neither the part nor +-itself
        part = _reflection_closure(lat, rs[:2])
        outside = next(v for v in rs if v not in part and lat.inner(v, rs[0]))
        cases.append((lat, part + [outside], "not closed"))
    return cases


def test_newest_first_scan_gives_what_the_oldest_first_scan_gives(time_budget):
    """Labels and sorted halves item for item, and a ValueError on the same inputs."""
    cases = _scan_order_inputs()
    raised = dict.fromkeys([kind for _, _, kind in cases], 0)
    for lat, rs, kind in cases:
        try:
            expected = oldest_first_root_components(lat, rs)
        except ValueError:
            with pytest.raises(ValueError):
                root_components(lat, rs)
            raised[kind] += 1
        else:
            assert root_components(lat, rs) == expected
    assert raised["whole"] == 0 and raised["norm 4"] == raised["not closed"] == 19
    assert raised["dropped"] >= 15  # a dropped pair leaves a root system where it was an A1


@pytest.mark.parametrize("label", ["E8^6", "D16^3", "A24^2"])
def test_identify_root_system_at_rank_48(label, time_budget):
    base, _, mult = label.partition("^")
    lat = direct_sum(*[standard_lattice(base)] * int(mult))
    rs = roots(lat)
    rng = random.Random(48)
    rng.shuffle(rs)
    assert str(identify_root_system(lat, rs)) == label
    comps = root_components(lat, rs)
    assert [len(halves) for _, halves in comps] == [len(rs) // (2 * int(mult))] * int(mult)


def test_identify_root_system_builds_g_s_once_per_simple_root(monkeypatch):
    """Cost guard on E8+E8 in a skewed basis: G v is built for the 16 simple roots only,
    once each, from the sparse Gram rows; no dense G v is formed, and no half is solved
    against a Cartan block or has its norm taken on its own."""
    skewed, rs = _skewed_roots(random.Random(16), direct_sum(*[standard_lattice("E8")] * 2))
    assert len(rs) == 480
    built = []
    gram_vec = roots_module._gram_vec
    monkeypatch.setattr(roots_module, "_gram_vec",
                        lambda rows, v: built.append(v) or gram_vec(rows, v))

    def forbidden(*args):
        raise AssertionError("not called by the root-system walk")

    for owner, name in ((intlinalg, "adjugate"), (intlinalg, "mat_vec"),
                        (Lattice, "inner"), (Lattice, "norm")):
        monkeypatch.setattr(owner, name, forbidden)
    assert str(identify_root_system(skewed, rs)) == "E8^2"
    assert len(built) == len(set(built)) == 16


def _fully_dense(rng, lat):
    """(U G U^T, the roots in that basis) for a seeded unimodular U that leaves no zero
    entry in the Gram."""
    for _ in range(100):
        skewed, moved = _skewed_roots(rng, lat)
        if all(all(row) for row in skewed.gram):
            return skewed, moved
    raise AssertionError("no fully dense basis in 100 seeded draws")


@pytest.mark.parametrize("label", ["A2", "A1+A3", "D4", "A2+D5", "E6", "E7+A1", "E8"])
def test_root_components_on_grams_with_full_rows(label):
    """The sparse Gram rows hold every entry: the same components, labels and sorted
    halves as the pairwise search, on seeded bases where no Gram entry is 0."""
    rng = random.Random(sum(map(ord, label)) + 25)
    lat = direct_sum(*[standard_lattice(p) for p in label.split("+")])
    for _ in range(2):
        dense, rs = _fully_dense(rng, lat)
        rng.shuffle(rs)
        assert root_components(dense, rs) == reference_root_components(dense, rs)
        assert str(identify_root_system(dense, rs)) == str(RootSystemLabel.parse(label))


def test_is_involution_rejects_an_isometry_of_order_three():
    """s_a s_b for the simple roots of A2 preserves the form and has order 3."""
    lat = standard_lattice("A2")
    rot = intlinalg.mat_mul([list(r) for r in reflection(lat, (1, 0)).matrix],
                            [list(r) for r in reflection(lat, (0, 1)).matrix])
    iso = Isometry(lat, tuple(map(tuple, rot)))
    assert not iso.is_involution()
    assert reflection(lat, (1, 0)).is_involution()


def test_identify_rejects_wrong_norms_that_chain_like_a2():
    """Under this Gram (1,0), (0,1), (1,1) have norms 4, 3, 1, yet they chain like the
    positive roots of A2: (1,1) - (1,0) = (0,1), a Cartan block of det 3, six roots.
    Only the norm of a simple root tells them apart."""
    lat = Lattice(((4, -3), (-3, 3)))
    with pytest.raises(ValueError):
        identify_root_system(lat, [(1, 0), (0, 1), (1, 1), (-1, 0), (0, -1), (-1, -1)])


@pytest.mark.parametrize("label", ["A2+D4", "D4+D4", "A1+D5+E6", "E7+A3+A1"])
@pytest.mark.parametrize("extra", ["norm-4", "zero"])
def test_full_root_list_with_one_vector_of_another_norm_raises(label, extra):
    """A whole root system in a seeded skewed basis plus one vector of norm 4 or 0
    at a random position, in a shuffled order."""
    rng = random.Random(sum(map(ord, label + extra)))
    skewed, rs = _skewed_roots(rng, direct_sum(*[standard_lattice(p) for p in label.split("+")]))
    if extra == "zero":
        vector = (0,) * skewed.rank
    else:
        vector = rng.choice(short_vectors(skewed, 4))
    rng.shuffle(rs)
    rs.insert(rng.randrange(len(rs) + 1), vector)
    with pytest.raises(ValueError):
        identify_root_system(skewed, rs)


def _closed_under_reflections(lat, root_list):
    """Oracle: R u -R is closed under s_a(b) = b - (b, a) a for all a, b in it."""
    full = set(root_list) | {tuple(-x for x in v) for v in root_list}
    return all(tuple(x - lat.inner(b, a) * y for x, y in zip(b, a)) in full
               for a in full for b in full)


def _reflection_closure(lat, gens):
    full = set(gens) | {tuple(-x for x in v) for v in gens}
    frontier = list(full)
    while frontier:
        a = frontier.pop()
        for b in list(full):
            for c in (tuple(x - lat.inner(b, a) * y for x, y in zip(b, a)),
                      tuple(x - lat.inner(a, b) * y for x, y in zip(a, b))):
                if c not in full:
                    full.add(c)
                    frontier.append(c)
    return sorted(full)


def test_identify_rejects_a_non_closed_d4_subset_with_the_a4_root_count():
    """Ten of the twelve positive roots of D4 make 20 roots, the A4 count, at rank 4;
    they are not closed under reflections, so there is no label to give."""
    lat = standard_lattice("D4")
    halves = sorted({max(v, tuple(-x for x in v)) for v in roots(lat)})
    non_closed = [sub for sub in combinations(halves, 10)
                  if not _closed_under_reflections(lat, sub)]
    assert non_closed
    for sub in non_closed:
        with pytest.raises(ValueError):
            identify_root_system(lat, list(sub))


@pytest.mark.parametrize("label", ["A2", "A3", "A4", "D4", "D5", "A2+A1", "A3+A3", "E6", "E8"])
def test_root_lists_raise_exactly_when_not_closed(label):
    """Seeded subsets of a root system, with random signs and order: closed ones (by
    the reflection oracle) get the brute-force search's labels, all others raise."""
    rng = random.Random(sum(map(ord, label)) + 7)
    lat = direct_sum(*[standard_lattice(p) for p in label.split("+")])
    halves = sorted({max(v, tuple(-x for x in v)) for v in roots(lat)})
    seen = {True: 0, False: 0}
    for trial in range(40):
        if trial % 2:
            sub = _reflection_closure(lat, rng.sample(halves, rng.randint(1, 3)))
        else:
            keep = rng.random()
            sub = [v for v in halves if rng.random() < keep] or halves[:1]
        sub = [v if rng.random() < 0.5 else tuple(-x for x in v) for v in sub]
        rng.shuffle(sub)
        closed = _closed_under_reflections(lat, sub)
        seen[closed] += 1
        if closed:
            assert root_components(lat, sub) == reference_root_components(lat, sub)
        else:
            with pytest.raises(ValueError):
                root_components(lat, sub)
    assert seen[True] >= 20 and seen[False] >= 5


def test_reflection_swap_matrix():
    lat = standard_lattice("diag(1,1)")
    s = reflection(lat, (1, -1))
    assert s.matrix == ((0, 1), (1, 0))


def test_reflection_properties_on_random_roots():
    rng = random.Random(14)
    lattices = [standard_lattice(x) for x in
                ("A2", "A3", "A5", "D4", "D6", "E6", "E7", "E8")]
    cases = 0
    while cases < 100:
        lat = rng.choice(lattices)
        delta = rng.choice(roots(lat))
        s = reflection(lat, delta)
        assert s.is_involution()
        assert s.apply(delta) == tuple(-x for x in delta)
        # fixes the orthogonal complement pointwise
        comp = orthogonal_complement(lat, span_sublattice(lat, [delta]))
        for row in comp.basis:
            assert s.apply(row) == row
        cases += 1


def test_reflection_in_long_vector_of_even_lattice():
    # norm-6 vector with all pairings divisible by 3 is a generalized root
    lam = standard_lattice("I_{21,2}")
    h = tuple([1] * 21 + [3, 3])
    delta = find_long_root(lam, h)
    comp = orthogonal_complement(lam, span_sublattice(lam, [h]))
    core = comp.lattice()
    s = reflection(core, comp.from_ambient(delta))
    assert s.is_involution()


def test_reflection_rejects_non_generalized_roots():
    lat = standard_lattice("diag(1,1)")
    with pytest.raises(ValueError):
        reflection(lat, (1, 2))  # norm 5 does not divide 2*(pairings)
    with pytest.raises(ValueError):
        reflection(standard_lattice("U"), (1, 0))  # isotropic


def test_isometry_validation():
    lat = standard_lattice("A2")
    with pytest.raises(ValueError):
        Isometry(lat, ((1, 1), (0, 1)))


def test_disc_action_trivial_and_nontrivial():
    a2 = standard_lattice("A2")
    ident = Isometry(a2, ((1, 0), (0, 1)))
    assert disc_action(a2, ident).is_trivial()
    minus = Isometry(a2, ((-1, 0), (0, -1)))
    act = disc_action(a2, minus)
    assert not act.is_trivial()
    assert act.matrix == ((2,),)  # x -> -x on Z/3


def _diagram_automorphisms(lat):
    """The isometries +-sigma for the permutations sigma of the basis that fix the Gram."""
    g, n = lat.gram, lat.rank
    out = []
    for perm in permutations(range(n)):
        if all(g[perm[i]][perm[j]] == g[i][j] for i in range(n) for j in range(n)):
            for sign in (1, -1):
                out.append(Isometry(lat, tuple(tuple(sign if perm[j] == i else 0
                                                     for j in range(n)) for i in range(n))))
    return out


def _disc_action_oracle(lat, iso):
    """Generator i is P^-1 e_i in the pairing coordinates of L*; its image M^-T P^-1 e_i
    has Smith coordinates P M^-T P^-1 e_i mod d. Both inverses are sympy's."""
    d, p, _q = smith_normal_form([list(r) for r in lat.gram])
    keep = [i for i, di in enumerate(d) if di > 1]
    p_inv = sympy.Matrix(p).inv()
    m_inv_t = sympy.Matrix(iso.matrix).inv().T
    images = []
    for i in keep:
        coords = sympy.Matrix(p) * m_inv_t * p_inv[:, i]
        assert all(x.is_integer for x in coords)
        images.append([int(coords[j]) % d[j] for j in keep])
    return (tuple(d[i] for i in keep),
            tuple(tuple(img[r] for img in images) for r in range(len(keep))))


@pytest.mark.parametrize("label", ["D4", "D4+D4", "E6", "A5", "A2+A2+A2"])
def test_disc_action_matches_sympy_inverse_oracle(label):
    lat = direct_sum(*(standard_lattice(x) for x in label.split("+")))
    isometries = _diagram_automorphisms(lat)
    assert len(isometries) >= 4
    off_diagonal = 0
    for iso in isometries:
        act = disc_action(lat, iso)
        assert (act.invariant_factors, act.matrix) == _disc_action_oracle(lat, iso)
        off_diagonal += any(x for i, row in enumerate(act.matrix)
                            for j, x in enumerate(row) if i != j)
    assert off_diagonal or len(act.invariant_factors) == 1


def test_disc_action_of_long_root_reflection_switches_generators():
    lam = standard_lattice("I_{21,2}")
    h = tuple([1] * 21 + [3, 3])
    delta = find_long_root(lam, h)
    comp = orthogonal_complement(lam, span_sublattice(lam, [h]))
    core = comp.lattice()
    s = reflection(core, comp.from_ambient(delta))
    act = disc_action(core, s)
    assert act.invariant_factors == (3,)
    assert not act.is_trivial()
    assert act.matrix == ((2,),)  # switches the two nonzero elements of Z/3
    # -identity also acts nontrivially: the orientation-preserving group splits
    minus = Isometry(core, tuple(tuple(-1 if i == j else 0 for j in range(22))
                                 for i in range(22)))
    assert not disc_action(core, minus).is_trivial()


def test_find_long_root_contract():
    lam = standard_lattice("I_{21,2}")
    h = tuple([1] * 21 + [3, 3])
    delta = find_long_root(lam, h)
    assert lam.norm(delta) == 6
    assert lam.inner(delta, h) == 0
    assert all((a + b) % 3 == 0 for a, b in zip(h, delta))
    # 3-divisible on h-perp, read off a complement built here
    comp = orthogonal_complement(lam, span_sublattice(lam, [h]))
    assert vector_divisibility(comp.lattice(), comp.from_ambient(delta)) % 3 == 0
    # deterministic
    assert find_long_root(lam, h) == delta
    # the rank-2 overlattice witnesses
    v = tuple((a + b) // 3 for a, b in zip(h, delta))
    gram_hv = [[lam.inner(h, h), lam.inner(h, v)], [lam.inner(v, h), lam.inner(v, v)]]
    assert gram_hv == [[3, 1], [1, 1]]
    w = tuple(a - b for a, b in zip(h, v))
    gram_hw = [[lam.inner(h, h), lam.inner(h, w)], [lam.inner(w, h), lam.inner(w, w)]]
    assert gram_hw == [[3, 2], [2, 2]]


def _first_long_root(lam, h, bound):
    """Reference: every sign pattern drawn, those with a negative first coefficient skipped."""
    gh = intlinalg.mat_vec([list(r) for r in lam.gram], list(h))
    coeffs = [c for a in range(1, bound + 1) for c in (a, -a)]
    for size in range(1, 4):
        for positions in combinations(range(lam.rank), size):
            for cs in product(coeffs, repeat=size):
                if cs[0] < 0:
                    continue
                v = [0] * lam.rank
                for pos, c in zip(positions, cs):
                    v[pos] = c
                pair = sum(c * gh[pos] for pos, c in zip(positions, cs))
                if pair in (1, -1) and lam.norm(tuple(v)) == 1:
                    return tuple(3 * pair * a - b for a, b in zip(v, h))


@pytest.mark.parametrize("h", [tuple([1] * 21 + [3, 3]), tuple([2, 2] + [0] * 19 + [1, 2])])
def test_find_long_root_matches_full_sign_enumeration(h):
    lam = standard_lattice("I_{21,2}")
    for bound in (1, 2, 3):
        assert find_long_root(lam, h, bound) == _first_long_root(lam, h, bound)


def test_find_long_root_bound_errors():
    with pytest.raises(ValueError):
        find_long_root(standard_lattice("I_{21,2}"), tuple([1] * 21 + [3, 3]), bound=0)


def test_root_system_label_parse_and_format():
    lab = RootSystemLabel.parse("E8^2+A2")
    assert str(lab) == "A2+E8^2"
    assert lab.root_count() == 486
    assert lab.total_rank() == 18
    assert RootSystemLabel.parse("-").is_empty()
    assert RootSystemLabel.parse(str(lab)) == lab
    with pytest.raises(ValueError):
        RootSystemLabel.parse("F4")


@pytest.mark.parametrize("text", ["E9", "A0", "D3", "E6^-1", "E6^0"])
def test_root_system_label_rejects_what_names_no_root_system(text):
    with pytest.raises(ValueError):
        RootSystemLabel.parse(text)


def test_package_attribute_roots_is_the_submodule():
    import cf_lattice
    import cf_lattice.roots as roots_module

    assert inspect.ismodule(cf_lattice.roots)
    assert inspect.ismodule(roots_module)
    assert roots_module.roots is roots


def reference_enumerate_norm(gram, target):
    """The walk `_enumerate_norm` replaced, with its halves sorted afterwards, as
    `short_vectors` sorted them: last coordinate outermost, sparse rows, every leaf a
    call. Its output must equal the new walk's item for item; no cap here."""
    n = len(gram)
    if n == 0:
        return []
    dens, pivot_rows, _ = intlinalg.symmetric_bareiss(gram)
    rows = [[(j, row[j]) for j in range(i + 1, n) if row[j]]
            for i, row in enumerate(pivot_rows)]
    steps = [a * b for a, b in zip([1] + dens, dens)]
    s = lcm(*steps)
    weights = [s // e for e in steps]
    results = []
    x = [0] * n

    def descend(i, budget, zeros_so_far):
        if i < 0:
            if budget == 0 and not zeros_so_far:
                results.append(tuple(x))
            return
        c = sum(m * x[j] for j, m in rows[i])
        w, den = weights[i], dens[i]
        r = isqrt(budget // w)
        lo = -((c + r) // den)
        hi = (r - c) // den
        if zeros_so_far and lo < 0:
            lo = 0
        for xi in range(lo, hi + 1):
            t = den * xi + c
            x[i] = xi
            descend(i - 1, budget - w * t * t, zeros_so_far and xi == 0)
        x[i] = 0

    descend(n - 1, target * s, True)
    return sorted(tuple(v) if next((a for a in v if a), 0) > 0 else tuple(-a for a in v)
                  for v in results)


# summands of rank at most 6 keep norm 6 at rank 16 to tens of thousands of vectors;
# E7 and E8 come in through the Niemeier Grams
_WALK_COMPONENTS = ("A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6")


def _seeded_skewed_gram(rank):
    """A seeded A-D-E sum of the given rank in a basis skewed by `rank` elementary
    operations row_i += +-row_j."""
    rng = random.Random(1000 + rank)
    labels, used = [], 0
    while used < rank:
        label = rng.choice([c for c in _WALK_COMPONENTS if int(c[1:]) <= rank - used])
        labels.append(label)
        used += int(label[1:])
    g = [list(r) for r in direct_sum(*map(standard_lattice, labels)).gram]
    u = intlinalg.identity(rank)
    for _ in range(rank if rank > 1 else 0):
        i, j = rng.sample(range(rank), 2)
        c = rng.choice((-1, 1))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return tuple(map(tuple, intlinalg.mat_mul(intlinalg.mat_mul(u, g), intlinalg.transpose(u))))


def assert_walk_matches_reference(gram, norm):
    got = _enumerate_norm(gram, norm)
    assert got == reference_enumerate_norm(gram, norm)
    assert got == sorted(got)  # emitted in order, nothing sorted after the walk
    assert all(_half(v) == v for v in got)
    return got


@pytest.mark.parametrize("rank", range(1, 17))
def test_walk_matches_the_sorted_reference_on_skewed_ade_bases(rank, time_budget):
    gram = _seeded_skewed_gram(rank)
    for norm in (2, 4, 6):
        assert_walk_matches_reference(gram, norm)


def test_walk_matches_the_sorted_reference_on_the_niemeier_grams(time_budget):
    for entry in entries_with_e_summand():
        lat = construct_niemeier(entry).lattice
        assert len(assert_walk_matches_reference(lat.gram, 2)) == entry.root_count() // 2


def test_half_fixes_the_sign_of_the_first_nonzero_coordinate():
    assert _half(()) == ()
    assert _half((0,)) == (0,)
    assert _half((0, 0, 0)) == (0, 0, 0)
    assert _half((3,)) == (3,)
    assert _half((-3,)) == (3,)
    assert _half((0, -1, 2)) == (0, 1, -2)
    assert _half((0, 1, -2)) == (0, 1, -2)


# -- the cap's charge, walk by walk -----------------------------------------------
#
# A walk charges a node per level reached, a leaf per value of the innermost
# coordinate and n per stored vector; it passes a cap equal to its charge and
# raises at one less. A level below a spent budget is charged as the node it
# would be if the walk descended into it.

def assert_charge(monkeypatch, gram, norm, charge):
    monkeypatch.setattr(roots_module, "MAX_ENUMERATION_NODES", charge)
    found = _enumerate_norm(gram, norm)
    monkeypatch.setattr(roots_module, "MAX_ENUMERATION_NODES", charge - 1)
    with pytest.raises(EnumerationCapError):
        _enumerate_norm(gram, norm)
    return found


_NIEMEIER_CHARGES = {"D16+E8": 12_669, "E8^3": 12_634, "A17+E7": 8_848, "D10+E7^2": 8_537,
                     "A11+D7+E6": 7_136, "E6^4": 7_295}


def test_cap_charge_of_the_niemeier_and_e8_walks(monkeypatch, time_budget):
    # every lattice is glued before the cap moves
    glued = [(e, construct_niemeier(e).lattice.gram) for e in entries_with_e_summand()]
    assert sorted(str(e.root_system) for e, _ in glued) == sorted(_NIEMEIER_CHARGES)
    for entry, gram in glued:
        found = assert_charge(monkeypatch, gram, 2, _NIEMEIER_CHARGES[str(entry.root_system)])
        assert len(found) == entry.root_count() // 2
    assert len(assert_charge(monkeypatch, standard_lattice("E8").gram, 2, 1_332)) == 120


_VERIFY_WALK_PROBE = """
import json
import cf_lattice.roots as roots
from cf_lattice import checks
original = roots._enumerate_norm
walked = []

def recorded(gram, target):
    walked.append([[list(row) for row in gram], target])
    return original(gram, target)

roots._enumerate_norm = recorded
checks.run_suite()
print(json.dumps(walked))
"""


def test_cap_charge_of_the_four_verify_walks(monkeypatch, time_budget):
    """From a fresh import, the four walks of `run_suite` (E6 and E7 for their
    splits, E6+A1, then E8 for its split, in that order) charge 2,660 nodes in
    all. No rank-24 lattice is walked."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path_env = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path_env if path_env else "")}
    result = subprocess.run([sys.executable, "-c", _VERIFY_WALK_PROBE], env=env,
                            capture_output=True, text=True, timeout=60, check=True)
    walked = json.loads(result.stdout)
    charges = [312, 623, 393, 1_332]
    assert [(len(gram), norm) for gram, norm in walked] == [(6, 2), (7, 2), (7, 2), (8, 2)]
    for (gram, norm), charge in zip(walked, charges):
        assert_charge(monkeypatch, tuple(map(tuple, gram)), norm, charge)
    assert sum(charges) == 2_660


def _early_spend_gram():
    """A2 + (D5 + A3 + A2 in a basis skewed by 20 seeded row steps), A2 first.

    The A2 coordinates are the two outermost levels of the walk, and the rest is
    orthogonal to them, so a vector supported on A2 spends the whole budget there:
    the ten levels below are forced to 0."""
    rng = random.Random(21)
    rest = direct_sum(*map(standard_lattice, ("D5", "A3", "A2")))
    n = rest.rank
    u = intlinalg.identity(n)
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        u[i] = [a + rng.choice((-1, 1)) * b for a, b in zip(u[i], u[j])]
    g = intlinalg.mat_mul(intlinalg.mat_mul(u, [list(r) for r in rest.gram]),
                          intlinalg.transpose(u))
    return direct_sum(standard_lattice("A2"), Lattice(tuple(map(tuple, g)))).gram


@pytest.mark.parametrize("norm, charge", [(2, 1_018), (4, 15_063)])
def test_cap_charge_of_a_walk_that_spends_its_budget_early(monkeypatch, norm, charge):
    gram = _early_spend_gram()
    found = assert_charge(monkeypatch, gram, norm, charge)
    assert found == reference_enumerate_norm(gram, norm)
    if norm == 2:
        assert [v for v in found if not any(v[2:])] == [(0, 1) + (0,) * 10,
                                                         (1, 0) + (0,) * 10,
                                                         (1, 1) + (0,) * 10]
