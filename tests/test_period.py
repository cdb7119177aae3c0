import json
import os
import random
import subprocess
import sys
from itertools import combinations, product
from math import gcd
from operator import mul
from pathlib import Path

import pytest

from cf_lattice import checks, intlinalg, period, standard_lattice
from cf_lattice.lattices import Lattice, orthogonal_complement, saturation, span_sublattice
from cf_lattice.niemeier import entries_with_e_summand
from cf_lattice.period import (
    MAX_DETERMINANT,
    E6Split,
    BOUNDARY_CONFIGURATIONS,
    BOUNDARY_MATCHING,
    KNOWN_MATCHING_DISCREPANCIES,
    boundary_matching,
    build_period_model,
    classify_boundary_components,
    DeterminantSearch,
    classify_hyperplane,
    determinant_allowed,
    e8_dictionary,
    glue_unimodular_26_2,
    monodromy_involution,
    realizable_determinants,
)
import cf_lattice.roots as roots_module
from cf_lattice.roots import (
    _half,
    count_roots,
    identify_root_system,
    positive_roots,
    root_components,
    roots,
    short_vectors,
)


@pytest.fixture(scope="module")
def model():
    return build_period_model()


@pytest.fixture(scope="module")
def stages():
    """One run's shared stages, built once for the module."""
    return checks.Stages()


@pytest.fixture(scope="module")
def niemeier_stage(stages):
    return stages.niemeier


@pytest.fixture(scope="module")
def e8_split(stages):
    return stages.e8


@pytest.fixture(scope="module")
def splits(niemeier_stage, e8_split):
    """The E8 split and the split each Niemeier entry reads (its E_r's), by root system."""
    return {"E8": e8_split, **{str(entry.root_system): split
                               for entry, _, split in niemeier_stage}}


def test_model_invariants(model):
    amb = model.ambient
    h = model.polarization
    assert amb.inner(h, h) == 3
    core = model.core_lattice
    assert core.rank == 22
    assert core.is_even()
    assert core.signature() == (20, 2)
    assert core.name == "polarization complement"
    assert core.gram == model.core.induced_gram()
    assert model.core_disc.form.invariant_factors == (3,)
    # deterministic rebuild: the library keeps no memo, so this builds anew
    again = build_period_model()
    assert again is not model
    assert again.polarization == model.polarization
    assert again.core.basis == model.core.basis
    assert again.core_lattice.gram == model.core_lattice.gram
    assert again.core_disc.form.invariant_factors == model.core_disc.form.invariant_factors
    assert again.long_root == model.long_root


def _split_summary(split):
    return (split.mixed_lines, sorted(map(count_roots, split.mixed_by_line.values())),
            count_roots(split.in_e6), count_roots(split.orthogonal), str(split.complement))


def test_stages_rebuild_deterministically(niemeier_stage, e8_split):
    """A second build of the E8 split and of the Niemeier stage is a new object with
    the same mixed lines, bucket sizes and complement labels."""
    again = e8_dictionary()
    assert again is not e8_split
    assert _split_summary(again) == _split_summary(e8_split)
    assert _split_summary(again)[1:] == ([54, 54, 54], 72, 6, "A2")
    rebuilt = period.niemeier_e6_stage({r: period.e_split(r) for r in (6, 7, 8)})
    assert rebuilt is not niemeier_stage
    assert ([(e, glued.lattice.gram, _split_summary(split)) for e, glued, split in rebuilt]
            == [(e, glued.lattice.gram, _split_summary(split))
                for e, glued, split in niemeier_stage])


def test_niemeier_stage_reads_the_runs_e_r_splits(stages):
    """Each entry carries the run's split of its E_r, the very object: E8's is the E8
    dictionary, so one run splits E6, E7 and E8 once each and no rank-24 lattice."""
    by_rank = {6: stages.e6, 7: stages.e7, 8: stages.e8}
    assert {str(e.root_system): split.lattice.rank for e, _, split in stages.niemeier} == {
        "D16+E8": 8, "E8^3": 8, "A17+E7": 7, "D10+E7^2": 7, "A11+D7+E6": 6, "E6^4": 6}
    assert all(split is by_rank[split.lattice.rank] for _, _, split in stages.niemeier)


def test_parity_scan_of_core_basis(model):
    core = model.core_lattice
    assert all(core.gram[i][i] % 2 == 0 for i in range(core.rank))


def test_classify_root_vector(model):
    v = tuple([1, -1] + [0] * 21)
    assert model.ambient.norm(v) == 2
    cls = classify_hyperplane(model, v)
    assert cls.det == 6
    assert cls.family == "H_Delta"
    # classification is sign-invariant
    neg = classify_hyperplane(model, tuple(-x for x in v))
    assert (neg.det, neg.family) == (cls.det, cls.family)


def test_classify_long_root(model):
    cls = classify_hyperplane(model, model.long_root)
    assert cls.det == 2
    assert cls.family == "H_infinity"


def test_classify_norm4_vector(model):
    v = tuple([1, -1, 1, -1] + [0] * 19)
    assert model.ambient.norm(v) == 4
    cls = classify_hyperplane(model, v)
    assert cls.det == 12
    assert cls.family == "other"


def test_classify_matches_the_determinant_of_the_saturation(model):
    """Seeded vectors orthogonal to h: sparse combinations w of the core basis, and
    delta + 3w, for which (h + v) / 3 is integral; det against a saturation built
    from kernels and eliminated."""
    rng = random.Random(24)
    ambient, h, core = model.ambient, model.polarization, model.core.basis
    indices = set()
    for trial in range(40):
        w = [0] * ambient.rank
        for row in rng.sample(core, 3):
            c = rng.choice([-2, -1, 1, 2])
            w = [x + c * y for x, y in zip(w, row)]
        if trial % 2:
            w = [d + 3 * x for d, x in zip(model.long_root, w)]
        g = gcd(*w)
        if not g:
            continue
        v = tuple(x // g for x in w)
        sat = saturation(ambient, span_sublattice(ambient, [h, v]))
        det = intlinalg.det(sat.induced_gram())
        cls = classify_hyperplane(model, v)
        assert cls.det == det
        assert cls.family == {2: "H_infinity", 6: "H_Delta"}.get(det, "other")
        if det:
            indices.add(3 * ambient.norm(v) // det)
    assert indices == {1, 9}


def test_classify_rejects_bad_input(model):
    with pytest.raises(ValueError):
        classify_hyperplane(model, tuple([2, -2] + [0] * 21))  # imprimitive
    with pytest.raises(ValueError):
        classify_hyperplane(model, tuple([1] + [0] * 22))  # not orthogonal to h


def test_determinant_congruence():
    assert [d for d in range(2, 15) if determinant_allowed(d)] == [2, 6, 8, 12, 14]


def test_realizable_determinants_window(model):
    result = realizable_determinants(model, 2, 14)
    assert sorted(result.realized) == [2, 6, 8, 12, 14]
    assert result.unrealized_at_bound == ()
    assert result.impossible == (3, 4, 5, 7, 9, 10, 11, 13)
    assert result.realized[6]["family"] == "H_Delta"
    assert result.realized[2]["family"] == "H_infinity"
    for d, witness in result.realized.items():
        cls = classify_hyperplane(model, tuple(witness["vector"]))
        assert cls.det == d


def test_realizable_determinants_bound_guard(model):
    assert MAX_DETERMINANT == 200
    with pytest.raises(ValueError):
        realizable_determinants(model, 2, 201)


def brute_force_determinants(model, lo, hi, search_bound):
    """Reference walk over every position set of size <= 4 (the library walks orbit
    representatives only), confirming each candidate through the minor gcd."""
    ambient = model.ambient
    h = model.polarization
    gh = intlinalg.mat_vec([list(r) for r in ambient.gram], list(h))
    diag = [ambient.gram[i][i] for i in range(ambient.rank)]
    n = ambient.rank
    wanted = [d for d in range(lo, hi + 1) if determinant_allowed(d)]
    realized: dict = {}
    drawn = 0

    def worth_confirming(d):
        for k in (1, 2, 3):
            dd, rem = divmod(d, k * k)
            if rem == 0 and lo <= dd <= hi and dd not in realized:
                return True
        return False

    def confirm(positions, cs):
        t = sum(c * gh[p] for p, c in zip(positions, cs))
        vec = [0] * n
        for p, c in zip(positions, cs):
            vec[p] = 3 * c
        v = tuple(a - t * b for a, b in zip(vec, h))
        if not any(v):
            return
        g = gcd(*v)
        v = tuple(x // g for x in v)
        vsq = sum(v[i] * v[i] * diag[i] for i in range(n))
        if vsq <= 0:
            return
        minor_gcd = 0
        for i, j in combinations(range(n), 2):
            minor_gcd = gcd(minor_gcd, h[i] * v[j] - h[j] * v[i])
            if minor_gcd == 1:
                break
        d_fast = 3 * vsq // (minor_gcd * minor_gcd)
        if not (lo <= d_fast <= hi) or d_fast in realized:
            return
        cls = classify_hyperplane(model, v)
        assert cls.det == d_fast
        gram = saturation(ambient, span_sublattice(ambient, [h, v])).induced_gram()
        if gram[0][0] > 0 and intlinalg.det(gram) > 0:
            realized[cls.det] = {"vector": v, "det": cls.det, "family": cls.family}

    for radius in range(1, search_bound + 1):
        coeff_range = [c for c in range(-radius, radius + 1) if c]
        leading = range(1, radius + 1)
        for size in range(1, 5):
            for positions in combinations(range(n), size):
                gh_loc = [gh[p] for p in positions]
                dg_loc = [diag[p] for p in positions]
                for cs in product(leading, *[coeff_range] * (size - 1)):
                    drawn += 1
                    if max(abs(c) for c in cs) != radius:
                        continue
                    t = sum(c * w for c, w in zip(cs, gh_loc))
                    s = sum(c * c * w for c, w in zip(cs, dg_loc))
                    d = 3 * s - t * t
                    if d > 0 and worth_confirming(d):
                        confirm(positions, cs)
            if all(d in realized for d in wanted):
                break
        if all(d in realized for d in wanted):
            break
    return DeterminantSearch(
        lo=lo, hi=hi, realized=realized,
        impossible=tuple(d for d in range(lo, hi + 1) if not determinant_allowed(d)),
        unrealized_at_bound=tuple(d for d in wanted if d not in realized), drawn=drawn)


@pytest.mark.parametrize("hi, bound", [(14, 1), (14, 2), (14, 6), (30, 1)])
def test_orbit_walk_matches_brute_force(model, hi, bound):
    fast = realizable_determinants(model, 2, hi, search_bound=bound)
    slow = brute_force_determinants(model, 2, hi, bound)
    assert list(fast.realized.items()) == list(slow.realized.items())
    assert fast.unrealized_at_bound == slow.unrealized_at_bound
    assert fast.impossible == slow.impossible
    if (hi, bound) == (14, 6):
        assert (fast.drawn, slow.drawn) == (72, 80_523)


def test_witness_search_rejects_a_non_diagonal_gram(model):
    gram = [list(r) for r in model.ambient.gram]
    gram[0][1] = gram[1][0] = 1
    skewed = model.replace(ambient=Lattice(tuple(map(tuple, gram))))
    with pytest.raises(ValueError, match="diagonal"):
        realizable_determinants(skewed, 2, 14)


def test_witness_search_needs_five_unit_coordinates_of_h(model):
    # four coordinates of h equal to +-1: a support of size 4 can cover them all
    few_units = model.replace(polarization=tuple([1, -1, 1, 1] + [3] * 19))
    with pytest.raises(ValueError, match="polarization"):
        realizable_determinants(few_units, 2, 14)


def test_every_allowed_determinant_up_to_the_window_bound(model):
    result = realizable_determinants(model, 2, MAX_DETERMINANT, search_bound=8)
    assert result.unrealized_at_bound == ()
    assert len(result.realized) == 67
    for d, witness in result.realized.items():
        assert classify_hyperplane(model, witness["vector"]).det == d


def test_monodromy_involution_matrix(model):
    g = monodromy_involution(model)
    assert g.is_involution()
    assert g.det() == -1
    assert g.apply(model.polarization) == model.polarization
    delta = model.long_root
    assert g.apply(delta) == delta


def test_monodromy_lemma_report():
    report = checks.run_check("monodromy-lemma")
    assert report.status == "pass"
    assert report.actual["gram_of_fixed"] == [[3, 2], [2, 2]]
    assert report.actual["eigenvalue_ranks"] == {"fixed": 2, "negated": 21}
    assert report.actual["complement_genus"]["matches_A1_E8_E8_U_U"] is True
    assert report.paper_ref


def test_boundary_components_match_table(niemeier_stage):
    comps = classify_boundary_components(niemeier_stage)
    assert len(comps) == 6
    got = {c.label: str(c.root_sublattice) for c in comps}
    assert got == BOUNDARY_MATCHING
    assert len(set(got.values())) == 6


_SUITE_WALK_PROBE = """
import importlib
import json
from cf_lattice import checks, period
roots = importlib.import_module("cf_lattice.roots")  # the package's `roots` is the function
original = roots._enumerate_norm
walked = []

def counted(gram, norm):
    walked.append((gram, norm))
    return original(gram, norm)

roots._enumerate_norm = counted
stages = checks.Stages()   # the run's stages, read again below without a rebuild
reports = [checks.run_check(c, stages) for c in checks.check_ids()]
walks, distinct = len(walked), len(set(walked))
print(json.dumps({
    "statuses": [r.status for r in reports],
    "walks": walks,
    "distinct": distinct,
    "grams": [len(gram) for gram, _ in walked],
    "roots_match": [sorted(split.in_e6 + split.orthogonal
                           + sum(split.mixed_by_line.values(), ()))
                    == roots.short_vectors(split.lattice, 2)[0::2]
                    for split in (stages.e6, stages.e7, stages.e8)],
}))
"""


def test_suite_walks_each_lattice_once_and_passes_roots_on():
    """From a fresh import, the twelve checks of one run make 4 Fincke-Pohst walks
    on 4 distinct Grams, each once: E6, E7 and E8 hand their roots to their E6
    splits, automorphic-weight-orders reads the E6 and E7 root counts off those
    splits, the Niemeier lattices are not walked (the glue certifies their
    roots), and the complement and E7 saturation root systems are read off the
    splits instead of walked. The 4 walks are E6, E7, E6+A1 and E8. The pairwise
    E8 saturations of intersection-codims have the identity basis, so their
    roots are those of the E8 split."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path_env = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path_env if path_env else "")}
    result = subprocess.run([sys.executable, "-c", _SUITE_WALK_PROBE], env=env,
                            capture_output=True, text=True, timeout=120, check=True)
    got = json.loads(result.stdout)
    assert got["statuses"] == ["pass"] * 12
    assert got["walks"] == 4
    assert got["distinct"] == 4
    assert got["grams"] == [6, 7, 7, 8]
    assert got["roots_match"] == [True] * 3


_CORE_BUILD_PROBE = """
import json
import sys
from cf_lattice import checks, intlinalg, lattices, period
core = period.build_period_model().core_lattice   # the reference, built before counting
calls = {"complement_of_a_line": 0, "adjugate_22": 0, "elimination_28": 0}
disc_grams = []

def patch(module, name, count):
    original = getattr(module, name)
    def counted(*args):
        count(*args)
        return original(*args)
    # every cf_lattice module that imported the function by name
    for mod in [m for key, m in list(sys.modules.items()) if key.startswith("cf_lattice")]:
        if getattr(mod, name, None) is original:
            setattr(mod, name, counted)

def tally(key, hit):
    calls[key] += hit

patch(lattices, "orthogonal_complement",
      lambda lat, sub: tally("complement_of_a_line", sub.rank == 1))
patch(intlinalg, "adjugate", lambda a: tally("adjugate_22", len(a) == 22))
patch(intlinalg, "symmetric_bareiss", lambda a: tally("elimination_28", len(a) == 28))
patch(lattices, "discriminant_data", lambda lat: disc_grams.append(lat.gram))
reports = checks.run_suite()
print(json.dumps({"statuses": [r.status for r in reports], **calls,
                  "disc_of_core": disc_grams.count(core.gram)}))
"""


def test_one_verify_builds_the_core_lattice_once():
    """From a fresh import, `run_suite` takes the complement of span(h) once, pays one
    22x22 adjugate (the core's coordinate solver), one rank-28 elimination
    (II_{26,2}'s, whose det and signature the complement inside the glue and the
    lambda-prime check share) and one discriminant form of the 22x22 core, all
    inside the one period model the run builds."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path_env = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path_env if path_env else "")}
    result = subprocess.run([sys.executable, "-c", _CORE_BUILD_PROBE], env=env,
                            capture_output=True, text=True, timeout=120, check=True)
    assert json.loads(result.stdout) == {
        "statuses": ["pass"] * 12, "complement_of_a_line": 1, "adjugate_22": 1,
        "elimination_28": 1, "disc_of_core": 1}


_ROOT_COMPONENTS_PROBE = """
import importlib
import json
import sys
from cf_lattice import checks
roots = importlib.import_module("cf_lattice.roots")  # the package's `roots` is the function
original = roots.root_components
sizes = []

def counted(lat, root_list):
    root_list = list(root_list)
    sizes.append(len(root_list))
    return original(lat, root_list)

# every cf_lattice module that binds the function, the roots module included
for key, module in list(sys.modules.items()):
    if key.startswith("cf_lattice") and getattr(module, "root_components", None) is original:
        module.root_components = counted
reports = checks.run_suite()
print(json.dumps({"statuses": [r.status for r in reports], "sizes": sizes}))
"""


def test_suite_splits_each_root_system_into_components_once():
    """From a fresh import, `run_suite` runs `root_components` three times, once in
    each of the splits of E6, E7 and E8, on the halves orthogonal to E6: 0, 0
    and 3 of them. No root system of more than 6 roots is split into components:
    `split_by_e6` embeds E6 among all of E_r's roots, and the boundary labels
    add the Niemeier entries' other components to those complements."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path_env = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path_env if path_env else "")}
    result = subprocess.run([sys.executable, "-c", _ROOT_COMPONENTS_PROBE], env=env,
                            capture_output=True, text=True, timeout=120, check=True)
    got = json.loads(result.stdout)
    assert got["statuses"] == ["pass"] * 12
    assert got["sizes"] == [0, 0, 3]


def _in_ambient(sub, coords):
    return tuple(sum(c * row[j] for c, row in zip(coords, sub.basis))
                 for j in range(sub.ambient.rank))


def per_root_split_reference(lat, root_list) -> E6Split:
    """The split that projects every root, r and -r alike, to E6^perp, each
    component included, and identifies the complement from the orthogonal roots."""
    e_component = next(halves for (family, _), halves in root_components(lat, root_list)
                       if family == "E")
    e6sub = period.embed_e6(lat, e_component)
    det6, adj6 = intlinalg.adjugate([list(r) for r in e6sub.induced_gram()])
    basis_pairings = [intlinalg.mat_vec([list(r) for r in lat.gram], list(row))
                      for row in e6sub.basis]
    basis_cols = intlinalg.transpose(e6sub.basis)
    in_e6, orthogonal, mixed_by_line = [], [], {}
    for root in root_list:
        pair = [sum(map(mul, bp, root)) for bp in basis_pairings]
        if not any(pair):
            orthogonal.append(root)
            continue
        coeffs = intlinalg.mat_vec(adj6, pair)
        proj = [det6 * r - sum(map(mul, coeffs, col)) for r, col in zip(root, basis_cols)]
        if not any(proj):
            in_e6.append(root)
            continue
        gg = gcd(*proj)
        mixed_by_line.setdefault(_half(tuple(x // gg for x in proj)), []).append(root)
    return E6Split(lattice=lat, e6=e6sub, in_e6=tuple(in_e6), orthogonal=tuple(orthogonal),
                   mixed_by_line={k: tuple(v) for k, v in mixed_by_line.items()},
                   complement=identify_root_system(lat, orthogonal))


def _assert_same_split(lat, root_list):
    split, ref = period.split_by_e6(lat, root_list), per_root_split_reference(lat, root_list)
    assert split == ref
    assert list(split.mixed_by_line) == list(ref.mixed_by_line)  # key order too


@pytest.mark.parametrize("name", ["E8"] + [str(e.root_system) for e in entries_with_e_summand()])
def test_split_equals_the_per_root_reference(splits, name):
    """The split of the positive roots puts each half where projecting it puts it:
    the same buckets, in the same order, on the walk's order and on a shuffled one."""
    lat = splits[name].lattice
    halves = positive_roots(lat)
    _assert_same_split(lat, halves)
    random.Random(len(halves)).shuffle(halves)
    assert halves != sorted(halves)
    _assert_same_split(lat, halves)


def _with_negatives(bucket):
    return tuple(u for v in bucket for u in (v, tuple(-x for x in v)))


@pytest.mark.parametrize("name", ["E8"] + [str(e.root_system) for e in entries_with_e_summand()])
def test_split_buckets_with_their_negatives_are_the_per_root_buckets(splits, name):
    """Each bucket of the stage's split, every half followed by its negative, is the
    bucket that projecting every root of `roots(lat)` gives, order included."""
    split = splits[name]
    lat = split.lattice
    ref = per_root_split_reference(lat, roots(lat))
    assert split.e6 == ref.e6
    assert _with_negatives(split.in_e6) == ref.in_e6
    assert _with_negatives(split.orthogonal) == ref.orthogonal
    assert list(split.mixed_by_line) == list(ref.mixed_by_line)
    assert all(_with_negatives(split.mixed_by_line[w]) == ref.mixed_by_line[w]
               for w in ref.mixed_by_line)
    assert split.complement == ref.complement
    assert split.root_count == len(roots(lat))


def test_split_by_e6_takes_positive_roots_only(e8_split):
    """Both signs of the roots, a repeated half, or one half negated would each be
    filed as it comes, so the buckets would not be halves."""
    e8 = e8_split.lattice
    halves = positive_roots(e8)
    with pytest.raises(ValueError):
        period.split_by_e6(e8, roots(e8))
    with pytest.raises(ValueError, match="one root of each"):
        period.split_by_e6(e8, halves + halves[:1])
    with pytest.raises(ValueError, match="first nonzero coordinate is positive"):
        period.split_by_e6(e8, halves[:-1] + [tuple(-x for x in halves[-1])])


def test_positive_roots_are_the_walk_halves_of_short_vectors(niemeier_stage):
    """On E6, E7, E8 and the six glued lattices: every other vector of
    `short_vectors`; and the E_r splits the stage carries hold exactly those
    halves of E_r."""
    for name in ("E6", "E7", "E8"):
        lat = standard_lattice(name)
        assert positive_roots(lat) == short_vectors(lat, 2)[0::2]
    for _, glued, split in niemeier_stage:
        assert positive_roots(glued.lattice) == short_vectors(glued.lattice, 2)[0::2]
        halves = split.in_e6 + split.orthogonal + sum(split.mixed_by_line.values(), ())
        assert sorted(halves) == positive_roots(split.lattice)


def test_stages_never_list_both_signs(monkeypatch):
    """A run's E_r splits and its Niemeier stage walk one root of each pair: none
    reaches `short_vectors`, through the module or a name imported from it."""
    def refuse(*args):
        raise AssertionError("the stage built both signs of its roots")

    original = roots_module.short_vectors
    for key, module in list(sys.modules.items()):
        if key.startswith("cf_lattice") and getattr(module, "short_vectors", None) is original:
            monkeypatch.setattr(module, "short_vectors", refuse)
    with pytest.raises(AssertionError, match="both signs"):
        roots(standard_lattice("A2"))  # the patch is live
    stages = checks.Stages()
    assert {str(e.root_system): split.root_count for e, _, split in stages.niemeier} == {
        "D16+E8": 240, "E8^3": 240, "A17+E7": 126, "D10+E7^2": 126,
        "A11+D7+E6": 72, "E6^4": 72}
    assert [stages.e6.root_count, stages.e7.root_count, stages.e8.root_count] == [72, 126, 240]
    assert e8_dictionary().root_count == 240


def test_stage_labels_and_ranks_match_the_rank_24_lattices(niemeier_stage):
    """The six complements and projection ranks the old way, as demo 03 finds them:
    walk N, embed E6 in its E component, identify the root system of the
    orthogonal complement (walked), and split all of N's roots for the
    projection rank. The stage reads both off the E_r splits instead."""
    labels = {c.source_entry: str(c.root_sublattice)
              for c in classify_boundary_components(niemeier_stage)}
    ranks = {}
    for entry, glued, split in niemeier_stage:
        lat = glued.lattice
        halves = positive_roots(lat)
        assert count_roots(halves) == entry.root_count()  # the glue added no roots
        ref = per_root_split_reference(lat, halves)
        comp_lat = orthogonal_complement(lat, ref.e6).lattice()
        walked = identify_root_system(comp_lat, roots(comp_lat))
        assert str(walked) == str(ref.complement) == labels[str(entry.root_system)]
        ranks[str(entry.root_system)] = period._qualifying_projection_rank(ref)
        assert ranks[str(entry.root_system)] == period._qualifying_projection_rank(split)
    assert ranks == {"E6^4": 0, "A11+D7+E6": 0, "D10+E7^2": 1, "A17+E7": 1,
                     "E8^3": 2, "D16+E8": 2}


@pytest.mark.parametrize("name", ["E8"] + [str(e.root_system) for e in entries_with_e_summand()])
def test_split_agrees_with_complement_and_saturation_lattices(splits, name):
    """The reference route, walking the roots of the lattices themselves: the
    complement E6^perp has the root system of `split.orthogonal` and twice as many
    roots as it holds halves, and for every mixed line w the saturation of E6 + Zw
    has rank 7 and exactly the roots `split.saturation_roots(w)` and their
    negatives, in_e6 included."""
    split = splits[name]
    lat = split.lattice
    comp_lat = orthogonal_complement(lat, split.e6).lattice()
    comp_roots = roots(comp_lat)
    assert len(comp_roots) == count_roots(split.orthogonal)
    assert (identify_root_system(comp_lat, comp_roots)
            == identify_root_system(lat, split.orthogonal) == split.complement)
    for w in split.mixed_lines:
        sat = saturation(lat, span_sublattice(lat, [*split.e6.basis, w]))
        assert sat.rank == 7
        sat_roots = {_in_ambient(sat, r) for r in roots(sat.lattice())}
        assert sat_roots == set(_with_negatives(split.saturation_roots(w)))
        assert len(sat_roots) == count_roots(split.saturation_roots(w))


def test_unimodular_26_2(model):
    ext = glue_unimodular_26_2(model)
    lat = ext.lattice
    assert lat.rank == 28
    assert abs(lat.det()) == 1
    assert lat.signature() == (26, 2)
    assert lat.is_even()
    assert str(ext.core_disc_q) == "2/3"
    assert str(ext.e6_disc_q) == "4/3"
    assert ext.e6_image.induced_gram() == standard_lattice("E6").gram


def test_dictionary_counts_pass():
    report = checks.run_check("dictionary-counts")
    assert report.status == "pass"
    assert report.actual["in_e6"] == 72
    assert report.actual["orthogonal"] == 6
    assert report.actual["mixed"] == 162
    assert all(s == {"rank": 7, "root_count": 126}
               for s in report.actual["mixed_saturations"])


def test_dictionary_three_classes_of_54(e8_split):
    """Three mixed lines of 27 positive roots each, 54 roots with both signs."""
    dic = e8_split
    assert sorted(len(v) for v in dic.mixed_by_line.values()) == [27, 27, 27]
    assert sorted(map(count_roots, dic.mixed_by_line.values())) == [54, 54, 54]


def test_dictionary_stability_across_e6_choices(e8_split):
    # the partition counts do not depend on which E6 subsystem is fixed:
    # rebase on images of the fixed one under a few reflections
    from cf_lattice.roots import reflection, roots as roots_of
    from cf_lattice import Sublattice
    from cf_lattice import intlinalg as _il
    dic = e8_split
    e8 = dic.lattice
    all_roots = roots_of(e8)
    count = 0
    for seed_root in (all_roots[0], all_roots[10], all_roots[25]):
        s = reflection(e8, seed_root)
        image_rows = tuple(s.apply(row) for row in dic.e6.basis)
        sub = Sublattice(e8, image_rows)
        assert sub.induced_gram() == dic.e6.induced_gram()
        in_e6 = orth = mixed = 0
        g = [list(r) for r in e8.gram]
        pair_rows = [_il.mat_vec(g, list(r)) for r in image_rows]
        for root in all_roots:
            pairings = [sum(a * b for a, b in zip(pr, root)) for pr in pair_rows]
            if not any(pairings):
                orth += 1
            elif sub.contains(root):
                in_e6 += 1
            else:
                mixed += 1
        assert (in_e6, orth, mixed) == (72, 6, 162)
        count += 1
    assert count == 3


def test_intersection_codims_pass():
    report = checks.run_check("intersection-codims")
    assert report.status == "pass"
    assert report.actual["projection_ranks"] == {
        "E6^4": 0, "A11+D7+E6": 0, "D10+E7^2": 1, "A17+E7": 1,
        "E8^3": 2, "D16+E8": 2}
    assert report.actual["pairwise_saturations"] == "all E8"


def test_automorphic_weight_and_orders():
    report = checks.run_check("automorphic-weight-orders")
    assert report.status == "pass"
    assert report.actual == {"weight": 48, "order_H_infinity": 27, "order_H_Delta": 1}


def test_boundary_matching_rules():
    assert str(boundary_matching(["elliptic_curve(6)"])) == "A17"
    assert str(boundary_matching(["Etilde6"] * 3)) == "E6^3"
    assert str(boundary_matching(["elliptic_curve(4)", "rational_curve(1)"])) == "A11+D7"
    assert str(boundary_matching(["rational_curve(4)"])) == "D16"
    assert str(boundary_matching(["Etilde8", "Etilde8"])) == "E8^2"
    with pytest.raises(ValueError):
        boundary_matching(["cusp_curve(2)"])


def test_boundary_matching_agreements_and_discrepancies():
    agreements = {}
    for label, config in BOUNDARY_CONFIGURATIONS.items():
        out = str(boundary_matching(config))
        agreements[label] = out == BOUNDARY_MATCHING[label]
        if not agreements[label]:
            assert KNOWN_MATCHING_DISCREPANCIES[label] == out
    assert {k for k, v in agreements.items() if v} == {"alpha", "delta", "phi"}
    assert set(KNOWN_MATCHING_DISCREPANCIES) == {"beta", "gamma", "epsilon"}
