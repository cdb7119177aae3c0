"""Acceptance criteria, one test per numbered criterion.

Each criterion is exact arithmetic with a wall-clock budget; a line per
criterion is printed (visible with pytest -s). Run:

    pytest -s tests/test_acceptance.py
"""
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cf_lattice import (
    Lattice,
    direct_sum,
    discriminant_data,
    orthogonal_complement,
    span_sublattice,
    standard_lattice,
)
from cf_lattice import checks, period, plethysm, spectra
from cf_lattice.niemeier import construct_niemeier, entries_with_e_summand
from cf_lattice.roots import reflection, roots


@pytest.fixture(scope="module")
def model():
    """The period model, built once for the criteria that read it after the first."""
    return period.build_period_model()


def _report(num, budget_s, started, description):
    elapsed = time.monotonic() - started
    assert elapsed < budget_s, f"criterion {num} exceeded {budget_s}s ({elapsed:.1f}s)"
    print(f"criterion {num:2d}: PASS ({elapsed:6.2f}s < {budget_s}s) {description}")


def test_criterion_01_lattice_model():
    t0 = time.monotonic()
    model = period.build_period_model()
    amb, h = model.ambient, model.polarization
    assert amb.inner(h, h) == 3
    core = model.core_lattice
    assert core.is_even()
    assert core.signature() == (20, 2)
    assert discriminant_data(core).form.invariant_factors == (3,)
    _report(1, 1, t0, "square-3 polarization with even (20,2) complement, disc Z/3")


def test_criterion_02_monodromy_involution():
    t0 = time.monotonic()
    report = checks.run_check("monodromy-lemma")
    assert report.status == "pass"
    assert report.actual["gram_of_fixed"] == [[3, 2], [2, 2]]
    assert report.actual["minus_identity_on_complement"] is True
    genus = report.actual["complement_genus"]
    assert genus == {"rank": 21, "signature": [19, 2], "even": True,
                     "disc_order": 2, "matches_A1_E8_E8_U_U": True}
    _report(2, 1, t0, "involution fixes Gram [[3,2],[2,2]], -1 on its complement")


def test_criterion_03_determinant_arrangement(model):
    t0 = time.monotonic()
    result = period.realizable_determinants(model, 2, 14)
    assert sorted(result.realized) == [2, 6, 8, 12, 14]
    assert result.unrealized_at_bound == ()
    assert result.realized[6]["family"] == "H_Delta"
    assert result.realized[2]["family"] == "H_infinity"
    root = tuple([1, -1] + [0] * 21)
    assert period.classify_hyperplane(model, root).det == 6
    assert period.classify_hyperplane(model, model.long_root).det == 2
    _report(3, 10, t0, "realizable determinants in [2,14] are {2,6,8,12,14}")


def test_criterion_04_boundary_classification():
    t0 = time.monotonic()
    entries = entries_with_e_summand()
    assert sorted(str(e.root_system) for e in entries) == [
        "A11+D7+E6", "A17+E7", "D10+E7^2", "D16+E8", "E6^4", "E8^3"]
    comps = period.classify_boundary_components(checks.Stages().niemeier)
    got = sorted(str(c.root_sublattice) for c in comps)
    assert got == ["A11+D7", "A17", "A2+D16", "A2+E8^2", "D10+E7", "E6^3"]
    _report(4, 60, t0, "six boundary systems incl. the A17 case absent from prose")


def test_criterion_05_niemeier_invariants():
    t0 = time.monotonic()
    expected_counts = {"E8^3": 720, "D16+E8": 720, "A17+E7": 432,
                       "D10+E7^2": 432, "E6^4": 288, "A11+D7+E6": 288}
    for entry in entries_with_e_summand():
        lat = construct_niemeier(entry).lattice
        assert lat.is_even()
        assert abs(lat.det()) == 1
        rts = roots(lat)
        assert len(rts) == 24 * entry.coxeter_number
        assert len(rts) == expected_counts[str(entry.root_system)]
    _report(5, 60, t0, "all six glued lattices even unimodular with 24h roots")


def test_criterion_06_dictionary_counts():
    t0 = time.monotonic()
    report = checks.run_check("dictionary-counts")
    assert report.status == "pass"
    assert (report.actual["in_e6"], report.actual["orthogonal"],
            report.actual["mixed"]) == (72, 6, 162)
    assert all(s == {"rank": 7, "root_count": 126}
               for s in report.actual["mixed_saturations"])
    _report(6, 5, t0, "roots of E8 split 72/6/162 and mixed spans saturate to E7")


def test_criterion_07_intersection_codimensions():
    t0 = time.monotonic()
    report = checks.run_check("intersection-codims")
    assert report.status == "pass"
    ranks = report.actual["projection_ranks"]
    assert [ranks[k] for k in ("E6^4", "A11+D7+E6", "D10+E7^2", "A17+E7",
                               "E8^3", "D16+E8")] == [0, 0, 1, 1, 2, 2]
    assert report.actual["pairwise_saturations"] == "all E8"
    _report(7, 60, t0, "projection ranks 0/0/1/1/2/2; pairwise spans give E8")


def test_criterion_08_automorphic_form_data():
    t0 = time.monotonic()
    report = checks.run_check("automorphic-weight-orders")
    assert report.status == "pass"
    assert report.actual == {"weight": 48, "order_H_infinity": 27,
                             "order_H_Delta": 1}
    _report(8, 5, t0, "weight 12 + 36 = 48; vanishing orders 27 and 1")


def test_criterion_09_plethysm():
    t0 = time.monotonic()
    w3 = plethysm.sym_power(plethysm.standard_character(plethysm.SL3), 2)
    dec3 = plethysm.decompose(plethysm.sym_power(w3, 3))
    assert str(dec3) == "Gamma_{6,0} + Gamma_{2,2} + C"
    assert [plethysm.irrep_dimension(plethysm.SL3, w) for w, _ in dec3.summands] \
        == [28, 27, 1]
    w2 = plethysm.sym_power(plethysm.standard_character(plethysm.SL2), 4) \
        + plethysm.trivial_character(plethysm.SL2)
    dec2 = plethysm.decompose(plethysm.sym_power(w2, 3))
    assert str(dec2) == "Sym^12(V) + Sym^8(V)^2 + Sym^6(V) + Sym^4(V)^3 + C^3"
    omega = plethysm.normal_slice(plethysm.sym_power(w3, 3), w3,
                                  plethysm.irreducible_character(plethysm.SL3, (1, 1)))
    assert str(omega) == "Gamma_{6,0}" and omega.dimension() == 28
    chi = plethysm.normal_slice(plethysm.sym_power(w2, 3), w2,
                                plethysm.irreducible_character(plethysm.SL2, 2))
    assert str(chi) == "Sym^12(V) + Sym^8(V) + C" and chi.dimension() == 23
    _report(9, 1, t0, "both cube decompositions and both normal slices")


def test_criterion_10_spectra():
    t0 = time.monotonic()
    for entry in spectra.surface_catalog():
        sp = spectra.spectrum(entry.singularity)
        if entry.kind == "du_val":
            assert spectra.interval_check(sp, 0, 1, strict_lo=True, strict_hi=True)
        else:
            assert spectra.interval_check(sp, 0, 1)
            assert sp.minimum() == 0 and sp.maximum() == 1
        assert spectra.interval_check(spectra.suspend(sp, 2), 1, 2)
    _report(10, 1, t0, "du Val strictly in (0,1); simple elliptic hits 0 and 1; "
                       "double suspension lands in [1,2]")


def test_criterion_11_property_suites(model):
    t0 = time.monotonic()
    rng = random.Random(271828)
    # reflections: involution + orthogonality on 100 random generalized roots
    pool = [standard_lattice(x) for x in
            ("A2", "A4", "A7", "D4", "D5", "D8", "E6", "E7", "E8")]
    for _ in range(100):
        lat = rng.choice(pool)
        delta = rng.choice(roots(lat))
        s = reflection(lat, delta)
        assert s.is_involution()
        comp = orthogonal_complement(lat, span_sublattice(lat, [delta]))
        assert all(s.apply(row) == row for row in comp.basis)
    # discriminant order = |det| on 100 random small lattices
    done = 0
    while done < 100:
        n = rng.randint(1, 4)
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                g[i][j] = g[j][i] = rng.randint(-4, 4)
        lat = Lattice(tuple(tuple(r) for r in g))
        d = lat.det()
        if d == 0:
            continue
        assert discriminant_data(lat).form.order == abs(d)
        done += 1
    # spectrum symmetry on the full catalog
    for entry in spectra.surface_catalog():
        assert spectra.spectrum(entry.singularity).is_symmetric()
    # overlattice index law on every glue performed by the build
    for entry in entries_with_e_summand():
        base = direct_sum(*[standard_lattice(f"{f}{n}")
                            for f, n in entry.root_system.components])
        glued = construct_niemeier(entry)
        assert abs(glued.lattice.det()) * glued.glue_order ** 2 == abs(base.det())
    ext = period.glue_unimodular_26_2(model)
    core = model.core_lattice
    assert abs(ext.lattice.det()) * 9 == abs(core.det()) * abs(
        standard_lattice("E6").det())
    _report(11, 30, t0, "reflection/disc-order/symmetry/index-law property suites")


def test_criterion_12_boundary_matching():
    t0 = time.monotonic()
    agreements = {}
    for label, config in period.BOUNDARY_CONFIGURATIONS.items():
        out = str(period.boundary_matching(config))
        expected = period.BOUNDARY_MATCHING[label]
        agreements[label] = out == expected
        if label in period.KNOWN_MATCHING_DISCREPANCIES:
            assert out == period.KNOWN_MATCHING_DISCREPANCIES[label]
    assert {k for k, v in agreements.items() if v} == {"alpha", "delta", "phi"}
    assert {k for k, v in agreements.items() if not v} == {"beta", "gamma", "epsilon"}
    report = checks.run_check("boundary-matching")
    assert report.status == "pass"
    _report(12, 1, t0, "rules match alpha/delta/phi; beta/gamma/epsilon flagged "
                       "as known ambiguities")


def test_full_registry_green():
    # every registered check passes end to end; exit-code semantics: 0 failures
    reports = checks.run_suite()
    assert len(reports) == 12
    failing = [r.check for r in reports if r.status == "fail"]
    assert failing == []
    assert [r.check for r in reports] == sorted(r.check for r in reports)


DIGESTS = Path(__file__).resolve().parents[1] / "perfbench" / "digests.json"


def test_every_report_matches_its_recorded_digest():
    """The twelve reports are byte-identical, apart from elapsed_ms, to the ones
    recorded in perfbench/digests.json: sha256 of the sorted-key JSON of each."""
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = {}
    for report in checks.run_suite():
        body = {k: v for k, v in report.to_dict().items() if k != "elapsed_ms"}
        got[report.check] = hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()
    assert got == want


def _verify_json(*check_ids):
    """The reports of `cf-lattice --output json verify ...` from a fresh interpreter,
    each as sorted-key JSON without `elapsed_ms`."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path_env = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path_env if path_env else "")}
    done = subprocess.run([sys.executable, "-m", "cf_lattice.cli", "--output", "json",
                           "verify", *check_ids], env=env, capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return {r["check"]: json.dumps({k: v for k, v in r.items() if k != "elapsed_ms"},
                                   sort_keys=True)
            for r in json.loads(done.stdout)}


def test_each_check_alone_reports_what_the_full_suite_reports():
    """A run builds each shared stage in the first check that reads it, so a check
    run alone in a fresh process builds a stage that the suite built in an earlier
    check; its report bytes (without elapsed_ms) must not depend on that."""
    suite = _verify_json()
    assert sorted(suite) == sorted(checks.REGISTRY)
    for check_id in sorted(checks.REGISTRY):
        assert _verify_json(check_id) == {check_id: suite[check_id]}, check_id
