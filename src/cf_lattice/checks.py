"""The twelve named verification checks and the suite that runs them.

Every report is built here: each registered runner takes the run's
`Stages`, compares the paper's expected values with computed ones, and
returns a VerificationReport whose status is `pass` or `fail`. The
mathematics lives in the library modules, which keep no memo. A run holds
five shared stages, each built once per run by the first check that reads
it: the period model, the splits of E6, E7 and E8 relative to an embedded
E6 (`period.e_split`; E8's is the E8 dictionary) and
`period.niemeier_e6_stage` (the six E-containing rank-24 lattices, each
with its E_r's split). A split keeps the roots it walked, one of each
+-pair (`roots.positive_roots`): boundary root systems and E7 saturations
are read off these `period.E6Split`s, whose root counts are
`roots.count_roots` of those halves, both signs counted. No rank-24 lattice
is walked: its glue certifies that it has the roots of its root lattice.
"""
from __future__ import annotations

import time
from functools import cached_property

from . import intlinalg, period, plethysm, spectra
from .lattices import (
    Sublattice,
    direct_sum,
    genus_invariants,
    orthogonal_complement,
    span_sublattice,
    standard_lattice,
    vector_divisibility,
)
from .niemeier import entries_with_e_summand
from .report import VerificationReport, make_report
from .roots import count_roots, disc_action, reflection, roots


class Stages:
    """The shared stages of one run, each built by the first check that reads it."""

    model = cached_property(lambda self: period.build_period_model())
    e6 = cached_property(lambda self: period.e_split(6))
    e7 = cached_property(lambda self: period.e_split(7))
    e8 = cached_property(lambda self: period.e8_dictionary())
    niemeier = cached_property(lambda self: period.niemeier_e6_stage(
        {6: self.e6, 7: self.e7, 8: self.e8}))


def _check_model_build(stages: Stages) -> VerificationReport:
    model = stages.model
    core_lat = model.core_lattice
    expected = {"polarization_square": 3, "complement_even": True,
                "complement_signature": [20, 2], "complement_disc": [3],
                "long_root_norm": 6, "long_root_divisibility_by_3": True}
    ambient = model.ambient
    h = model.polarization
    delta = model.long_root
    actual = {
        "polarization_square": ambient.inner(h, h),
        "complement_even": core_lat.is_even(),
        "complement_signature": list(core_lat.signature()),
        "complement_disc": list(model.core_disc.form.invariant_factors),
        "long_root_norm": ambient.norm(delta),
        "long_root_divisibility_by_3": vector_divisibility(
            core_lat, model.core.from_ambient(delta)) % 3 == 0,
    }
    witnesses = [{"h": list(h), "long_root": list(delta)}]
    return make_report("model-build", expected, actual, witnesses=witnesses,
                       citation="odd unimodular rank-23 model with square-3 polarization; "
                                "even complement of signature (20,2) and discriminant Z/3")


def _check_hyperplane_dets(stages: Stages) -> VerificationReport:
    model = stages.model
    result = period.realizable_determinants(model, 2, 14)
    expected = {"realized": [2, 6, 8, 12, 14],
                "impossible_mod6": [3, 4, 5, 7, 9, 10, 11, 13],
                "root_family": "H_Delta", "long_root_family": "H_infinity"}
    actual = {"realized": sorted(result.realized),
              "impossible_mod6": list(result.impossible),
              "root_family": result.realized.get(6, {}).get("family"),
              "long_root_family": result.realized.get(2, {}).get("family")}
    witnesses = [result.realized[d] for d in sorted(result.realized)]
    return make_report("hyperplane-dets", expected, actual, witnesses=witnesses,
                       citation="nonempty determinant-d loci exactly for d = 0, 2 mod 6; "
                                "roots give determinant 6, long roots determinant 2")


_MONODROMY_CITATION = ("long-root involution: trivial on a rank-2 lattice of Gram "
                       "[[3,2],[2,2]] containing the polarization, minus identity on "
                       "its complement of genus (21,(19,2),even,Z/2), nontrivial on "
                       "the order-3 discriminant group")


def _check_monodromy(stages: Stages) -> VerificationReport:
    """Check every assertion of the long-root monodromy involution at once."""
    model = stages.model
    ambient = model.ambient
    h = model.polarization
    delta = model.long_root
    g = period.monodromy_involution(model)
    mid = tuple((a + b) // 3 for a, b in zip(h, delta))   # (h + delta)/3, integral
    second = tuple(a - b for a, b in zip(h, mid))         # h - (h + delta)/3
    fixed = span_sublattice(ambient, [h, second])
    actual: dict = {}
    expected: dict = {}
    expected["fixes_rank2_pointwise"] = True
    actual["fixes_rank2_pointwise"] = (g.apply(h) == h and g.apply(second) == second)
    expected["gram_of_fixed"] = [[3, 2], [2, 2]]
    actual["gram_of_fixed"] = [list(r) for r in
                               Sublattice(ambient, (h, second)).induced_gram()]
    comp = orthogonal_complement(ambient, fixed)
    expected["minus_identity_on_complement"] = True
    actual["minus_identity_on_complement"] = all(
        g.apply(row) == tuple(-x for x in row) for row in comp.basis)
    comp_lat = comp.lattice()
    inv = genus_invariants(comp_lat)
    reference = genus_invariants(direct_sum(
        standard_lattice("A1"), standard_lattice("E8"), standard_lattice("E8"),
        standard_lattice("U"), standard_lattice("U")))
    expected["complement_genus"] = {"rank": 21, "signature": [19, 2], "even": True,
                                    "disc_order": 2, "matches_A1_E8_E8_U_U": True}
    actual["complement_genus"] = {
        "rank": inv.rank, "signature": list(inv.signature), "even": inv.even,
        "disc_order": inv.disc.order, "matches_A1_E8_E8_U_U": inv.matches(reference)}
    expected["involution"] = True
    actual["involution"] = g.is_involution()
    expected["eigenvalue_ranks"] = {"fixed": 2, "negated": 21}
    ident = intlinalg.identity(ambient.rank)
    m = [list(r) for r in g.matrix]
    minus = [[m[i][j] - ident[i][j] for j in range(ambient.rank)] for i in range(ambient.rank)]
    plus = [[m[i][j] + ident[i][j] for j in range(ambient.rank)] for i in range(ambient.rank)]
    actual["eigenvalue_ranks"] = {"fixed": ambient.rank - intlinalg.rank(minus),
                                  "negated": ambient.rank - intlinalg.rank(plus)}
    expected["determinant"] = -1
    actual["determinant"] = g.det()
    core_lat = model.core_lattice
    refl = reflection(core_lat, model.core.from_ambient(delta))
    expected["disc_action_nontrivial"] = True
    actual["disc_action_nontrivial"] = not disc_action(core_lat, refl).is_trivial()
    witnesses = [{"long_root": list(delta), "h_plus_delta_over_3": list(mid)}]
    return make_report("monodromy-lemma", expected, actual,
                       witnesses=witnesses, citation=_MONODROMY_CITATION)


def _check_boundary_components(stages: Stages) -> VerificationReport:
    components = period.classify_boundary_components(stages.niemeier)
    expected_map = dict(period.BOUNDARY_MATCHING)
    actual_map = {c.label: str(c.root_sublattice) for c in components}
    expected = {"components": expected_map, "distinct": 6,
                "niemeier": {str(e.root_system): {"even": True, "abs_det": 1,
                                                  "root_count": e.root_count()}
                             for e in entries_with_e_summand()}}
    niemeier_actual = {}
    for entry, glued, _ in stages.niemeier:
        lat = glued.lattice
        niemeier_actual[str(entry.root_system)] = {
            "even": lat.is_even(), "abs_det": abs(lat.det()),
            "root_count": entry.root_system.root_count()}
    actual = {"components": actual_map,
              "distinct": len(set(actual_map.values())),
              "niemeier": niemeier_actual}
    witnesses = [{"label": c.label, "complement_roots": str(c.root_sublattice),
                  "from": c.source_entry} for c in components]
    return make_report("boundary-components", expected, actual, witnesses=witnesses,
                       citation="six rank-2 isotropic classes; complement root systems "
                                "E8^2+A2, D16+A2, E7+D10, A17, E6^3, A11+D7 via the six "
                                "E-containing rank-24 unimodular lattices")


def _check_lambda_prime(stages: Stages) -> VerificationReport:
    ext = period.glue_unimodular_26_2(stages.model)
    lat = ext.lattice
    expected = {"rank": 28, "abs_det": 1, "signature": [26, 2], "even": True,
                "disc_q_anti_isometric": True}
    actual = {"rank": lat.rank, "abs_det": abs(lat.det()),
              "signature": list(lat.signature()), "even": lat.is_even(),
              "disc_q_anti_isometric": (ext.core_disc_q + ext.e6_disc_q) % 2 == 0}
    witnesses = [{"core_disc_q": str(ext.core_disc_q), "e6_disc_q": str(ext.e6_disc_q)}]
    return make_report("lambda-prime", expected, actual, witnesses=witnesses,
                       citation="gluing the complement with E6 along the order-3 "
                                "discriminants gives the even unimodular (26,2) lattice")


_DICTIONARY_CITATION = ("degree-2 hyperplanes correspond to roots spanning an E7 "
                        "with the fixed E6; the 240 roots of E8 split 72/6/162")


def _check_dictionary(stages: Stages) -> VerificationReport:
    """Partition counts and the E7 saturation census inside E8."""
    dic = stages.e8
    mixed_count = sum(map(count_roots, dic.mixed_by_line.values()))
    expected = {"in_e6": 72, "orthogonal": 6, "mixed": 162, "total": 240,
                "mixed_saturations": [{"rank": 7, "root_count": 126}] * 3}
    sat_summaries = [{"rank": dic.e6.rank + 1,
                      "root_count": count_roots(dic.saturation_roots(line))}
                     for line in dic.mixed_lines]
    actual = {"in_e6": count_roots(dic.in_e6), "orthogonal": count_roots(dic.orthogonal),
              "mixed": mixed_count,
              "total": dic.root_count,
              "mixed_saturations": sat_summaries}
    witnesses = [{"mixed_line_classes": [list(l) for l in dic.mixed_lines],
                  "mixed_class_sizes": [count_roots(dic.mixed_by_line[l])
                                        for l in dic.mixed_lines]}]
    return make_report("dictionary-counts", expected, actual,
                       witnesses=witnesses, citation=_DICTIONARY_CITATION)


_INTERSECTION_CITATION = ("pairwise intersections of degree-2 hyperplanes saturate to "
                          "E8 (codimension 2); near each boundary component the "
                          "qualifying projections span rank 0/0/1/1/2/2")


def _check_intersections(stages: Stages) -> VerificationReport:
    """Codimension-2 saturation in E8 and the per-boundary projection ranks."""
    expected: dict = {"pairwise_saturations": "all E8"}
    pairwise_ok = True
    pair_summaries = []
    for rank, det, root_count in period.mixed_pair_saturations(stages.e8):
        pairwise_ok = pairwise_ok and rank == 8 and abs(det) == 1 and root_count == 240
        pair_summaries.append({"rank": rank, "det": det, "root_count": root_count})
    actual = {"pairwise_saturations": "all E8" if pairwise_ok else pair_summaries}

    expected_ranks = {"E6^4": 0, "A11+D7+E6": 0, "D10+E7^2": 1, "A17+E7": 1,
                      "E8^3": 2, "D16+E8": 2}
    actual_ranks = {}
    for entry, _, split in stages.niemeier:
        actual_ranks[str(entry.root_system)] = period._qualifying_projection_rank(split)
    expected["projection_ranks"] = expected_ranks
    actual["projection_ranks"] = actual_ranks
    return make_report("intersection-codims", expected, actual,
                       citation=_INTERSECTION_CITATION)


_WEIGHT_CITATION = ("discriminant form weight 12 + 36 = 48; vanishing orders "
                    "(126-72)/2 = 27 and (74-72)/2 = 1 along the degree-2 and "
                    "degree-6 arrangements")


def _check_weight_orders(stages: Stages) -> VerificationReport:
    """Weight and vanishing orders from root counts of E6, E7 (the run's splits), E6+A1."""
    n6 = stages.e6.root_count
    n7 = stages.e7.root_count
    n6a1 = len(roots(direct_sum(standard_lattice("E6"), standard_lattice("A1"))))
    expected = {"weight": 48, "order_H_infinity": 27, "order_H_Delta": 1}
    actual = {"weight": 12 + n6 // 2,
              "order_H_infinity": (n7 - n6) // 2,
              "order_H_Delta": (n6a1 - n6) // 2}
    witnesses = [{"roots_E6": n6, "roots_E7": n7, "roots_E6_A1": n6a1}]
    return make_report("automorphic-weight-orders", expected, actual,
                       witnesses=witnesses, citation=_WEIGHT_CITATION)


def _check_boundary_matching(stages: Stages) -> VerificationReport:
    expected: dict = {}
    actual: dict = {}
    for label in sorted(period.BOUNDARY_MATCHING):
        matching = period.BOUNDARY_MATCHING[label]
        rule_out = str(period.boundary_matching(period.BOUNDARY_CONFIGURATIONS[label]))
        known = period.KNOWN_MATCHING_DISCREPANCIES.get(label)
        expected[label] = {
            "rule_output": known if known is not None else matching,
            "agrees_with_matching": known is None,
            "known_ambiguity": known is not None,
        }
        actual[label] = {
            "rule_output": rule_out,
            "agrees_with_matching": rule_out == matching,
            "known_ambiguity": label in period.KNOWN_MATCHING_DISCREPANCIES,
        }
    return make_report("boundary-matching", expected, actual,
                       citation="per-singularity rules reproduce the component matching "
                                "for alpha, delta, phi; beta, gamma, epsilon carry "
                                "documented ambiguities, reported not patched")


def _check_plethysm_omega(stages: Stages) -> VerificationReport:
    w = plethysm.sym_power(plethysm.standard_character(plethysm.SL3), 2)
    cube_char = plethysm.sym_power(w, 3)
    cube = plethysm.decompose(cube_char)
    adjoint_restriction = plethysm.decompose(
        w * w.dual() - plethysm.trivial_character(plethysm.SL3))
    # the SL(3) point with W = Sym^2 V: H = SL(3), so Lie H is Gamma_{1,1}
    slice_dec = plethysm.normal_slice(
        cube_char, w, plethysm.irreducible_character(plethysm.SL3, (1, 1)))
    expected = {"cube": "Gamma_{6,0} + Gamma_{2,2} + C", "cube_dim": 56,
                "adjoint_restriction": "Gamma_{2,2} + Gamma_{1,1}",
                "adjoint_dim": 35,
                "slice": "Gamma_{6,0}", "slice_dim": 28}
    actual = {"cube": str(cube), "cube_dim": cube.dimension(),
              "adjoint_restriction": str(adjoint_restriction),
              "adjoint_dim": adjoint_restriction.dimension(),
              "slice": str(slice_dec), "slice_dim": slice_dec.dimension()}
    return make_report("plethysm-omega", expected, actual,
                       citation="Sym^3 Sym^2 V = Sym^6 V + Gamma_{2,2} + C for SL(3); "
                                "the normal slice is Sym^6 V of dimension 28")


def _check_plethysm_chi(stages: Stages) -> VerificationReport:
    w = (plethysm.sym_power(plethysm.standard_character(plethysm.SL2), 4)
         + plethysm.trivial_character(plethysm.SL2))
    cube_char = plethysm.sym_power(w, 3)
    cube = plethysm.decompose(cube_char)
    # W = Sym^4 V + C along the SL(2) curve, with stabilizer algebra Sym^2 V
    slice_dec = plethysm.normal_slice(
        cube_char, w, plethysm.irreducible_character(plethysm.SL2, 2))
    slice_char = slice_dec.character()
    without_trivial = plethysm.decompose(
        slice_char - plethysm.trivial_character(plethysm.SL2))
    expected = {"cube": "Sym^12(V) + Sym^8(V)^2 + Sym^6(V) + Sym^4(V)^3 + C^3",
                "cube_dim": 56,
                "slice": "Sym^12(V) + Sym^8(V) + C", "slice_dim": 23,
                "plane_sextic_comparison": "Sym^12(V) + Sym^8(V)"}
    actual = {"cube": str(cube), "cube_dim": cube.dimension(),
              "slice": str(slice_dec), "slice_dim": slice_dec.dimension(),
              "plane_sextic_comparison": str(without_trivial)}
    return make_report("plethysm-chi", expected, actual,
                       citation="Sym^3(Sym^4 V + C) for SL(2) has the five-term "
                                "decomposition; the normal slice is Sym^12 V + Sym^8 V + C")


def _check_spectra_catalog(stages: Stages) -> VerificationReport:
    catalog = spectra.surface_catalog()
    du_val_strict = True
    elliptic_closed = True
    suspensions_ok = True
    symmetric_ok = True
    counts_ok = True
    for entry in catalog:
        sp = spectra.spectrum(entry.singularity)
        symmetric_ok = symmetric_ok and sp.is_symmetric()
        counts_ok = counts_ok and len(sp) == entry.singularity.milnor_number()
        if entry.kind == "du_val":
            du_val_strict = du_val_strict and spectra.interval_check(
                sp, 0, 1, strict_lo=True, strict_hi=True)
        else:
            elliptic_closed = elliptic_closed and (
                spectra.interval_check(sp, 0, 1)
                and sp.minimum() == 0 and sp.maximum() == 1)
        doubled = spectra.suspend(sp, 2)
        suspensions_ok = suspensions_ok and spectra.interval_check(doubled, 1, 2)
    cusp_ok = True
    cusp_count = 0
    for p, q, r in [(2, 3, 7), (2, 3, 8), (2, 4, 5), (3, 3, 4), (2, 3, 9), (3, 3, 5)]:
        sp = spectra.cusp_spectrum(p, q, r)  # validated as it is built
        doubled = spectra.suspend(sp, 2)
        cusp_ok = cusp_ok and spectra.interval_check(doubled, 1, 2)
        cusp_count += 1
    expected = {"du_val_strictly_inside_0_1": True,
                "simple_elliptic_closed_0_1_with_endpoints": True,
                "double_suspension_inside_1_2": True,
                "symmetric": True, "milnor_counts": True,
                "cusp_entries_checked": cusp_count, "cusp_double_suspension": True}
    actual = {"du_val_strictly_inside_0_1": du_val_strict,
              "simple_elliptic_closed_0_1_with_endpoints": elliptic_closed,
              "double_suspension_inside_1_2": suspensions_ok,
              "symmetric": symmetric_ok, "milnor_counts": counts_ok,
              "cusp_entries_checked": cusp_count, "cusp_double_suspension": cusp_ok}
    return make_report("spectra-catalog", expected, actual,
                       citation="surface spectra: strictly inside (0,1) for du Val, "
                                "inside [0,1] with endpoints for simple elliptic and "
                                "cusps; double suspension lands in [1,2]")


REGISTRY = {
    "model-build": _check_model_build,
    "hyperplane-dets": _check_hyperplane_dets,
    "monodromy-lemma": _check_monodromy,
    "boundary-components": _check_boundary_components,
    "lambda-prime": _check_lambda_prime,
    "dictionary-counts": _check_dictionary,
    "intersection-codims": _check_intersections,
    "automorphic-weight-orders": _check_weight_orders,
    "boundary-matching": _check_boundary_matching,
    "plethysm-omega": _check_plethysm_omega,
    "plethysm-chi": _check_plethysm_chi,
    "spectra-catalog": _check_spectra_catalog,
}


def check_ids() -> tuple[str, ...]:
    return tuple(sorted(REGISTRY))


def resolve_check_ids(requested) -> tuple[str, ...]:
    if not requested or "all" in requested:
        return check_ids()
    unknown = [c for c in requested if c not in REGISTRY]
    if unknown:
        raise KeyError(f"unknown check ids: {', '.join(unknown)}")
    return tuple(sorted(set(requested)))


def run_check(check_id: str, stages: Stages | None = None) -> VerificationReport:
    """Run one check on the run's `stages`, fresh ones if none; `elapsed_ms` times the
    check and any stage it is the first to read."""
    runner = REGISTRY[check_id]
    stages = Stages() if stages is None else stages
    start = time.monotonic()
    report = runner(stages)
    return report.replace(elapsed_ms=int((time.monotonic() - start) * 1000))


def run_suite(requested=("all",)) -> list[VerificationReport]:
    """Run the requested checks in id order, all on one run's stages.

    Each goes through the module attribute `run_check`, so a caller that
    replaces it (to time each check, say) sees every check.
    """
    stages = Stages()
    return [run_check(c, stages) for c in resolve_check_ids(requested)]
