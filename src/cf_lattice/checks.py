"""Declarative registry of the named verification checks.

Each check is (id, citation, runner); runners are pure and return a
VerificationReport. New checks are one-line registrations. The suite runs
the checks one after another in check-id order, so the shared cached stages
are built once: the period model, the E8 dictionary and the bounded
`period.niemeier_e6_stage` (the six E-containing rank-24 lattices with
their roots and an embedded E6), each an argument-free `lru_cache(maxsize=1)`.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, replace

from . import period, plethysm, spectra
from .lattices import discriminant_data, vector_divisibility
from .niemeier import entries_with_e_summand
from .report import UNREALIZED, VerificationReport, jsonable, make_report


@dataclass(frozen=True)
class SuiteConfig:
    checks: tuple[str, ...] = ("all",)
    search_bound: int = 6


def _check_model_build(config: SuiteConfig) -> VerificationReport:
    model = period.build_period_model()
    core_lat = model.core_lattice()
    disc = discriminant_data(core_lat).form
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
        "complement_disc": list(disc.invariant_factors),
        "long_root_norm": ambient.norm(delta),
        "long_root_divisibility_by_3": vector_divisibility(
            core_lat, model.core.from_ambient(delta)) % 3 == 0,
    }
    witnesses = [{"h": list(h), "long_root": list(delta)}]
    return make_report("model-build", expected, actual, witnesses=witnesses,
                       citation="odd unimodular rank-23 model with square-3 polarization; "
                                "even complement of signature (20,2) and discriminant Z/3")


def _check_hyperplane_dets(config: SuiteConfig) -> VerificationReport:
    model = period.build_period_model()
    result = period.realizable_determinants(model, 2, 14,
                                            search_bound=config.search_bound)
    expected = {"realized": [2, 6, 8, 12, 14],
                "impossible_mod6": [3, 4, 5, 7, 9, 10, 11, 13],
                "root_family": "H_Delta", "long_root_family": "H_infinity"}
    actual = {"realized": sorted(result.realized),
              "impossible_mod6": list(result.impossible),
              "root_family": result.realized.get(6, {}).get("family"),
              "long_root_family": result.realized.get(2, {}).get("family")}
    status = None
    if result.unrealized_at_bound and jsonable(actual) != jsonable(expected):
        status = UNREALIZED
        actual["unrealized_at_bound"] = list(result.unrealized_at_bound)
    witnesses = [result.realized[d] for d in sorted(result.realized)]
    return make_report("hyperplane-dets", expected, actual, status=status,
                       witnesses=witnesses,
                       citation="nonempty determinant-d loci exactly for d = 0, 2 mod 6; "
                                "roots give determinant 6, long roots determinant 2")


def _check_monodromy(config: SuiteConfig) -> VerificationReport:
    return period.verify_monodromy_lemma(period.build_period_model())


def _check_boundary_components(config: SuiteConfig) -> VerificationReport:
    components = period.classify_boundary_components()
    expected_map = dict(period.BOUNDARY_MATCHING)
    actual_map = {c.label: str(c.root_sublattice) for c in components}
    expected = {"components": expected_map, "distinct": 6,
                "niemeier": {str(e.root_system): {"even": True, "abs_det": 1,
                                                  "root_count": e.root_count()}
                             for e in entries_with_e_summand()}}
    niemeier_actual = {}
    for entry, glued, _ in period.niemeier_e6_stage():
        lat = glued.lattice
        niemeier_actual[str(entry.root_system)] = {
            "even": lat.is_even(), "abs_det": abs(lat.det()), "root_count": len(glued.roots)}
    actual = {"components": actual_map,
              "distinct": len(set(actual_map.values())),
              "niemeier": niemeier_actual}
    witnesses = [{"label": c.label, "complement_roots": str(c.root_sublattice),
                  "from": c.source_entry} for c in components]
    return make_report("boundary-components", expected, actual, witnesses=witnesses,
                       citation="six rank-2 isotropic classes; complement root systems "
                                "E8^2+A2, D16+A2, E7+D10, A17, E6^3, A11+D7 via the six "
                                "E-containing rank-24 unimodular lattices")


def _check_lambda_prime(config: SuiteConfig) -> VerificationReport:
    ext = period.glue_unimodular_26_2(period.build_period_model())
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


def _check_dictionary(config: SuiteConfig) -> VerificationReport:
    return period.hyperplane_dictionary_check()


def _check_intersections(config: SuiteConfig) -> VerificationReport:
    return period.intersection_codimension_check()


def _check_weight_orders(config: SuiteConfig) -> VerificationReport:
    return period.automorphic_weight_and_orders()


def _check_boundary_matching(config: SuiteConfig) -> VerificationReport:
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


def _check_plethysm_omega(config: SuiteConfig) -> VerificationReport:
    v = plethysm.standard_character(plethysm.SL3)
    w = plethysm.sym_power(v, 2)
    cube = plethysm.decompose(plethysm.sym_power(w, 3))
    adjoint_restriction = plethysm.decompose(
        w * w.dual() - plethysm.trivial_character(plethysm.SL3))
    slice_dec = plethysm.normal_slice_omega()
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


def _check_plethysm_chi(config: SuiteConfig) -> VerificationReport:
    v = plethysm.standard_character(plethysm.SL2)
    w = plethysm.sym_power(v, 4) + plethysm.trivial_character(plethysm.SL2)
    cube = plethysm.decompose(plethysm.sym_power(w, 3))
    slice_dec = plethysm.normal_slice_chi()
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


def _check_spectra_catalog(config: SuiteConfig) -> VerificationReport:
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


def run_check(check_id: str, config: SuiteConfig | None = None) -> VerificationReport:
    config = config or SuiteConfig()
    runner = REGISTRY[check_id]
    start = time.monotonic()
    report = runner(config)
    return replace(report, elapsed_ms=int((time.monotonic() - start) * 1000))


def run_suite(config: SuiteConfig | None = None) -> list[VerificationReport]:
    config = config or SuiteConfig()
    return [run_check(c, config) for c in resolve_check_ids(config.checks)]
