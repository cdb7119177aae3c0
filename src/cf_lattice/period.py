"""The mathematics of the degree-3 polarized lattice model.

The model is the odd unimodular lattice I_{21,2} with polarization class
h = (1,...,1,3,3): h has square 3 and all its coordinates are odd, which
forces the orthogonal complement to be even. Built on it, in exact
arithmetic: the determinant arrangement and its witness search, the
monodromy involution, the boundary classification through the six
E-containing rank-24 lattices, the gluing to the even unimodular (26,2)
lattice, the degree-2/6 hyperplane dictionary inside E8, and the boundary
matching rules. The verification reports over these are built in `checks`.
"""
from __future__ import annotations

import re
from collections import Counter
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product
from math import gcd

from . import intlinalg
from ._record import Record
from .lattices import (
    DiscriminantData,
    Lattice,
    Sublattice,
    Vector,
    direct_sum,
    discriminant_data,
    orthogonal_complement,
    saturation,
    saturation_index,
    span_sublattice,
    standard_lattice,
    vector_divisibility,
)
from .niemeier import (
    GluedLattice,
    NiemeierEntry,
    construct_niemeier,
    embed_e6,
    entries_with_e_summand,
    isotropic_subgroups,
    overlattice,
)
from .roots import (
    Isometry,
    RootSystemLabel,
    _half,
    count_roots,
    find_long_root,
    identify_root_system,
    positive_roots,
    roots,
)


class PeriodModel(Record):
    """The ambient lattice, the polarization h, its complement h^perp and a long root.

    `build_period_model` builds each lattice once; callers read these fields.
    """

    ambient: Lattice
    polarization: Vector
    core: Sublattice               # orthogonal complement of the polarization
    core_lattice: Lattice          # the Gram of `core`: even, (20,2)
    core_disc: DiscriminantData    # of `core_lattice`: Z/3
    long_root: Vector              # ambient coordinates; (h + delta)/3 is integral


class ModelError(AssertionError):
    """A build-time verification of the model failed."""


def build_period_model() -> PeriodModel:
    """Construct and verify the I_{21,2} model with h = (1,...,1,3,3)."""
    ambient = standard_lattice("I_{21,2}")
    h = tuple([1] * 21 + [3, 3])
    if ambient.inner(h, h) != 3:
        raise ModelError("polarization square is not 3")
    core = orthogonal_complement(ambient, span_sublattice(ambient, [h]))
    core_lat = core.lattice(name="polarization complement")
    if not core_lat.is_even():
        raise ModelError("polarization complement is not even")
    if core_lat.signature() != (20, 2):
        raise ModelError("polarization complement has wrong signature")
    disc = discriminant_data(core_lat)
    if disc.form.invariant_factors != (3,):
        raise ModelError("discriminant group of the complement is not Z/3")
    delta = find_long_root(ambient, h)
    return PeriodModel(ambient=ambient, polarization=h, core=core, core_lattice=core_lat,
                       core_disc=disc, long_root=delta)


class HyperplaneClass(Record):
    """The determinant of the saturated rank-2 lattice of the polarization and a vector."""

    det: int
    family: str  # "H_infinity" | "H_Delta" | "other"


H_INFINITY = "H_infinity"
H_DELTA = "H_Delta"
OTHER = "other"


def classify_hyperplane(model: PeriodModel, v: Vector) -> HyperplaneClass:
    """Classify the saturated rank-2 lattice spanned by the polarization and v.

    v must be a primitive vector of the polarization complement (ambient
    coordinates). span(h, v) has the diagonal Gram diag(h.h, v.v), and its
    saturation has determinant (h.h)(v.v) / k^2, k = [sat : span] by
    `saturation_index`; nothing is saturated or eliminated. Determinant 2
    corresponds to long roots, determinant 6 to roots; the determinant-2
    structure is asserted, not assumed.
    """
    ambient = model.ambient
    h = model.polarization
    if ambient.inner(v, h) != 0:
        raise ValueError("vector is not orthogonal to the polarization")
    if gcd(*v) != 1:
        raise ValueError("vector must be primitive and nonzero")
    k = saturation_index(ambient, Sublattice(ambient, (h, v)))
    d = ambient.norm(h) * ambient.norm(v) // (k * k)
    family = H_INFINITY if d == 2 else H_DELTA if d == 6 else OTHER
    if family == H_INFINITY:
        if ambient.norm(v) != 6:
            raise AssertionError("determinant-2 class whose vector is not of norm 6")
        if vector_divisibility(model.core_lattice, model.core.from_ambient(v)) % 3:
            raise AssertionError("determinant-2 class whose vector is not 3-divisible")
    return HyperplaneClass(det=d, family=family)


class DeterminantSearch(Record):
    """Outcome of the bounded witness search for realizable determinants."""

    lo: int
    hi: int
    realized: dict
    impossible: tuple[int, ...]
    unrealized_at_bound: tuple[int, ...]
    drawn: int  # coefficient tuples drawn by the walk: a deterministic work counter


# Largest determinant window the witness search accepts: the test suite checks
# that search bound 8 realizes all 67 allowed determinants in [2, 200].
MAX_DETERMINANT = 200


def determinant_allowed(d: int) -> bool:
    """The congruence obstruction: realizable determinants are 0 or 2 mod 6."""
    return d % 6 in (0, 2)


def _canonical_position_sets(classes: list[list[int]], size: int) -> list[tuple[int, ...]]:
    """The position sets of one size that use, within each class, its first positions.

    One set per choice of class counts, listed in lexicographic order.
    """
    sets = []
    for picks in combinations_with_replacement(range(len(classes)), size):
        counts = Counter(picks)
        if all(k <= len(classes[c]) for c, k in counts.items()):
            sets.append(tuple(sorted(p for c, k in counts.items() for p in classes[c][:k])))
    return sorted(sets)


def realizable_determinants(model: PeriodModel, lo: int, hi: int,
                            search_bound: int = 6) -> DeterminantSearch:
    """Search for positive definite rank-2 witnesses of each determinant in [lo, hi].

    Candidates are vectors u with support at most 4 and coprime coefficients
    bounded by search_bound; a multiple m*u has the saturation of u, drawn
    at a smaller radius, and is skipped. With s = u.u and t = u.h, the
    saturation of span(h, u) has determinant d = 3s - t^2 in closed form:
    the 2x2 minor of (h, u) at a position i of the support and a position j
    outside it with h_j = +-1 is -+u_i, so the minors have gcd 1 and the
    span is already saturated. That needs more than 4 coordinates of h equal
    to +-1, and a model without them raises ValueError. As h.h = 3 > 0, a
    witness with d > 0 is positive definite. Each new determinant in the
    window is cross-checked by a second formula: the witness
    v = (3u - t h) / gcd, primitive in the polarization complement, goes
    through `classify_hyperplane`, which reads the index off a Hermite form,
    and an AssertionError is raised unless its det is d. Absence of a
    witness within the bound is reported as such; impossibility comes only
    from the mod-6 congruence.

    The walk visits canonical position sets only. The ambient Gram must be
    diagonal, and positions with equal (h_i, G_ii) form a class; permuting
    positions inside a class is an isometry fixing h, so it changes neither
    the determinant, nor the coefficient gcd, nor positive definiteness. A
    set is canonical if it uses, within each class, that class's first
    positions. Among the sets of one size, an orbit's canonical set comes
    first in lexicographic order, and at the same radius it draws an image
    of every candidate of the orbit (coefficients permuted, negated if the
    leading one turns negative). So the first witness of each determinant
    already lies on a canonical set, and `realized` (witnesses and insertion
    order included) is the one of the walk over all position sets.
    """
    if hi > MAX_DETERMINANT:
        raise ValueError(f"the witness search accepts determinants <= {MAX_DETERMINANT} only")
    ambient = model.ambient
    h = model.polarization
    n = ambient.rank
    if any(ambient.gram[i][j] for i in range(n) for j in range(n) if i != j):
        raise ValueError("the witness search needs a diagonal ambient Gram matrix")
    if sum(abs(x) == 1 for x in h) <= 4:
        raise ValueError("the witness search needs more than 4 polarization coordinates "
                         "equal to +-1")
    diag = [ambient.gram[i][i] for i in range(n)]
    gh = [g * x for g, x in zip(diag, h)]
    classes: dict = {}
    for i in range(n):
        classes.setdefault((h[i], diag[i]), []).append(i)
    canonical = [_canonical_position_sets(list(classes.values()), size) for size in range(1, 5)]
    wanted = [d for d in range(lo, hi + 1) if determinant_allowed(d)]
    lowest = max(lo, 1)
    realized: dict = {}
    drawn = 0
    for radius in range(1, search_bound + 1):
        coeff_range = [c for c in range(-radius, radius + 1) if c]
        # v and -v classify identically: draw the first coefficient positive
        leading = range(1, radius + 1)
        for size in range(1, 5):
            for positions in canonical[size - 1]:
                gh_loc = [gh[p] for p in positions]
                dg_loc = [diag[p] for p in positions]
                for cs in product(leading, *[coeff_range] * (size - 1)):
                    drawn += 1
                    if max(abs(c) for c in cs) != radius or gcd(*cs) != 1:
                        continue  # enumerated at a smaller radius already
                    t = sum(c * w for c, w in zip(cs, gh_loc))
                    s = sum(c * c * w for c, w in zip(cs, dg_loc))
                    d = 3 * s - t * t
                    if not lowest <= d <= hi or d in realized:
                        continue
                    vec = [-t * x for x in h]
                    for p, c in zip(positions, cs):
                        vec[p] += 3 * c
                    g = gcd(*vec)
                    v = tuple(x // g for x in vec)
                    cls = classify_hyperplane(model, v)
                    if cls.det != d:
                        raise AssertionError("closed-form determinant disagrees with "
                                             "classify_hyperplane (bug)")
                    realized[d] = {"vector": v, "det": d, "family": cls.family}
            if all(d in realized for d in wanted):
                break
        if all(d in realized for d in wanted):
            break
    impossible = tuple(d for d in range(lo, hi + 1) if not determinant_allowed(d))
    unrealized = tuple(d for d in wanted if d not in realized)
    return DeterminantSearch(lo=lo, hi=hi, realized=realized, impossible=impossible,
                             unrealized_at_bound=unrealized, drawn=drawn)


def monodromy_involution(model: PeriodModel) -> Isometry:
    """The involution fixing the polarization and acting as -s_delta on its complement.

    On the ambient lattice: x -> -x + (x.delta)/3 delta + 2 (x.h)/3 h. Three
    times the matrix is built in integers and must divide by 3; the Isometry
    constructor checks that the quotient preserves the form.
    """
    ambient = model.ambient
    h = model.polarization
    delta = model.long_root
    g = [list(r) for r in ambient.gram]
    gd = intlinalg.mat_vec(g, list(delta))
    gh = intlinalg.mat_vec(g, list(h))
    n = ambient.rank
    triple = [[-3 * (i == j) + delta[i] * gd[j] + 2 * h[i] * gh[j] for j in range(n)]
              for i in range(n)]
    if any(x % 3 for row in triple for x in row):
        raise ModelError("monodromy involution is not integral on the ambient lattice")
    return Isometry(ambient, tuple(tuple(x // 3 for x in row) for row in triple))


# -- Boundary classification ----------------------------------------------------

# Matching of the six degeneration strata to complement root systems.
BOUNDARY_MATCHING = {
    "alpha": "A11+D7",
    "beta": "A2+E8^2",
    "gamma": "D10+E7",
    "delta": "E6^3",
    "epsilon": "A2+D16",
    "phi": "A17",
}

# Non-simple singularity content of the cubics over each stratum.
BOUNDARY_CONFIGURATIONS = {
    "alpha": ("elliptic_curve(4)", "rational_curve(1)"),
    "beta": ("Etilde8", "Etilde8"),
    "gamma": ("Etilde7", "elliptic_curve(2)"),
    "delta": ("Etilde6", "Etilde6", "Etilde6"),
    "epsilon": ("rational_curve(4)",),
    "phi": ("elliptic_curve(6)",),
}


class BoundaryComponent(Record):
    label: str
    root_sublattice: RootSystemLabel
    source_entry: str  # the rank-24 root system it came from


def niemeier_e6_stage(splits) -> tuple[tuple[NiemeierEntry, GluedLattice, E6Split], ...]:
    """(entry, glued lattice N, split of its E_r) for the six E entries.

    The one shared stage of the boundary checks; `splits` maps r to the split
    of E_r (`e_split(r)`, a run's own in `checks.Stages`). No rank-24 lattice
    is walked or split: the glue certifies that N has the roots of its root
    lattice (`construct_niemeier`), roots of different components are
    orthogonal, and E6 lies in one E_r component. So E6^perp's roots in N are
    the other components' plus E6^perp's in E_r, and every mixed line lies in
    E_r (x) Q. Every call glues anew.
    """
    return tuple((entry, construct_niemeier(entry),
                  splits[next(n for f, n in entry.root_system.components if f == "E")])
                 for entry in entries_with_e_summand())


def classify_boundary_components(stage) -> tuple[BoundaryComponent, ...]:
    """The six complement root systems from the stage `niemeier_e6_stage` built.

    Each label is the entry's components with one E_r taken out, plus
    `split.complement` of the E_r split. No root is identified here.
    """
    by_system = {}
    for entry, _, split in stage:
        others = list(entry.root_system.components)
        others.remove(("E", split.lattice.rank))
        label = RootSystemLabel(tuple(sorted(others + list(split.complement.components))))
        by_system[str(label)] = str(entry.root_system)
    components = []
    for label in sorted(BOUNDARY_MATCHING):
        system = BOUNDARY_MATCHING[label]
        if system not in by_system:
            raise AssertionError(f"complement root system {system} was not produced")
        components.append(BoundaryComponent(
            label=label,
            root_sublattice=RootSystemLabel.parse(system),
            source_entry=by_system[system],
        ))
    if len(by_system) != 6:
        raise AssertionError("expected exactly six distinct complement root systems")
    return tuple(components)


class UnimodularExtension(Record):
    """The even unimodular (26,2) lattice glued from the core and E6."""

    lattice: Lattice
    e6_image: Sublattice
    core_disc_q: Fraction
    e6_disc_q: Fraction


def glue_unimodular_26_2(model: PeriodModel) -> UnimodularExtension:
    """Glue the polarization complement with E6 along their order-3 discriminants.

    The two discriminant forms are anti-isometric (q = 2/3 and 4/3 mod 2Z),
    so a diagonal isotropic Z/3 exists; the overlattice is even unimodular
    of signature (26, 2), and E6 lands as the orthogonal complement of the
    core inside it. The core and its form are the model's own. The glued
    lattice is named before its complement is taken, so that complement's
    nondegeneracy check pays the det that `lattice.det()` returns.
    """
    core_lat = model.core_lattice
    e6 = standard_lattice("E6")
    total = direct_sum(core_lat, e6)
    e6_q = discriminant_data(e6).form.q[0]
    data = discriminant_data(total)
    subgroup = next(isotropic_subgroups(data, 3), None)
    if subgroup is None:
        raise AssertionError("no isotropic Z/3 in the glued discriminant (bug)")
    glued = overlattice(total, data, [next(e for e in subgroup if any(e))])
    lat = Lattice(glued.lattice.gram, name="II_{26,2}")
    unimodular = glued.glue_order ** 2 == data.form.order
    if not lat.is_even() or not unimodular or lat.signature() != (26, 2):
        raise AssertionError("glued lattice is not even unimodular of signature (26,2)")
    n_core = core_lat.rank
    e6_image = Sublattice(lat, glued.old_in_new[n_core:])
    comp = orthogonal_complement(lat, Sublattice(lat, glued.old_in_new[:n_core]))
    if saturation(lat, e6_image).basis != comp.basis:
        raise AssertionError("E6 image is not the complement of the core image")
    return UnimodularExtension(lattice=lat, e6_image=e6_image,
                               core_disc_q=model.core_disc.form.q[0], e6_disc_q=e6_q)


# -- Roots split by an embedded E6 ------------------------------------------------

class E6Split(Record):
    """The roots of a lattice L sorted relative to an embedded E6 (SPLAG ch. 16, 18).

    Every bucket holds one root of each +-pair, as the split was given them
    (`positive_roots`): r and -r always share a bucket, so a bucket stands
    for `count_roots(bucket)` roots. `in_e6`: the roots in the rational span
    of E6. `orthogonal`: the roots of E6^perp. `mixed_by_line`: every other
    root, keyed by the primitive vector w on the line of its projection to
    E6^perp (first nonzero coordinate positive), in order of first
    appearance. `complement`: the root system of `orthogonal`. The roots of
    the saturation of E6 + Zw, those of L in E6 (x) Q + Qw, are `in_e6` plus
    `mixed_by_line[w]`, since no orthogonal root r lies on a mixed line:
    else some mixed root is m = e + t r with e != 0 in E6*, and 2t = m.r in
    Z with m.m = e.e + 2t^2 = 2 forces t = +-1/2 and e.e = 3/2, but the
    norms of E6* lie in 2Z or 4/3 + 2Z.
    """

    lattice: Lattice
    e6: Sublattice
    in_e6: tuple
    orthogonal: tuple
    mixed_by_line: dict      # line -> tuple of roots, one of each +-pair
    complement: RootSystemLabel

    @property
    def mixed_lines(self) -> tuple:
        return tuple(sorted(self.mixed_by_line))

    @property
    def root_count(self) -> int:
        """The number of roots split: every root of the lattice, both signs."""
        return (count_roots(self.in_e6) + count_roots(self.orthogonal)
                + sum(map(count_roots, self.mixed_by_line.values())))

    def saturation_roots(self, line) -> tuple:
        """The roots of the saturation of E6 + Z line, a lattice of rank 7, one per +-pair."""
        return self.in_e6 + self.mixed_by_line[line]


def split_by_e6(lat: Lattice, halves) -> E6Split:
    """Embed E6 in lat and split `halves`, one of each +-pair of roots of lat, relative to it.

    `halves` is what `positive_roots(lat)` returns, in any order; a root
    listed twice or with a negative first nonzero coordinate (so also both
    roots of a pair) raises ValueError. E6 is embedded among all of them
    (`embed_e6`, slow to fail on roots with no E6; `e_split` passes E_r's). Each
    half r is projected to E6^perp once, in integers, scaled by det(G6) > 0:
    P r with P = det(G6) I - B^T adj(G6) B G, B the E6 basis rows and
    adj(G6) = det(G6) G6^-1. P r = 0 puts r in E6 (x) Q, and P r = det(G6) r
    makes it orthogonal to E6. Each bucket keeps the input order. The complement root system is that of the
    orthogonal halves: none, none and A2 for r = 6, 7, 8 (E6 + A1 is not a
    root subsystem of E7).
    """
    zero = (0,) * lat.rank
    if not all(v > zero for v in halves):
        raise ValueError("split_by_e6 takes roots whose first nonzero coordinate is positive")
    if len(set(halves)) != len(halves):
        raise ValueError("split_by_e6 takes one root of each +-pair")
    e6sub = embed_e6(lat, halves)
    det6, adj6 = intlinalg.adjugate([list(r) for r in e6sub.induced_gram()])
    basis = [list(r) for r in e6sub.basis]
    shift = intlinalg.mat_mul(intlinalg.mat_mul(intlinalg.transpose(basis), adj6),
                              intlinalg.mat_mul(basis, lat.gram))
    project = [[(det6 if i == j else 0) - x for j, x in enumerate(row)]
               for i, row in enumerate(shift)]
    in_e6, orthogonal, mixed_by_line = [], [], {}
    for half in halves:
        proj = intlinalg.mat_vec(project, half)
        if not any(proj):
            in_e6.append(half)
        elif proj == [det6 * x for x in half]:
            orthogonal.append(half)
        else:
            gg = gcd(*proj)
            mixed_by_line.setdefault(_half(tuple(x // gg for x in proj)), []).append(half)
    return E6Split(lattice=lat, e6=e6sub, in_e6=tuple(in_e6), orthogonal=tuple(orthogonal),
                   mixed_by_line={k: tuple(v) for k, v in mixed_by_line.items()},
                   complement=identify_root_system(lat, orthogonal))


def e_split(r: int) -> E6Split:
    """The split of the positive roots of E_r (r = 6, 7, 8) relative to an embedded E6."""
    lat = standard_lattice(f"E{r}")
    return split_by_e6(lat, positive_roots(lat))


def e8_dictionary() -> E6Split:
    """The split of E8's 120 positive roots relative to a fixed E6: 36 / 3 / 81 halves,
    standing for 72 / 6 / 162 of its 240 roots."""
    return e_split(8)


def _qualifying_projection_rank(split: E6Split) -> int:
    """Rank of the mixed lines whose saturation with E6 is an E7 (126 roots)."""
    return intlinalg.rank([list(w) for w in split.mixed_by_line
                           if count_roots(split.saturation_roots(w)) == 126])


def mixed_pair_saturations(split: E6Split) -> list[tuple[int, int, int]]:
    """(rank, det, root count) of the saturation of E6 + Z w1 + Z w2, for each pair of
    mixed lines in `mixed_lines` order.

    A saturation with the identity basis is the split's lattice itself, whose
    roots the split counts; any other is walked.
    """
    lat = split.lattice
    whole = tuple(map(tuple, intlinalg.identity(lat.rank)))
    summaries = []
    for l1, l2 in combinations(split.mixed_lines, 2):
        sat = saturation(lat, span_sublattice(lat, [*split.e6.basis, l1, l2]))
        if sat.basis == whole:
            summaries.append((sat.rank, lat.det(), split.root_count))
        else:
            sat_lat = sat.lattice()
            summaries.append((sat.rank, sat_lat.det(), len(roots(sat_lat))))
    return summaries


# -- Boundary matching heuristic -------------------------------------------------

_DESCRIPTOR_RE = re.compile(
    r"^(?:Etilde(?P<er>[678])|elliptic_curve\((?P<ed>\d+)\)|rational_curve\((?P<rd>\d+)\))$")


def boundary_matching(descriptors) -> RootSystemLabel:
    """Apply the per-singularity rules and sum the resulting components.

    Rules: an Etilde_r singularity contributes E_r; an elliptic curve of
    degree d contributes A_{3d-1}; a rational curve of degree d contributes
    D_{3d+4}.
    """
    comps = []
    for text in descriptors:
        m = _DESCRIPTOR_RE.match(text.strip())
        if not m:
            raise ValueError(f"unknown singularity descriptor {text!r}")
        if m.group("er"):
            comps.append(("E", int(m.group("er"))))
        elif m.group("ed") is not None:
            d = int(m.group("ed"))
            comps.append(("A", 3 * d - 1))
        else:
            d = int(m.group("rd"))
            comps.append(("D", 3 * d + 4))
    return RootSystemLabel(tuple(sorted(comps)))


# The three strata where the literal rules disagree with the boundary matching,
# with the rule output recorded verbatim. Reported as known ambiguities.
KNOWN_MATCHING_DISCREPANCIES = {
    "beta": "E8^2",      # matching expects A2+E8^2
    "gamma": "A5+E7",    # matching expects D10+E7
    "epsilon": "D16",    # matching expects A2+D16
}
