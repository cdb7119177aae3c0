"""Even overlattices from isotropic glue, and the rank-24 unimodular lattices.

The full census of 24 root systems is embedded data; lattices are built on
demand, only for the six entries whose root system contains an E_r summand.
"""
from __future__ import annotations

from math import isqrt, prod
from operator import mul

from . import intlinalg
from ._record import Record
from .lattices import (
    DiscriminantData,
    Lattice,
    Sublattice,
    Vector,
    cartan_gram,
    direct_sum,
    discriminant_data,
    standard_lattice,
)
from .roots import RootSystemLabel, _half, ade_coxeter_number


class NiemeierEntry(Record):
    root_system: RootSystemLabel
    coxeter_number: int

    def root_count(self) -> int:
        return 24 * self.coxeter_number


class GluedLattice(Record):
    """Result of an overlattice construction, with basis bookkeeping.

    `old_in_new` expresses the old basis integrally in the new one.
    """

    lattice: Lattice
    old_in_new: tuple[tuple[int, ...], ...]
    glue_order: int


class GlueError(ValueError):
    """Invalid glue: non-isotropic vector or non-integral resulting pairings."""


def overlattice(lat: Lattice, data: DiscriminantData, elements) -> GluedLattice:
    """Even overlattice generated by L and lifts of the given elements of L*/L.

    `data` is the discriminant data of L and `elements` are exponent tuples
    of its group. Everything is an integer over N, the exponent of L*/L: L
    is N*I and each glue row is N times a lift, so v lies in L* iff
    G v = 0 mod N and is isotropic iff v^T G v = 0 mod 2N^2. The Hermite
    form h of those rows is n x n and upper triangular with a positive
    diagonal (N*I is among them), and the new basis is h / N, so:
    - the new Gram is h G h^T / N^2 = h (h G)^T / N^2, and it must be integral;
    - the index over L (the glue order) is N^n / det h, det h being the
      product of the diagonal, and |det| drops from the discriminant order
      of `data` by its square;
    - the old basis in the new one is N h^-1, solved row by row from the
      bottom by back-substitution.
    Errors out if a glue vector is not in L*, not isotropic, or the
    resulting pairings are not integral. Isotropic glue with integral
    pairings gives an even lattice: every new vector is an integer sum of
    even-norm vectors that pair integrally.
    """
    if not lat.is_even():
        raise GlueError("gluing is defined here for even lattices only")
    n = lat.rank
    g = [list(r) for r in lat.gram]
    den = data.exponent
    rows = [[den if i == j else 0 for j in range(n)] for i in range(n)]
    for e in filter(any, elements):  # zero glues nothing, and has no lift if L* = L
        v = data.lift(e)
        gv = intlinalg.mat_vec(g, v)
        if any(x % den for x in gv):
            raise GlueError("glue vector does not lie in the dual lattice")
        if sum(map(mul, v, gv)) % (2 * den * den):
            raise GlueError("glue vector is not isotropic (norm not in 2Z)")
        rows.append(list(v))
    h = intlinalg.hnf(rows)
    scaled_gram = intlinalg.mat_mul(h, intlinalg.transpose(intlinalg.mat_mul(h, g)))
    den_sq = den * den
    if any(x % den_sq for row in scaled_gram for x in row):
        raise GlueError("resulting pairings are not integral: glue is not a subgroup"
                        " of the discriminant form")
    index, rest = divmod(den ** n, prod(h[i][i] for i in range(n)))
    if rest or data.form.order % (index * index):
        raise ArithmeticError("overlattice index is not integral (bug)")
    # row i of x = den h^-1 solves x_i h_ii = den e_i - sum_(k>i) h_ik x_k
    old_in_new = [None] * n
    for i in reversed(range(n)):
        row = [0] * n
        row[i] = den
        for k in range(i + 1, n):
            c = h[i][k]
            if c:
                row = [a - c * b for a, b in zip(row, old_in_new[k])]
        p = h[i][i]
        if any(a % p for a in row):
            raise ArithmeticError("old basis is not integral in the new one (bug)")
        old_in_new[i] = [a // p for a in row]
    return GluedLattice(
        lattice=Lattice(tuple(tuple(x // den_sq for x in row) for row in scaled_gram),
                        name=(lat.name or "L") + " glued"),
        old_in_new=tuple(map(tuple, old_in_new)),
        glue_order=index,
    )


_NIEMEIER_ROOT_SYSTEMS = (
    "D24", "D16+E8", "E8^3", "A24", "D12^2", "A17+E7", "D10+E7^2", "A15+D9", "D8^3",
    "A12^2", "A11+D7+E6", "E6^4", "A9^2+D6", "D6^4", "A8^3", "A7^2+D5^2", "A6^4",
    "A5^4+D4", "D4^6", "A4^6", "A3^8", "A2^12", "A1^24", "-",
)


def niemeier_table() -> tuple[NiemeierEntry, ...]:
    """The 24 root systems of the even unimodular rank-24 lattices.

    The last entry is the rootless one, with Coxeter number 0. Every other
    entry's components share one Coxeter number h, read off the label, and
    every entry satisfies the census invariant: total root count equals 24h.
    """
    entries = []
    for text in _NIEMEIER_ROOT_SYSTEMS:
        label = RootSystemLabel.parse(text)
        coxeter = {ade_coxeter_number(family, n) for family, n in label.components}
        if len(coxeter) > 1:
            raise AssertionError(f"table entry {text} has mixed Coxeter numbers")
        h = coxeter.pop() if coxeter else 0
        if label.root_count() != 24 * h:
            raise AssertionError(f"table entry {text} fails the 24h census")
        entries.append(NiemeierEntry(root_system=label, coxeter_number=h))
    return tuple(entries)


def entries_with_e_summand() -> tuple[NiemeierEntry, ...]:
    """The entries whose root system contains an E6, E7 or E8 component."""
    return tuple(e for e in niemeier_table()
                 if any(f == "E" for f, _ in e.root_system.components))


def isotropic_subgroups(data: DiscriminantData, order: int):
    """All isotropic subgroups of the given order, as sorted element tuples.

    Exhaustive search; feasible for the discriminant forms in play here
    (order at most 144). Deterministic order.
    """
    form = data.form
    zero = tuple(0 for _ in form.invariant_factors)
    if order == 1:
        yield (zero,)
        return
    iso = [e for e in form.elements() if e != zero and form.q_of(e) == 0]
    seen = set()

    def extend(start, gens, current):
        if len(current) == order:
            key = tuple(sorted(current))
            if key not in seen:
                seen.add(key)
                yield key
            return
        if len(current) > order or order % len(current):
            return
        for i in range(start, len(iso)):
            g = iso[i]
            if g in current:
                continue
            bigger = form.span(gens + [g])
            if len(bigger) > order or order % len(bigger):
                continue
            if any(form.q_of(e) != 0 for e in bigger):
                continue
            yield from extend(i + 1, gens + [g], bigger)

    yield from extend(0, [], {zero})


def _class_norm(family: str, n: int, weights) -> tuple[int, int]:
    """The minimal norm p/q of a nonzero class of R*/R, R of type family n, as (p, q).

    `weights` pair the class with the simple roots, in `cartan_gram`'s node
    order (SPLAG ch. 4 sections 6-8): A_n's class k = sum (j+1) w_j mod n+1
    has k(n+1-k)/(n+1); on D_n a spinor (w_{n-2} + w_{n-1} odd, the fork
    ends) has n/4, the vector class 1; E6 has 4/3, E7 3/2 (E8 has no class).
    """
    if family == "A":
        k = sum(j * w for j, w in enumerate(weights, 1)) % (n + 1)
        return k * (n + 1 - k), n + 1
    if family == "D":
        return (n, 4) if (weights[n - 2] + weights[n - 1]) % 2 else (1, 1)
    return {6: (4, 3), 7: (3, 2)}[n]


def glue_adds_roots(components, data: DiscriminantData, subgroup) -> bool:
    """Whether gluing R along `subgroup` gives a lattice with roots outside R.

    R is the `direct_sum` of the A-D-E `components` ((family, n) pairs, in
    that order), `data` its discriminant data and `subgroup` isotropic. A
    vector outside R lies in R + lift(c) for a nonzero glue word c, whose
    least norm is sum mu(c_i), mu(c_i) the minimal norm of c_i's class in
    R_i*/R_i (the components are orthogonal). The glued lattice is even, so
    it has a root outside R exactly when some c has sum mu(c_i) <= 2. Each
    class is read off the block of `data.lift(c)` (N times a lift, N the
    exponent) on its component: 0 when the block is 0 mod N, else of weights
    G_i block / N. The sum is compared in integers; nothing is walked.
    """
    den = data.exponent
    grams = [cartan_gram(family, n) for family, n in components]
    for e in filter(any, subgroup):
        v, start, num, denom = data.lift(e), 0, 0, 1  # sum mu(c_i) = num / denom
        for (family, n), gram in zip(components, grams):
            block, start = v[start:start + n], start + n
            if any(x % den for x in block):
                weights = [sum(map(mul, row, block)) // den for row in gram]
                p, q = _class_norm(family, n, weights)
                num, denom = num * q + p * denom, denom * q
        if num <= 2 * denom:
            return True
    return False


def construct_niemeier(entry: NiemeierEntry) -> GluedLattice:
    """Build the even unimodular lattice for one of the six E-containing entries.

    Glues the root-lattice direct sum R along an isotropic subgroup of its
    discriminant form of the right order; the first candidate (in canonical
    search order) that adds no roots and is even and unimodular is returned;
    it is unimodular when its glue order squared is the discriminant order.
    R has 24h roots (`niemeier_table` checks it), and `glue_adds_roots`
    certifies that the lattice has no others: the census needs no walk.
    Nothing is memoized: each call glues anew.
    """
    if not any(f == "E" for f, _ in entry.root_system.components):
        raise ValueError("only the six E-containing entries are supported")
    components = entry.root_system.components
    root_sum = direct_sum(*(standard_lattice(f"{f}{n}") for f, n in components),
                          name=str(entry.root_system))
    data = discriminant_data(root_sum)
    disc_order = data.form.order
    glue_order = isqrt(disc_order)
    if glue_order * glue_order != disc_order:
        raise ArithmeticError("discriminant order is not a perfect square (bad entry)")
    for subgroup in isotropic_subgroups(data, glue_order):
        if glue_adds_roots(components, data, subgroup):
            continue
        try:
            glued = overlattice(root_sum, data, subgroup)
        except GlueError:
            continue
        if glued.glue_order ** 2 != disc_order:  # not unimodular
            continue
        return GluedLattice(
            lattice=Lattice(glued.lattice.gram, name=f"Niemeier({entry.root_system})"),
            old_in_new=glued.old_in_new,
            glue_order=glued.glue_order,
        )
    raise RuntimeError(f"no valid glue found for {entry.root_system} (data or search bug)")


def embed_e6(lat: Lattice, component) -> Sublattice:
    """An E6 root subsystem among the roots of one E_r component of L.

    `component` holds the roots of that component (or all of E_r's), all of
    them or one of each +-pair, as `root_components` returns them; they are
    not enumerated again. The search never needs the other components: they
    are orthogonal to this one, so an E6 (connected, hence irreducible) lies
    in one component. Greedy Dynkin-subgraph search over the component's halves in
    lexicographic order, each followed by its negative; the returned basis
    consists of six simple roots, so the induced Gram is the E6 Cartan
    matrix exactly. Raises ValueError if the roots hold no E6, after trying
    every partial embedding (A8: seconds).
    """
    component_roots = [u for v in sorted(set(map(_half, component)))
                       for u in (v, tuple(-x for x in v))]
    g = [list(r) for r in lat.gram]
    target = standard_lattice("E6").gram
    chosen: list[Vector] = []
    paired = []  # G v of each chosen root

    def extend(k: int) -> bool:
        if k == 6:
            return True
        for cand in component_roots:
            if all(sum(map(mul, cand, gv)) == target[k][i] for i, gv in enumerate(paired)):
                chosen.append(cand)
                paired.append(intlinalg.mat_vec(g, cand))
                if extend(k + 1):
                    return True
                chosen.pop()
                paired.pop()
        return False

    if not extend(0):
        raise ValueError("no E6 subsystem among the given roots")
    return Sublattice(lat, tuple(chosen))
