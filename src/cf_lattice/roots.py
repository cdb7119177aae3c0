"""Short-vector enumeration, root-system identification, reflections.

Enumeration is Fincke-Pohst in integers: the fraction-free LDL^T of
`intlinalg.symmetric_bareiss` (leading minors and integer rows) gives integer
centres, weights and budget directly, and the search touches ints only;
definite lattices only. The walk takes the first coordinate outermost and
every coordinate in increasing order, so it emits one vector of each +-pair
(first nonzero coordinate positive) already in lexicographic order, the
canonical order of the output; nothing is sorted afterwards.
`positive_roots` returns that output at norm 2 as it is, and
`short_vectors` follows each vector with its negation. Once a choice spends
the whole budget, every inner coordinate is forced (its term must be 0),
and those levels are solved in one loop instead of a call each. A walk
past MAX_ENUMERATION_NODES search-tree nodes, each stored vector counted as
`rank` nodes, raises EnumerationCapError; a forced level is charged as the
node it would have been.
A root system is split into irreducible components through its simple roots
(`root_components`): one lexicographic pass over the positive halves either
finds a simple root or descends to an earlier half by a simple root, so every
half is a nonnegative integer combination of simple roots and has norm 2 once
the simple roots do. The test (v, s) = 1 reads only the nonzero entries of
G s, built from the nonzero entries of the Gram's rows, and the simple roots
found so far are scanned newest first: a half
usually descends by a simple root found just before it, and the order cannot
change the result, since whether v is simple does not depend on it, any s
with (v, s) = 1 lies in v's component, and on a root system v - s is then an
earlier half whichever such s comes first. Each component is then named by
its Cartan determinant and root count; on a definite form a list not closed
under reflections, or one with a vector of norm other than 2, raises
ValueError.
The action of an isometry on the discriminant group is read off the Smith
transforms in integers.
"""
from __future__ import annotations

from itertools import combinations, product
from math import isqrt, lcm
from operator import mul, neg, sub

from . import intlinalg
from ._record import Record
from .lattices import Lattice, Vector, check_ade

_CARTAN_DET = {"A": lambda n: n + 1, "D": lambda n: 4, "E": lambda n: 9 - n}

_COXETER = {"A": lambda n: n + 1, "D": lambda n: 2 * n - 2,
            "E": lambda n: {6: 12, 7: 18, 8: 30}[n]}


def ade_root_count(family: str, n: int) -> int:
    """|Phi| = rank * Coxeter number."""
    return n * ade_coxeter_number(family, n)


def ade_coxeter_number(family: str, n: int) -> int:
    return _COXETER[family](n)


class RootSystemLabel(Record):
    """Formal multiset of irreducible A-D-E component labels."""

    components: tuple[tuple[str, int], ...]

    @staticmethod
    def parse(text: str) -> "RootSystemLabel":
        comps = []
        text = text.strip()
        if text in ("", "0", "-"):
            return RootSystemLabel(())
        for part in text.split("+"):
            part = part.strip()
            if "^" in part:
                base, _, mult = part.partition("^")
                mult = int(mult)
            else:
                base, mult = part, 1
            family, n = base[:1], int(base[1:])
            check_ade(family, n)
            if mult < 1:
                raise ValueError(f"multiplicity below 1 in {part!r}")
            comps.extend([(family, n)] * mult)
        return RootSystemLabel(tuple(sorted(comps)))

    def root_count(self) -> int:
        return sum(ade_root_count(f, n) for f, n in self.components)

    def total_rank(self) -> int:
        return sum(n for _, n in self.components)

    def is_empty(self) -> bool:
        return not self.components

    def __str__(self):
        if not self.components:
            return "-"
        parts = []
        seen = []
        for comp in self.components:
            if seen and seen[-1][0] == comp:
                seen[-1][1] += 1
            else:
                seen.append([comp, 1])
        for (family, n), mult in seen:
            parts.append(f"{family}{n}" + (f"^{mult}" if mult > 1 else ""))
        return "+".join(parts)


class Isometry(Record):
    """Integer matrix preserving the Gram matrix; acts on coordinates by x -> M x."""

    lattice: Lattice
    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        m = [list(r) for r in self.matrix]
        g = [list(r) for r in self.lattice.gram]
        # M^T (G M): the sparse Gram is the left factor of the first product
        mtgm = intlinalg.mat_mul(intlinalg.transpose(m), intlinalg.mat_mul(g, m))
        if mtgm != g:
            raise ValueError("matrix does not preserve the Gram matrix")

    def apply(self, v: Vector) -> Vector:
        return tuple(sum(map(mul, row, v)) for row in self.matrix)

    def det(self) -> int:
        return intlinalg.det(self.matrix)

    def is_involution(self) -> bool:
        """M M = I: one product, since M already preserves the form."""
        m = [list(r) for r in self.matrix]
        return intlinalg.mat_mul(m, m) == intlinalg.identity(self.lattice.rank)


# Bound on the work of one enumeration: search-tree nodes (leaves included),
# plus `rank` nodes for every vector stored, so that the cap bounds memory as
# well as time. The largest walk of the test suite, norm 4 on D16+E8, charges
# 2,681,735 in all (24 x 89,640 for its vectors); the largest walk of
# `cf-lattice verify` (E8) charges 1,332, and its four walks 2,660.
MAX_ENUMERATION_NODES = 6_600_000


class EnumerationCapError(ValueError):
    """The enumeration would visit more than MAX_ENUMERATION_NODES nodes."""


def _enumerate_norm(gram, target: int):
    """All x with x^T G x = target whose first nonzero coordinate is positive, sorted.

    Fincke-Pohst in integers on the fraction-free LDL^T of G with its
    coordinates reversed (`intlinalg.symmetric_bareiss`), so that the first
    coordinate is the outermost level of the walk and the last the
    innermost. In walk order k = 0..n-1 (coordinate n-1-k of x), with
    leading minors D_k and integer rows a_kj,
    x^T G x = sum_k (D_k y_k + C_k)^2 / (D_(k-1) D_k) (D_(-1) = 1) with
    C_k = sum_(j>k) a_kj y_j. With s the lcm of the D_(k-1) D_k, term k is
    w_k (D_k y_k + C_k)^2 / s for the integer weight w_k = s / (D_(k-1) D_k).
    The budget is target * s; each y_k runs over the exact integer interval
    |D_k y_k + C_k| <= isqrt(budget // w_k), in increasing order, and a
    level whose outer coordinates are all zero starts at 0. So the vectors
    come out in lexicographic order, each once up to sign. At the innermost
    level the budget left must be spent exactly: only the two ends of the
    interval can be hits, and they are tested without a walk.
    A choice at level k that leaves a budget of 0 forces every inner level j
    to D_j y_j + C_j = 0; some coordinate so far is nonzero, since every
    term is 0 while they all are. Those levels are solved in one loop in the
    same call: y_j = -C_j / D_j, and the path ends at the first level where
    D_j does not divide C_j. There C_j is read off the nonzero a_jl only;
    the main path keeps dense row products, which measured faster on skewed
    walks.
    Raises ValueError unless G is positive definite (r = n and every D_k > 0,
    Sylvester), and EnumerationCapError past MAX_ENUMERATION_NODES: every
    node counts 1, every value of the innermost coordinate (a leaf) 1, and a
    stored vector n. A forced completion charges the same: one node per
    level reached, and 1 + n for its leaf when that is a hit; it checks the
    cap once, at its end, which raises exactly when a check per level would.
    """
    n = len(gram)
    if n == 0:
        return []
    dens, pivot_rows, _ = intlinalg.symmetric_bareiss([row[::-1] for row in gram[::-1]])
    if len(dens) < n or min(dens) <= 0:
        raise ValueError("lattice is not positive definite")
    # a node at level k >= 1 gives its children the centre base + a * y_k: a is
    # a_(k-1,k) and base sums a_(k-1,j) y_j over j > k, once for all the children
    heads = [row[k] for k, row in enumerate(pivot_rows[:-1], 1)]
    tails = [row[k + 1:] for k, row in enumerate(pivot_rows[:-1], 1)]
    # the nonzero a_kj (j > k) of each level, for the forced completions
    sparse = [[(j, a) for j, a in enumerate(row[k + 1:], k + 1) if a]
              for k, row in enumerate(pivot_rows)]
    steps = [a * b for a, b in zip([1] + dens, dens)]
    s = lcm(*steps)
    weights = [s // e for e in steps]
    results = []
    y = [0] * n  # walk coordinates: y[k] is x[n-1-k]
    nodes = 0

    def over_cap():
        return EnumerationCapError(f"norm-{target} enumeration passes the cap of "
                                   f"{MAX_ENUMERATION_NODES} search nodes")

    def descend(k, budget, zeros_so_far, c):
        nonlocal nodes
        w, den = weights[k], dens[k]
        r = isqrt(budget // w)
        lo = -((c + r) // den)
        hi = (r - c) // den
        if zeros_so_far and lo < 0:
            lo = 0
        nodes += 1
        if not k:
            # innermost level: hi - lo + 1 leaves; a leaf is a hit only if it spends
            # the budget exactly, so D y + C is -r (at lo) or r (at hi)
            nodes += hi - lo + 1
            if w * r * r == budget:
                for yk, t in ((lo, -r), (hi, r)) if r else ((lo, 0),):
                    if den * yk + c == t and (yk or not zeros_so_far):
                        y[0] = yk
                        results.append(tuple(y[::-1]))
                        nodes += n  # a stored vector holds n ints: charged as n nodes
                y[0] = 0
        if nodes > MAX_ENUMERATION_NODES:
            raise over_cap()
        if k:
            a, base = heads[k - 1], sum(map(mul, tails[k - 1], y[k + 1:]))
            for yk in range(lo, hi + 1):
                t = den * yk + c
                y[k] = yk
                left = budget - w * t * t
                if left:
                    descend(k - 1, left, zeros_so_far and yk == 0, base + a * yk)
                    continue
                # budget spent: the inner levels are forced, charged as the recursion
                # would charge them (a node per level reached, 1 + n for a hit leaf)
                j, cj = k - 1, base + a * yk
                while True:
                    nodes += 1
                    yj, rest = divmod(-cj, dens[j])
                    if rest:
                        break
                    y[j] = yj
                    if not j:
                        results.append(tuple(y[::-1]))
                        nodes += 1 + n
                        break
                    j -= 1
                    cj = sum([x * y[i] for i, x in sparse[j]])
                y[j:k] = [0] * (k - j)
                if nodes > MAX_ENUMERATION_NODES:
                    raise over_cap()
            y[k] = 0

    descend(n - 1, target * s, True, 0)
    return results


def _half(v: Vector) -> Vector:
    """Of +-v, the one whose first nonzero coordinate is positive."""
    return v if v > (0,) * len(v) else tuple(map(neg, v))


def short_vectors(lat: Lattice, norm: int) -> list[Vector]:
    """All vectors of the given norm, canonically sorted, closed under negation.

    Every call walks the lattice; nothing is kept between calls.
    """
    if norm <= 0:
        raise ValueError("norm must be positive")
    full = []
    for v in _enumerate_norm(lat.gram, norm):
        full.append(v)
        full.append(tuple(map(neg, v)))
    return full


def roots(lat: Lattice) -> list[Vector]:
    """Norm-2 vectors of a positive definite lattice."""
    return short_vectors(lat, 2)


def positive_roots(lat: Lattice) -> list[Vector]:
    """One root of each +-pair, first nonzero coordinate positive, in lexicographic order.

    These are the positive roots for the lexicographic order, the walk's own
    output: `short_vectors(lat, 2)[0::2]`, with no negation. Every call walks.
    """
    return _enumerate_norm(lat.gram, 2)


def count_roots(halves) -> int:
    """The number of roots that one root of each +-pair stands for (v != -v)."""
    return 2 * len(halves)


def identify_root_system(lat: Lattice, root_list) -> RootSystemLabel:
    """Classify a set of norm-2 vectors into irreducible A-D-E components.

    Components come from the simple roots of the lexicographic positive
    system (`root_components`); each is recognized by (rank, Cartan det,
    root count). Precondition: the form is positive definite on the span of
    the input. A vector of norm other than 2, a component outside the A-D-E
    census, or an input that is not closed under its own reflections is a
    ValueError; the norms are checked by the descent walk, not one by one.
    """
    return RootSystemLabel(tuple(sorted(label for label, _ in root_components(lat, root_list))))


def root_components(lat: Lattice, root_list) -> list[tuple[tuple[str, int], list[Vector]]]:
    """The irreducible components of a root system, as (label, sorted halves).

    Precondition: the form is positive definite on the span of the input.
    The input may hold both roots of a pair or one of them (as
    `positive_roots` returns them); one representative is kept per +-pair
    (first nonzero coordinate positive). These halves are the positive
    roots for the lexicographic order, walked in that order. A half v that
    pairs to 1 with a simple root s found before it is not simple: v - s is
    then a positive root, lexicographically smaller than v (Humphreys,
    Introduction to Lie Algebras, 9.4 and 10.2), so it must be a half
    already walked, and v joins the component of s. A half that pairs to 1 with no earlier simple
    root is simple: it must have norm 2, and it is joined (union-find) to
    every earlier simple root it pairs nonzero with, so components are the
    connected parts of the Dynkin graph. G s is built once per simple root
    and kept as its nonzero entries only (on a Niemeier Gram about 3 of
    24), so a half costs one sparse pairing per simple root scanned and one
    lookup. The Gram is kept as the nonzero entries of each row (about 4
    of 24 on a Niemeier Gram), and G is symmetric, so G s is the sum of the
    rows at the nonzero coordinates of s, each scaled by its coordinate;
    the norm of s and its pairings with the earlier simple roots are read
    over the nonzero entries of G s. The simple roots are scanned newest
    first, because the halves of a component follow its simple roots
    closely in lexicographic order: on the 60 inputs of six lattice-sweep
    passes (skewed A-D-E sums of rank 8-16) a non-simple half scans 2.5
    simple roots on average, against 5.4 oldest first.
    Which s is found first changes neither the set of simple roots nor the
    components (any s with (v, s) = 1 is in v's component), nor, on a root
    system, whether v - s is an earlier half.
    By induction over the walk every half is an earlier half plus a simple
    root of its component, so a nonnegative integer combination of that
    component's simple roots, and has norm 2: (v, s) = 1 and s.s = 2 give
    v.v = (v - s).(v - s). What is left to check is each component's Cartan
    block C: det C = 0 means dependent simple roots, and (rank, det C, root
    count) must name an A-D-E family (`_ade_label`). On a definite form C
    is then that family's Cartan matrix and the halves are all of its
    positive roots. Any failure raises ValueError, so a list that is not
    closed under its own reflections, or has a vector of norm other than 2,
    is rejected.
    Components are listed in the order of their first representative in the
    input, each with its (family, rank) label and its halves sorted.
    """
    halves = list(dict.fromkeys(map(_half, root_list)))
    rows = [[(i, x) for i, x in enumerate(row) if x] for row in lat.gram]
    simple, gs, parent = [], [], []  # simple roots, their G s as (j, x) pairs, union-find links
    home = {}  # half walked -> index of a simple root of its component
    for v in sorted(halves):
        for i in reversed(range(len(gs))):
            if sum([v[j] * x for j, x in gs[i]]) == 1:  # not simple: v - s_i is an earlier half
                if tuple(map(sub, v, simple[i])) not in home:
                    raise ValueError("root list is not closed under reflections")
                home[v] = i
                break
        else:  # simple
            gv = _gram_vec(rows, v)
            if sum([v[j] * x for j, x in gv]) != 2:
                raise ValueError("input contains a vector of norm != 2")
            k = len(simple)
            parent.append(k)
            for i, s in enumerate(simple):
                if sum([s[j] * x for j, x in gv]):
                    parent[_find(parent, i)] = k
            simple.append(v)
            gs.append(gv)
            home[v] = k
    members: dict[int, list[Vector]] = {}
    for v in halves:
        members.setdefault(_find(parent, home[v]), []).append(v)
    comps = []
    for root, vectors in members.items():
        block = [i for i in range(len(simple)) if _find(parent, i) == root]
        det = intlinalg.det([[sum([simple[i][jj] * x for jj, x in gs[j]]) for j in block]
                             for i in block])
        if det == 0:
            raise ValueError("simple roots of a component are dependent: "
                             "not a root system")
        comps.append((_ade_label(len(block), det, 2 * len(vectors)), sorted(vectors)))
    return comps


def _gram_vec(rows, v: Vector) -> list[tuple[int, int]]:
    """G v as its nonzero (i, x) pairs, from `rows`, the nonzero (i, x) pairs of each row
    of the symmetric G: the rows at v's nonzero coordinates, scaled and summed."""
    acc = [0] * len(v)
    for c, row in zip(v, rows):
        if c:
            for i, x in row:
                acc[i] += c * x
    return [(i, x) for i, x in enumerate(acc) if x]


def _find(parent: list[int], i: int) -> int:
    while parent[i] != i:
        i = parent[i]
    return i


def _ade_label(rank: int, det: int, count: int) -> tuple[str, int]:
    """(family, rank) of an irreducible root system from its rank, Cartan det and root count.

    A_r has det r+1, D_r det 4 and E_r det 9-r, so (rank, det) names at most
    one family; the count must be that family's full root count. The count
    alone would admit A4 for a 20-root subset of D4.
    """
    for fam in ("A", "D", "E"):
        if fam == "D" and rank < 4 or fam == "E" and rank not in (6, 7, 8):
            continue
        if _CARTAN_DET[fam](rank) == det and ade_root_count(fam, rank) == count:
            return fam, rank
    raise ValueError(f"component of rank {rank}, Cartan det {det} and {count} roots "
                     "is not A-D-E")


def reflection(lat: Lattice, delta: Vector) -> Isometry:
    """The reflection x -> x - 2 (x.delta / delta.delta) delta.

    Integral exactly when delta is a generalized root: delta^2 | 2 delta.x
    for all x in L.
    """
    nrm = lat.norm(delta)
    if nrm == 0:
        raise ValueError("cannot reflect in an isotropic vector")
    pair = intlinalg.mat_vec([list(r) for r in lat.gram], list(delta))
    for p in pair:
        if (2 * p) % nrm:
            raise ValueError("not a generalized root: reflection is not integral")
    n = lat.rank
    m = [[(1 if i == j else 0) - delta[i] * (2 * pair[j] // nrm) for j in range(n)]
         for i in range(n)]
    return Isometry(lat, tuple(tuple(r) for r in m))


class DiscAction(Record):
    """Induced action of an isometry on the discriminant group, on Smith generators."""

    invariant_factors: tuple[int, ...]
    matrix: tuple[tuple[int, ...], ...]

    def is_trivial(self) -> bool:
        k = len(self.invariant_factors)
        return all(self.matrix[i][j] % self.invariant_factors[i] == (1 if i == j else 0)
                   for i in range(k) for j in range(k))


def disc_action(lat: Lattice, iso: Isometry) -> DiscAction:
    """Action of an isometry on A_L = L*/L, expressed on the Smith generators.

    With P G Q = D, generator i lifts to Q e_i / d_i, and a dual vector y has
    Smith coordinates P G y mod d. So the image of generator i has coordinates
    P G M Q e_i / d_i, an integer vector, coordinate j taken mod d_j.
    """
    g = [list(r) for r in lat.gram]
    d, p, q = intlinalg.smith_normal_form(g)
    keep = [i for i, di in enumerate(d) if di > 1]
    if not keep:
        return DiscAction((), ())
    pgm = intlinalg.mat_mul(intlinalg.mat_mul(p, g), [list(r) for r in iso.matrix])
    action = []
    for i in keep:
        img = intlinalg.mat_vec(pgm, [row[i] for row in q])
        if any(x % d[i] for x in img):
            raise ArithmeticError("isometry does not act integrally on the dual (bug)")
        action.append(tuple(img[j] // d[i] % d[j] for j in keep))
    # action[i] is the image of generator i written in generator coordinates
    matrix = tuple(tuple(action[j][i] for j in range(len(keep))) for i in range(len(keep)))
    return DiscAction(tuple(d[i] for i in keep), matrix)


class LongRootNotFound(RuntimeError):
    """Search bound exhausted; caller may enlarge the bound."""


def find_long_root(lam: Lattice, h: Vector, bound: int = 6) -> Vector:
    """A norm-6 vector orthogonal to h whose pairings with h-perp are divisible by 3.

    Searches for v with v.v = 1 and v.h = 1 over vectors of small support and
    bounded coefficients, then takes delta = 3v - h, which automatically makes
    h + delta divisible by 3. Deterministic: first hit in canonical order.
    The 3-divisibility needs no complement: h + delta = 3w for an integral
    w, so x.delta = 3 (x.w) - x.h = 3 (x.w) for every x orthogonal to h, on
    any integral lattice.
    """
    if bound < 1:
        raise ValueError("bound must be positive")
    n = lam.rank
    gh = intlinalg.mat_vec([list(r) for r in lam.gram], list(h))
    coeffs = []
    for a in range(1, bound + 1):
        coeffs.extend((a, -a))
    for support_size in range(1, 4):
        for positions in combinations(range(n), support_size):
            # the first coefficient is positive: the sign is fixed by the pairing below
            for cs in product(range(1, bound + 1), *[coeffs] * (support_size - 1)):
                v = [0] * n
                for pos, c in zip(positions, cs):
                    v[pos] = c
                pair = sum(c * gh[pos] for pos, c in zip(positions, cs))
                if pair == -1:
                    v = [-c for c in v]
                elif pair != 1:
                    continue
                if lam.norm(tuple(v)) != 1:
                    continue
                delta = tuple(3 * a - b for a, b in zip(v, h))
                _check_long_root(lam, h, delta)
                return delta
    raise LongRootNotFound(f"no long root with support <= 3 and coefficients <= {bound}")


def _check_long_root(lam: Lattice, h: Vector, delta: Vector) -> None:
    """Orthogonal to h, norm 6, h + delta divisible by 3: so 3-divisible on h-perp."""
    if lam.inner(delta, h) != 0:
        raise AssertionError("long root candidate is not orthogonal to h")
    if lam.norm(delta) != 6:
        raise AssertionError("long root candidate has wrong norm")
    if any((a + b) % 3 for a, b in zip(h, delta)):
        raise AssertionError("h + delta is not divisible by 3")
