"""Singularity spectra of quasihomogeneous hypersurface singularities.

The spectrum of a weighted-homogeneous singularity with weights w_i (degree
normalized to 1) is read off from the exact expansion of
prod_i (t^{w_i} - t) / (1 - t^{w_i}); the exponent multiset of the resulting
polynomial is {alpha + 1}. Suspension shifts every entry by 1/2. The
hyperbolic T_{p,q,r} cusps are not quasihomogeneous; their spectra come from
a closed form and are validated against their invariants.
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm, prod

from ._record import Record


class QhSingularity(Record):
    """Quasihomogeneous isolated hypersurface singularity, by its weights."""

    weights: tuple[Fraction, ...]
    name: str | None = None

    def __post_init__(self):
        for w in self.weights:
            if not (0 < w < 1):
                raise ValueError("weights must lie strictly between 0 and 1")

    @property
    def nvars(self) -> int:
        return len(self.weights)

    def milnor_number(self) -> int:
        mu = prod(1 / w - 1 for w in self.weights)
        if mu.denominator != 1 or mu <= 0:
            raise ValueError("weights do not define an isolated singularity")
        return int(mu)


class SpectrumMultiset(Record):
    """Multiset of exact rationals, symmetric about (nvars - 2) / 2.

    `entries` is sorted ascending: `spectrum` and `suspend` build it in
    order, and `make` sorts unsorted input (the cusp spectra, tests).
    """

    entries: tuple[Fraction, ...]
    nvars: int

    @staticmethod
    def make(entries, nvars: int) -> "SpectrumMultiset":
        return SpectrumMultiset(tuple(sorted(Fraction(e) for e in entries)), nvars)

    def __len__(self):
        return len(self.entries)

    def minimum(self) -> Fraction:
        return self.entries[0]

    def maximum(self) -> Fraction:
        return self.entries[-1]

    def is_symmetric(self) -> bool:
        """The reflections nvars - 2 - e of the entries, reversed, are the entries."""
        return all(e + f == self.nvars - 2
                   for e, f in zip(self.entries, reversed(self.entries)))


def spectrum(s: QhSingularity) -> SpectrumMultiset:
    """Exact spectrum; errors if the weight system is not a valid one.

    The coefficient of x^k counts the entry k/d - 1; reading them with k
    ascending builds the entries sorted, one Fraction per distinct entry.
    """
    mu = s.milnor_number()
    d = lcm(*[w.denominator for w in s.weights])
    exps = [int(w * d) for w in s.weights]
    # numerator prod (x^{a_i} - x^d), denominator prod (1 - x^{a_i}); x = t^{1/d}
    num = [1]
    for a in exps:
        new = [0] * (len(num) + d)
        for k, c in enumerate(num):
            if c:
                new[k + a] += c
                new[k + d] -= c
        num = new
    for a in exps:
        num = _divide_by_one_minus_power(num, a)
    while num and num[-1] == 0:
        num.pop()
    if any(c < 0 for c in num):
        raise ValueError("expansion has negative coefficients: invalid weight system")
    if sum(num) != mu:
        raise ValueError("expansion size disagrees with the Milnor number: invalid weights")
    entries = []
    for k, c in enumerate(num):
        if c:
            entries += [Fraction(k - d, d)] * c
    return SpectrumMultiset(tuple(entries), s.nvars)


def _divide_by_one_minus_power(poly, a: int):
    """Exact division by (1 - x^a); raises if the division is not exact."""
    out = [0] * len(poly)
    for k in range(len(poly)):
        out[k] = poly[k] + (out[k - a] if k >= a else 0)
    # verify: out * (1 - x^a) == poly
    for k in range(len(poly)):
        check = out[k] - (out[k - a] if k >= a else 0)
        if check != poly[k]:
            raise ValueError("non-polynomial expansion: invalid weight system")
    while out and out[-1] == 0:
        out.pop()
    return out


def suspend(sp: SpectrumMultiset, k: int) -> SpectrumMultiset:
    """Add k squares of new variables: every entry shifts by k/2."""
    if k < 0:
        raise ValueError("suspension count must be >= 0")
    shift = Fraction(k, 2)
    return SpectrumMultiset(tuple(e + shift for e in sp.entries), sp.nvars + k)


def interval_check(sp: SpectrumMultiset, lo, hi,
                   strict_lo: bool = False, strict_hi: bool = False) -> bool:
    """Containment of the whole multiset in an interval, per-endpoint strictness."""
    lo, hi = Fraction(lo), Fraction(hi)
    mn, mx = sp.minimum(), sp.maximum()
    ok_lo = mn > lo if strict_lo else mn >= lo
    ok_hi = mx < hi if strict_hi else mx <= hi
    return ok_lo and ok_hi


class CatalogEntry(Record):
    name: str
    kind: str  # "du_val" | "simple_elliptic"
    singularity: QhSingularity


def surface_catalog() -> tuple[CatalogEntry, ...]:
    """The quasihomogeneous surface singularities, weights from their normal forms.

    A_n: x^(n+1) + y^2 + z^2; D_n: x^(n-1) + x y^2 + z^2; E6: x^3 + y^4 + z^2;
    E7: x^3 + x y^3 + z^2; E8: x^3 + y^5 + z^2; the simple elliptic
    Etilde6, Etilde7, Etilde8 have the weights of x^3 + y^3 + z^3,
    x^4 + y^4 + z^2 and x^6 + y^3 + z^2.
    """
    half, third = Fraction(1, 2), Fraction(1, 3)
    rows = [(f"A{n}", "du_val", (Fraction(1, n + 1), half, half)) for n in range(1, 13)]
    rows += [(f"D{n}", "du_val", (Fraction(1, n - 1), Fraction(n - 2, 2 * (n - 1)), half))
             for n in range(4, 13)]
    rows += [("E6", "du_val", (third, Fraction(1, 4), half)),
             ("E7", "du_val", (third, Fraction(2, 9), half)),
             ("E8", "du_val", (third, Fraction(1, 5), half)),
             ("Etilde6", "simple_elliptic", (third, third, third)),
             ("Etilde7", "simple_elliptic", (Fraction(1, 4), Fraction(1, 4), half)),
             ("Etilde8", "simple_elliptic", (Fraction(1, 6), third, half))]
    return tuple(CatalogEntry(name=f"{label}_surface", kind=kind,
                              singularity=QhSingularity(weights, name=f"{label}_surface"))
                 for label, kind, weights in rows)


# Bound on the Milnor number p + q + r - 1 of a cusp, so that no input can ask
# for an unbounded spectrum.
MAX_CUSP_MILNOR = 10_000


class CuspRangeError(ValueError):
    """Parameters outside 1/p + 1/q + 1/r < 1, or past MAX_CUSP_MILNOR."""


def cusp_spectrum(p: int, q: int, r: int) -> SpectrumMultiset:
    """Spectrum of the hyperbolic T_{p,q,r} surface singularity.

    T_{p,q,r} is x^p + y^q + z^r + xyz with 1/p + 1/q + 1/r < 1. It is not
    quasihomogeneous, so the spectrum comes from the standard mixed-Hodge-
    theoretic computation: the eigenvalue-one part of the monodromy
    contributes {0, 1}, and each arm of length m in {p, q, r} contributes
    {j/m : 1 <= j <= m-1}. The result is validated against the count
    (mu = p+q+r-1), the symmetry about 1/2, containment in [0,1] and both
    endpoints. Raises CuspRangeError when mu exceeds MAX_CUSP_MILNOR.
    """
    if min(p, q, r) < 2:
        raise ValueError("cusp parameters must be at least 2")
    if Fraction(1, p) + Fraction(1, q) + Fraction(1, r) >= 1:
        raise CuspRangeError(
            f"T_({p},{q},{r}) is outside the cusp range: 1/p + 1/q + 1/r must be < 1")
    if p + q + r - 1 > MAX_CUSP_MILNOR:
        raise CuspRangeError(
            f"T_({p},{q},{r}) has Milnor number {p + q + r - 1}, "
            f"above the bound {MAX_CUSP_MILNOR}")
    entries = [Fraction(0), Fraction(1)]
    entries += [Fraction(j, m) for m in (p, q, r) for j in range(1, m)]
    sp = SpectrumMultiset.make(entries, 3)
    _validate_cusp(sp, p, q, r)
    return sp


def _validate_cusp(sp: SpectrumMultiset, p: int, q: int, r: int) -> None:
    if len(sp) != p + q + r - 1:
        raise AssertionError("cusp spectrum fails the mu = p+q+r-1 invariant")
    if not sp.is_symmetric():
        raise AssertionError("cusp spectrum is not symmetric")
    if not interval_check(sp, 0, 1):
        raise AssertionError("cusp spectrum leaves [0, 1]")
    if sp.minimum() != 0 or sp.maximum() != 1:
        raise AssertionError("cusp spectrum does not attain both endpoints")
