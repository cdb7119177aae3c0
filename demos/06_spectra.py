"""Singularity spectra and the interval dichotomy.

Quasihomogeneous spectra come from an exact generating-function expansion;
cusp spectra come from their closed form, validated against their
invariants. The
dichotomy that matters downstream: du Val spectra stay strictly inside
(0,1), the simple elliptic ones touch both endpoints of [0,1], and two
suspensions shift everything into [1,2].
"""
from fractions import Fraction

from cf_lattice.spectra import (
    QhSingularity,
    cusp_spectrum,
    interval_check,
    spectrum,
    surface_catalog,
    suspend,
)

node = QhSingularity((Fraction(1, 2),) * 3, name="node")
print("node spectrum:", [str(e) for e in spectrum(node).entries])
print("after double suspension:", [str(e) for e in suspend(spectrum(node), 2).entries])

print("\ncatalog dichotomy:")
for entry in surface_catalog():
    sp = spectrum(entry.singularity)
    strict = interval_check(sp, 0, 1, strict_lo=True, strict_hi=True)
    closed = interval_check(sp, 0, 1)
    print(f"  {entry.name:18s} mu = {len(sp):2d} "
          f"min = {str(sp.minimum()):5s} max = {str(sp.maximum()):5s} "
          f"{'strictly inside (0,1)' if strict else 'touches an endpoint' if closed else '?'}")

print("\ndouble suspensions land in [1,2]:")
sample = [e for e in surface_catalog() if e.name in
          ("A1_surface", "E8_surface", "Etilde8_surface")]
for entry in sample:
    sp = suspend(spectrum(entry.singularity), 2)
    print(f"  {entry.name:18s} min = {sp.minimum()} max = {sp.maximum()} "
          f"inside [1,2]: {interval_check(sp, 1, 2)}")

print("\ncusp spectra from the closed form {0, 1} + {j/m : m in p, q, r}:")
for p, q, r in ((2, 3, 7), (3, 3, 4), (2, 4, 5)):
    sp = cusp_spectrum(p, q, r)
    print(f"  T({p},{q},{r}): mu = {len(sp)}, entries = "
          f"{[str(e) for e in sp.entries]}")
