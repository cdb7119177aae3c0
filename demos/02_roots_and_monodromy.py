"""Root systems, reflections, and the long-root involution.

Enumerates roots of definite lattices exactly, identifies the A-D-E type
of what it finds, and builds the monodromy involution attached to a long
root: the isometry that fixes a rank-2 lattice of determinant 2 and acts
as minus identity on its 21-dimensional complement.
"""
from cf_lattice import (
    Sublattice,
    orthogonal_complement,
    standard_lattice,
)
from cf_lattice.period import build_period_model, monodromy_involution
from cf_lattice.roots import (
    disc_action,
    identify_root_system,
    reflection,
    roots,
    short_vectors,
)

# Exact enumeration: every vector of the requested norm, once, canonically
# sorted, closed under negation.
for label in ("A2", "D4", "E6", "E7", "E8"):
    lat = standard_lattice(label)
    print(f"{label}: {len(roots(lat))} roots")

e8 = standard_lattice("E8")
print("norm-4 vectors of E8:", len(short_vectors(e8, 4)))
print("identified:", identify_root_system(e8, roots(e8)))

# Reflections in generalized roots are integral isometries of order 2.
s = reflection(standard_lattice("diag(1,1)"), (1, -1))
print("\nreflection in e1 - e2:", s.matrix)

# The polarized model: a long root is a norm-6 vector of the complement
# whose pairings with the whole complement are divisible by 3.
model = build_period_model()
lam, h, delta = model.ambient, model.polarization, model.long_root
print("\nlong root delta:", delta)
print("delta.delta =", lam.norm(delta), "| delta.h =", lam.inner(delta, h))
print("(h + delta)/3 is integral:", all((a + b) % 3 == 0 for a, b in zip(h, delta)))

# The induced involution: +1 on span(h, h - (h+delta)/3), -1 on the rest.
g = monodromy_involution(model)
print("\ninvolution is an involution:", g.is_involution())
print("matrix determinant:", g.det())
mid = tuple((a + b) // 3 for a, b in zip(h, delta))
second = tuple(a - b for a, b in zip(h, mid))
fixed = Sublattice(lam, (h, second))
print("fixed-plane Gram on (h, h - (h+delta)/3):", fixed.induced_gram())
comp = orthogonal_complement(lam, fixed)
print("acts as -1 on the complement:",
      all(g.apply(r) == tuple(-x for x in r) for r in comp.basis))

# On the order-3 discriminant group the plain reflection switches the two
# nonzero elements, which is exactly why it is excluded from the stable
# orthogonal group while its negative is allowed in.
core = model.core_lattice
s_delta = reflection(core, model.core.from_ambient(delta))
act = disc_action(core, s_delta)
print("\ndiscriminant action of s_delta:", act.matrix, "| trivial:", act.is_trivial())
