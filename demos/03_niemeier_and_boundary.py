"""Niemeier gluing and the six boundary components.

Rebuilds the six rank-24 even unimodular lattices whose root systems
contain an E_r summand, embeds E6 into each, and identifies the root
system of the orthogonal complement. The six answers classify the rank-2
isotropic sublattices of the period lattice's complement.
"""
from cf_lattice import orthogonal_complement, standard_lattice, direct_sum
from cf_lattice.lattices import discriminant_data
from cf_lattice.niemeier import (
    construct_niemeier,
    embed_e6,
    entries_with_e_summand,
    isotropic_subgroups,
    niemeier_table,
    overlattice,
)
from cf_lattice.roots import identify_root_system, positive_roots, root_components, roots

print("the 24 rank-24 root systems (24h roots each):")
for entry in niemeier_table():
    print(f"  {str(entry.root_system):12s} h = {entry.coxeter_number:2d} "
          f"roots = {entry.root_count()}")

# Warm-up gluing: E6 + A2 have opposite order-3 discriminant forms, and
# either diagonal isotropic generator produces a lattice with the E8 census.
base = direct_sum(standard_lattice("E6"), standard_lattice("A2"))
data = discriminant_data(base)
for subgroup in isotropic_subgroups(data, 3):
    gen = next(e for e in subgroup if any(e))
    glued = overlattice(base, data, [gen])
    print("\nglue", gen, "->", len(roots(glued.lattice)), "roots,",
          "det", glued.lattice.det())

# The six E-containing entries, glued and probed. The glue certifies that no
# roots were added; here each lattice is walked all the same, and E6 is
# embedded in an E component of the roots found.
print("\nboundary dictionary:")
for entry in entries_with_e_summand():
    glued = construct_niemeier(entry)
    lat = glued.lattice
    e_component = next(halves for (family, _), halves
                       in root_components(lat, positive_roots(lat)) if family == "E")
    sub = embed_e6(lat, e_component)
    comp = orthogonal_complement(lat, sub)
    comp_lat = comp.lattice()
    label = identify_root_system(comp_lat, roots(comp_lat))
    print(f"  {str(entry.root_system):12s} glue order {glued.glue_order:2d} "
          f"-> complement of E6: {label}")
