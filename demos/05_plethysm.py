"""Characters, symmetric cubes, and the two Kirwan normal slices.

Characters live as Weyl-invariant Laurent polynomials with integer
coefficients; symmetric powers are built one weight at a time, each with its
whole factor of the generating function of the complete homogeneous
polynomials, and decompositions come from Weyl's alternating sum.
"""
from cf_lattice.plethysm import (
    SL2,
    SL3,
    decompose,
    irreducible_character,
    normal_slice,
    parse_rep_expression,
    standard_character,
    sym_power,
    tensor,
    trivial_character,
)

v2 = standard_character(SL2)
print("SL2 V:", v2.as_dict())
print("V (x) V =", decompose(tensor(v2, v2)))

# The space of cubics on a 6-dimensional quadric space, as an SL3 module.
v3 = standard_character(SL3)
w = sym_power(v3, 2)
cube = sym_power(w, 3)
print("\nSL3: dim Sym^2 V =", w.dimension(), "| dim Sym^3 Sym^2 V =", cube.dimension())
print("decomposition:", decompose(cube))

# The same space as an SL2 module, for the quartic-plus-line situation.
w2 = sym_power(v2, 4) + trivial_character(SL2)
cube2 = sym_power(w2, 3)
print("\nSL2: Sym^3(Sym^4 V + C) =", decompose(cube2))

# Normal slices at the two special orbits: subtract the orbit directions
# (the ambient Lie algebra modulo the stabilizer) from the ambient tangent.
# The stabilizer algebras are sl(3) = Gamma_{1,1} and Sym^2 V.
omega = normal_slice(cube, w, irreducible_character(SL3, (1, 1)))
chi = normal_slice(cube2, w2, irreducible_character(SL2, 2))
print("\nnormal slice at the SL3 point:", omega, "| dim", omega.dimension())
print("normal slice along the SL2 curve:", chi, "| dim", chi.dimension())

# Everything is reachable through the expression grammar as well.
expr = parse_rep_expression("Sym^3(Sym^4(V)+C)", SL2)
print("\nparsed expression dim:", expr.dimension())
print("Gamma_{2,2} dimension:", irreducible_character(SL3, (2, 2)).dimension())
