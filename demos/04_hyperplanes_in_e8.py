"""The degree-2/degree-6 hyperplane dictionary inside E8.

All positive definite reasoning about how the two hyperplane families meet
reduces to configurations of roots around a fixed E6 inside E8: a root
either lies in E6, is orthogonal to it (the A2 complement), or spans an E7
with it. Counting these classes gives the weight and vanishing orders of
the discriminant automorphic form.
"""
from cf_lattice import checks, direct_sum, standard_lattice
from cf_lattice.period import e8_dictionary
from cf_lattice.roots import count_roots, roots

# the split holds one root of each +-pair; count_roots counts both signs
dic = e8_dictionary()
print("roots of E8 relative to a fixed E6:")
print("  inside E6:    ", count_roots(dic.in_e6))
print("  orthogonal:   ", count_roots(dic.orthogonal))
print("  mixed:        ", sum(map(count_roots, dic.mixed_by_line.values())))
print("  mixed classes:", {line: count_roots(v) for line, v in dic.mixed_by_line.items()})

report = checks.run_check("dictionary-counts")
print("\ndictionary check:", report.status)
for summary in report.actual["mixed_saturations"]:
    print("  mixed saturation:", summary)

report = checks.run_check("intersection-codims")
print("\nintersection check:", report.status)
print("  pairwise saturations:", report.actual["pairwise_saturations"])
print("  projection ranks by boundary type:")
for name, rank in sorted(report.actual["projection_ranks"].items()):
    print(f"    {name:12s} -> {rank}")

# Weight and vanishing orders from raw root counts:
#   weight = 12 + |roots(E6)| / 2
#   order along the determinant-2 family = (|roots(E7)| - |roots(E6)|) / 2
#   order along the determinant-6 family = (|roots(E6+A1)| - |roots(E6)|) / 2
e6 = standard_lattice("E6")
e7 = standard_lattice("E7")
e6a1 = direct_sum(e6, standard_lattice("A1"))
print("\nroot counts: E6 =", len(roots(e6)), " E7 =", len(roots(e7)),
      " E6+A1 =", len(roots(e6a1)))
report = checks.run_check("automorphic-weight-orders")
print("weight and orders:", report.actual)
