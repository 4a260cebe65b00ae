"""Subgroup lattices and the classical structural subgroups.

Run:  python demos/02_subgroup_lattices.py
"""

from collections import Counter

from pcl import (all_subgroups, build_family, derived_subgroup, frattini,
                 full_subgroup, involutions, min_generators, normalizer, sylow)

d8 = build_family("D(8)")
lattice = all_subgroups(d8)
print(f"D(8) has {len(lattice)} subgroups, by order:",
      dict(Counter(s.order for s in lattice)))

print("derived subgroup:", derived_subgroup(d8).members.tolist())
print("Frattini subgroup:", frattini(full_subgroup(d8)).members.tolist())

b = lattice[1]  # an order-2 subgroup
print(f"normalizer of {b.members.tolist()}:",
      normalizer(d8, b).members.tolist())

a5 = build_family("perm:(1 2 3 4 5),(1 2 3)")
print(f"\nA5 has {len(all_subgroups(a5))} subgroups;"
      f" one Sylow 2-subgroup: {sylow(a5, 2).members.tolist()}")

m = build_family("M2(2,2,1)")
print(f"\nM2(2,2,1): d(G) = {min_generators(full_subgroup(m))},"
      f" solutions of x^2 = 1: {involutions(m).size},"
      f" Frattini order = {frattini(full_subgroup(m)).order}")
