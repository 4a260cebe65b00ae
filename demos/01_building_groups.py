"""Build finite groups from the spec mini-language and inspect them.

Run:  python demos/01_building_groups.py
"""

from pcl import build_family, involutions

# Family atoms, direct products, semidirect products and permutation
# generators all share one textual syntax.
for spec in [
    "C(12)",                      # cyclic
    "EA(2,3)",                    # elementary abelian 2^3
    "D(16)",                      # dihedral of order 16
    "Q8",                         # quaternion
    "M2(3,2)",                    # metacyclic minimal nonabelian, order 32
    "M2(2,2,1)",                  # nonmetacyclic minimal nonabelian, order 32
    "C(4)xC(2)",                  # direct product
    "SD(C(5);C(4);1->2)",         # Frobenius group of order 20
    "perm:(1 2 3 4 5),(1 2 3)",   # alternating group on 5 points
]:
    g = build_family(spec)
    invs = len(involutions(g)) - 1  # solutions of x^2 = 1 other than 1
    print(f"{spec:28s} order {g.order:3d}   abelian={g.is_abelian!s:5s} "
          f"involutions={invs}")

# Presentation families fix a canonical enumeration, so the presentation
# generators are real element indices.
m = build_family("M2(2,1)")
a, b = m.witness["a"], m.witness["b"]
print(f"\nIn M2(2,1): o(a) = {m.element_order(a)}, o(b) = {m.element_order(b)},"
      f" b^-1 a b = a^{ [m.power(a, k) for k in range(4)].index(int(m.conjugates([a], [b])[0, 0])) }")
