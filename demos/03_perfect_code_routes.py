"""Decide perfect-code status along all four independent routes.

A subgroup H of G is a perfect code when some Cayley graph of G has H as an
independent set whose closed neighbourhoods tile the vertices.  The routes:

* coset criteria (criterion3, criterion4),
* an exact search for an inverse-closed transversal,
* an explicit connection set checked against the raw graph definition.

Run:  python demos/03_perfect_code_routes.py
"""

from pcl import (build_family, connection_set_from_transversal, criterion3,
                 criterion4, exhaustive_connection_set_search,
                 find_inverse_closed_transversal, subgroup_generated,
                 verify_perfect_code_in_cayley)

# The square subgroup of C(4) is the classic non-example.
c4 = build_family("C(4)")
center = subgroup_generated(c4, [2])
print("C(4), H = {1, g^2}:")
print("  criterion3:", criterion3(c4, center).is_code)
print("  criterion4:", criterion4(c4, center).is_code)
print("  transversal:", find_inverse_closed_transversal(c4, center))
print("  exhaustive sweep over connection sets:",
      exhaustive_connection_set_search(c4, center))

# A reflection subgroup of D(8) is a code, with an explicit witness.
d8 = build_family("D(8)")
refl = subgroup_generated(d8, [d8.witness["b"]])
t = find_inverse_closed_transversal(d8, refl)
print("\nD(8), H = <b>:")
print("  inverse-closed transversal:", t.tolist())
s = connection_set_from_transversal(d8, refl, t)
print("  connection set:", s.members.tolist())
print("  graph definition check:", verify_perfect_code_in_cayley(d8, s, refl))
