"""The perfect-code question reduces to 2-groups through Sylow subgroups.

For H <= G, take a Sylow 2-subgroup Q of H and a Sylow 2-subgroup P of the
normalizer of Q.  Then H is a perfect code of G exactly when Q is one of P.
Odd-order subgroups reduce to the trivial pair, so they are always codes.

Run:  python demos/04_sylow_reduction.py
"""

from pcl import (all_subgroups, build_family, criterion3, order4_witness,
                 subgroup_as_group, zhang_reduce)

f20 = build_family("SD(C(5);C(4);1->2)")
print("F20 subgroups and their reductions:")
for H in all_subgroups(f20):
    Q, P = zhang_reduce(f20, H)
    full = criterion3(f20, H).is_code
    group, (inner,) = subgroup_as_group(P, Q)  # Q inside P, re-indexed
    reduced = criterion3(group, inner).is_code
    assert full == reduced
    print(f"  |H|={H.order:2d}  ->  |Q|={Q.order}  |P|={P.order}   code={full}")

for spec in ["perm:(1 2 3),(1 2)", "C(4)", "SD(C(7);C(3);1->2)", "Q8"]:
    g = build_family(spec)
    witness = order4_witness(g)
    print(f"\n{g.label}: code-perfect (no order-4 element) = {witness is None}")
