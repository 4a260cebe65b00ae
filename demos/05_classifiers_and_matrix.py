"""Closed-form classifiers, differential testing, and the report matrix.

Run:  python demos/05_classifiers_and_matrix.py
"""

from pcl import (all_subgroups, build_family, classify_a1_2group,
                 classify_abelian_2group, criterion3, render_summary_table,
                 run_verification_matrix)

# Abelian 2-groups: H is a code iff H meets the Frattini subgroup of G
# inside its own Frattini subgroup.
g = build_family("C(8)xC(2)")
agree = all(classify_abelian_2group(g, H).is_code == criterion3(g, H).is_code
            for H in all_subgroups(g))
print(f"C(8)xC(2): Frattini rule agrees with the coset criterion: {agree}")

# Minimal nonabelian 2-groups: cyclic subgroups need a nonsquare generator,
# and noncyclic codes match an explicit list of two-generator shapes.
m = build_family("M2(1,2,1)")
for H in all_subgroups(m):
    out = classify_a1_2group(m, H)
    mark = "" if out.match is None else f"  shape {out.match.family} {out.match.params}"
    print(f"  |H|={H.order}  {H.members.tolist()!s:24s} code={out.is_code}"
          f" [{out.clause}]{mark}")

# The report matrix builds each (label, spec) entry, runs every method on
# every subgroup and flags any disagreement between them.
summary = run_verification_matrix([(s, s) for s in ["Q8", "D(8)", "C(4)xC(2)"]])
print()
print(render_summary_table(summary["rows"]))
