from __future__ import annotations

import hashlib
import tracemalloc

import numpy as np
import pytest

from pcl import codes, structure as st, theorems as th
from pcl.errors import PreconditionError, WrongClassifierError
from pcl.groups import Group
from pcl.specs import build_family

from conftest import (family_rows, foreign_subgroups, reference_abelian_sylow2,
                      reference_center, reference_criterion3_on_pair,
                      reference_family_match)


def test_abelian_classifier_examples():
    c4 = build_family("C(4)")
    assert not th.classify_abelian_2group(c4, st.subgroup_generated(c4, [2])).is_code
    ea = build_family("EA(2,3)")
    for S in st.all_subgroups(ea):
        assert th.classify_abelian_2group(ea, S).is_code
    g = build_family("C(4)xC(2)")
    H = st.subgroup_generated(g, [2])  # the C(4) factor
    assert H.order == 4
    out = th.classify_abelian_2group(g, H)
    assert out.is_code
    # H meet Phi(G) is exactly Phi(H) here
    phi_g = st.frattini(st.full_subgroup(g))
    assert (H.mask & phi_g.mask).tolist() == st.frattini(H).mask.tolist()


def test_abelian_classifier_rejects_wrong_groups():
    q8 = build_family("Q8")
    with pytest.raises(WrongClassifierError):
        th.classify_abelian_2group(q8, st.trivial_subgroup(q8))
    s3 = build_family("perm:(1 2 3),(1 2)")
    with pytest.raises(WrongClassifierError):
        th.classify_abelian_2group(s3, st.trivial_subgroup(s3))


def test_abelian_classifier_differential():
    for spec in ["C(8)", "C(4)xC(2)", "EA(2,3)", "C(16)", "C(8)xC(4)",
                 "C(4)xC(4)", "C(8)xC(2)xC(2)"]:
        g = build_family(spec)
        for S in st.all_subgroups(g):
            assert (th.classify_abelian_2group(g, S).is_code
                    == codes.criterion3(g, S).is_code), (spec, S.members)


def test_q8_admits_only_trivial_codes():
    q8 = build_family("Q8")
    for S in st.all_subgroups(q8):
        out = th.classify_a1_2group(q8, S)
        assert out.is_code == (S.is_trivial or S.is_full)


@pytest.mark.parametrize("spec", ["D(8)", "perm:(1 2 3 4),(1 3)", "SD(C(4);C(2);1->3)"])
def test_d8_klein_four_is_a_code(spec):
    # subgroups come from the lattice: only D(8) sets Group.witness
    d8 = build_family(spec)
    rec = st.recognize_a1_family(d8)
    assert (rec.tag, rec.params) == ("metacyclic", (2, 1))
    subs = st.all_subgroups(d8)
    assert len(subs) == 10
    noncyclic = [S for S in subs if not (S.is_cyclic or S.is_full)]
    assert len(noncyclic) == 2
    orders = d8.element_orders()
    for klein in noncyclic:
        assert klein.order == 4 and (orders[klein.members] <= 2).all()
        assert th.classify_a1_2group(d8, klein) == th.ClassificationOutcome(
            True, th.CLAUSE_KLEIN_D8, th.FamilyMatch("Z2xZ2 in D8", {}, klein.generators))
    for S in subs:
        assert th.classify(d8, S).is_code == (codes.find_inverse_closed_transversal(d8, S) is not None)
    center = reference_center(d8)
    assert center.order == 2 and not th.classify_a1_2group(d8, center).is_code


def test_a1_classifier_rejects_wrong_groups():
    # groups that are not 2-groups are turned away before any recognition runs
    for spec in ["D(20)", "perm:(1 2 3),(1 2)(3 4)", "C(8)xC(2)", "D(16)"]:
        g = build_family(spec)
        with pytest.raises(WrongClassifierError):
            th.classify_a1_2group(g, st.trivial_subgroup(g))


def test_nonsquare_generator_rule():
    # cyclic subgroups of minimal nonabelian 2-groups are codes exactly when
    # a generator avoids the squares
    for spec in ["D(8)", "M2(2,2)", "M2(3,1)", "M2(1,2,1)", "M2(2,2,1)"]:
        g = build_family(spec)
        sq = np.flatnonzero(g.square_mask)
        orders = g.element_orders()
        for S in st.all_subgroups(g):
            if not S.is_cyclic or S.is_trivial or S.is_full:
                continue
            gens = [int(x) for x in S.members if orders[x] == S.order]
            expected = any(x not in sq.tolist() for x in gens)
            assert th.classify_a1_2group(g, S).is_code == expected, (spec, S.members)


def test_squareness_constant_across_cyclic_generators():
    for spec in ["Q8", "D(8)", "M2(2,2)", "M2(1,2,1)", "M2(2,2,1)", "C(16)"]:
        g = build_family(spec)
        sq = set(np.flatnonzero(g.square_mask).tolist())
        orders = g.element_orders()
        for S in st.all_subgroups(g):
            gens = [int(x) for x in S.members if orders[x] == S.order]
            if gens:
                flags = {x in sq for x in gens}
                assert len(flags) == 1, (spec, S.members)


def test_match_theorem_family_examples():
    g = build_family("M2(1,2,1)")
    rec = st.recognize_a1_family(g)
    a, b, c = rec.witness
    H = st.subgroup_generated(g, [a, g.power(b, 2)])
    m = th._match_theorem_family(g, rec, H)
    assert m is not None and m.family == "<a c^s, b^2>" and m.params == {"s": 0}
    assert th._match_theorem_family(g, rec, st.subgroup_generated(g, [c])) is None

    g = build_family("M2(2,2,1)")
    rec = st.recognize_a1_family(g)
    a, b, c = rec.witness
    H = st.subgroup_generated(g, [g.mul(a, b), c])
    m = th._match_theorem_family(g, rec, H)
    assert m is not None
    assert m.family in ("<a^d b^t, c>", "<a^t b^d, c>")
    assert m.params in ({"d": 1, "t": 1}, {"t": 1, "d": 1})
    H2 = st.subgroup_generated(g, [g.mul(g.mul(a, b), c), g.mul(a, a)])
    m2 = th._match_theorem_family(g, rec, H2)
    assert m2 is not None and m2.family == "<a^t b^d c^s, a^2>"
    assert (m2.params["t"], m2.params["d"], m2.params["s"]) == (1, 1, 1)


def test_family_match_refuses_a_subgroup_of_another_group():
    # the shapes come from G's own recognition: M2(1,3,1)'s witnesses read
    # in a subgroup of M2(2,2,1) once gave a bare IndexError
    g, other = build_family("M2(1,3,1)"), build_family("M2(2,2,1)")
    a, b, c = st.recognize_a1_family(other).witness
    H = st.subgroup_generated(other, [other.mul(a, b), c])
    with pytest.raises(PreconditionError, match="different group"):
        th._match_theorem_family(g, st.recognize_a1_family(g), H)


def test_family_table_digest_is_pinned():
    # every candidate of the catalog's nonmetacyclic (n2, m2) pairs and four
    # larger ones, in enumeration order; the digest comes from the earlier
    # label-driven table
    pairs = [(n2, m2) for n2 in range(1, 4) for m2 in range(n2, 7 - n2) if n2 + m2 >= 3]
    pairs += [(1, 7), (2, 6), (3, 5), (4, 4)]
    digest, rows = hashlib.sha256(), 0
    for n2, m2 in pairs:
        for label, params, words in family_rows(n2, m2):
            row = repr((n2, m2, label, sorted(params.items()), words)) + "\n"
            digest.update(row.encode())
            rows += 1
    assert rows == 17870
    assert digest.hexdigest() == (
        "a4241dce24194a0d899b8445456c1b3417bfd793ea48609b6075675aeb04a1ac")


def test_family_candidates_of_m2_4_4_1_trace_under_1_mb():
    # each shape is one array of parameter values and one pair of generator
    # arrays, with no Python row per candidate: building the 3,216 candidates
    # traced 1.9 MB when each was a (label, params, words) row
    g = build_family("M2(4,4,1)")
    rec = st.recognize_a1_family(g)
    tracemalloc.start()
    try:
        th._build_family_candidates(g, rec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_family_match_equals_the_closure_reference(catalog):
    groups = [e.group for e in catalog
              if e.label.startswith("M2(") and e.label.count(",") == 2]
    assert len(groups) == 8
    for spec, count in [("M2(1,6,1)", 67), ("M2(2,5,1)", 131), ("M2(3,4,1)", 195)]:
        g = build_family(spec)
        assert len(st.all_subgroups(g)) == count
        groups.append(g)
    for g in groups:
        rec = st.recognize_a1_family(g)
        for S in st.all_subgroups(g):
            assert th._match_theorem_family(g, rec, S) == reference_family_match(rec, S), \
                (g.label, S.members.tolist())


def test_family_match_builds_no_closure(monkeypatch):
    g = build_family("M2(2,3,1)")
    rec = st.recognize_a1_family(g)
    subs = st.all_subgroups(g)
    expected = [reference_family_match(rec, S) for S in subs]
    assert sum(m is not None for m in expected) == 24

    def no_closure(self, elems):
        raise AssertionError(f"Group.closure was called on {self.label}")

    monkeypatch.setattr(Group, "closure", no_closure)
    assert [th._match_theorem_family(g, rec, S) for S in subs] == expected


def test_family_match_implies_code():
    # soundness: every matched subgroup really is a perfect code
    for spec in ["M2(1,2,1)", "M2(1,3,1)", "M2(2,2,1)", "M2(2,3,1)"]:
        g = build_family(spec)
        rec = st.recognize_a1_family(g)
        for S in st.all_subgroups(g):
            if S.is_cyclic or S.is_trivial or S.is_full:
                continue
            if th._match_theorem_family(g, rec, S) is not None:
                assert codes.criterion3(g, S).is_code, (spec, S.members)


def test_family_matcher_gap_is_exactly_the_central_q8_quotient_shape():
    """The classified shape lists miss some noncyclic codes; every miss has
    one verified shape: central, inside the squares-and-commutators subgroup,
    avoiding the central commutator c, with exactly two cosets squaring into
    the subgroup.  Each miss is confirmed a code by the exact oracle and the
    graph definition, and there are no misses in the other direction."""
    total_gaps = 0
    for spec in ["M2(1,2,1)", "M2(1,3,1)", "M2(1,4,1)", "M2(2,2,1)", "M2(2,3,1)"]:
        g = build_family(spec)
        rec = st.recognize_a1_family(g)
        c = rec.witness[2]
        for S in st.all_subgroups(g):
            if S.is_cyclic or S.is_trivial or S.is_full:
                continue
            matched = th._match_theorem_family(g, rec, S) is not None
            is_code = codes.criterion3(g, S).is_code
            if matched:
                assert is_code
                continue
            if not is_code:
                continue
            total_gaps += 1
            # verified counterexample shape
            assert S.issubset(reference_center(g))
            assert S.issubset(st.frattini(st.full_subgroup(g)))
            assert c not in S
            t = codes.find_inverse_closed_transversal(g, S)
            assert t is not None
            conn = codes.connection_set_from_transversal(g, S, t)
            assert codes.verify_perfect_code_in_cayley(g, conn, S)
            squares_into = sum(1 for x in range(g.order) if S.mask[g.squares[x]])
            assert squares_into == 2 * S.order  # two cosets, a quaternion quotient
    assert total_gaps == 2  # one in each family with n2 >= 2 at this size


def test_nonmetacyclic_theorem_misses_are_exactly_an_index_2_subgroup_of_frattini():
    """On every M2(n2,m2,1) up to order 256, the theorem route and the oracle
    disagree on no noncyclic proper subgroup when n2 = 1, and exactly on
    <b^2 c, a^2 c> when n2 >= 2.  That subgroup has index 2 in Phi(G), and
    no shape can match a subgroup of Phi(G): every shape has a generator
    outside it."""
    for n2 in range(1, 4):
        for m2 in range(max(n2, 3 - n2), 8 - n2):
            G = build_family(f"M2({n2},{m2},1)")
            disagree = set()
            for H in st.all_subgroups(G):
                if H.is_cyclic or H.is_full:
                    continue
                oracle = codes.find_inverse_closed_transversal(G, H) is not None
                if th.classify(G, H).is_code != oracle:
                    disagree.add(H)
            a, b, c = (G.witness[x] for x in "abc")
            words = [G.mul(G.power(b, 2), c), G.mul(G.power(a, 2), c)]
            expected = {st.subgroup_generated(G, words)} if n2 >= 2 else set()
            assert disagree == expected, (n2, m2)
            if n2 >= 2:
                (H,) = expected
                phi = st.frattini(st.full_subgroup(G))
                assert H.issubset(phi) and phi.order == 2 * H.order


def test_dihedral_rule_examples():
    d12 = build_family("D(12)")
    a = d12.witness["a"]
    assert th.dihedral_classify(d12, st.subgroup_generated(d12, [d12.power(a, 2)])).is_code
    d8 = build_family("D(8)")
    assert not th.dihedral_classify(d8, st.subgroup_generated(d8, [d8.power(d8.witness["a"], 2)])).is_code
    assert th.dihedral_classify(d8, st.subgroup_generated(d8, [d8.witness["b"]])).is_code
    q8 = build_family("Q8")
    with pytest.raises(WrongClassifierError):
        th.dihedral_classify(q8, st.trivial_subgroup(q8))


def test_dihedral_rule_differential():
    for order in [8, 10, 12, 16, 20, 24, 36]:
        g = build_family(f"D({order})")
        for S in st.all_subgroups(g):
            assert (th.dihedral_classify(g, S).is_code
                    == codes.criterion3(g, S).is_code), (order, S.members)


def test_abelian_sylow2_examples():
    a5 = build_family("perm:(1 2 3 4 5),(1 2 3)")
    subs = st.all_subgroups(a5)
    assert len(subs) == 59
    for S in subs:
        assert th.classify_abelian_sylow2(a5, S).is_code

    f20 = build_family("SD(C(5);C(4);1->2)")
    x = int(np.flatnonzero(f20.element_orders() == 4)[0])
    H = st.subgroup_generated(f20, [f20.mul(x, x)])
    assert not th.classify_abelian_sylow2(f20, H).is_code

    a4 = build_family("perm:(1 2 3),(1 2)(3 4)")
    for S in st.all_subgroups(a4):
        if S.order == 2:
            assert th.classify_abelian_sylow2(a4, S).is_code


def test_abelian_sylow2_rejects_wrong_groups():
    d8 = build_family("D(8)")
    with pytest.raises(WrongClassifierError):
        th.classify_abelian_sylow2(d8, st.trivial_subgroup(d8))
    odd = build_family("C(9)")
    with pytest.raises(WrongClassifierError):
        th.classify_abelian_sylow2(odd, st.trivial_subgroup(odd))


def test_abelian_sylow2_equals_the_sylow_of_g_form_where_that_applies():
    # on groups with an abelian Sylow 2-subgroup S, every S holding Q is a
    # conjugate of the reduced P by an element of N_G(Q), so both forms agree
    for spec in ["perm:(1 2 3),(1 2)", "perm:(1 2 3),(1 2)(3 4)",
                 "perm:(1 2 3 4 5),(1 2 3)", "SD(C(5);C(4);1->2)", "D(12)", "D(20)"]:
        g = build_family(spec)
        for S in st.all_subgroups(g):
            assert th.classify_abelian_sylow2(g, S) == reference_abelian_sylow2(g, S), \
                (spec, S.members.tolist())


def test_abelian_sylow2_applies_per_pair_in_a_nonabelian_2group():
    # in a 2-group the reduced pair is (H, N_G(H)), so the rule holds exactly
    # where the normalizer is abelian
    g = build_family("D(8)xC(2)")
    applies = 0
    for S in st.all_subgroups(g):
        if st.normalizer(g, S).is_abelian:
            out = th.classify_abelian_sylow2(g, S)
            assert out.clause == th.CLAUSE_SYLOW2
            assert out.is_code == codes.criterion3(g, S).is_code, S.members.tolist()
            applies += 1
        else:
            with pytest.raises(WrongClassifierError):
                th.classify_abelian_sylow2(g, S)
    assert applies == 16


# groups whose Sylow 2-subgroup is nonabelian and outside the direct classes,
# but where some pairs reduce to an abelian P
NONABELIAN_SYLOW_SPECS = [
    "perm:(1 2 3 4),(1 2)", "perm:(1 2 3 4),(1 2)xC(2)", "perm:(1 2 3 4 5),(1 2)",
    "C(3)xD(8)", "C(3)xQ8", "D(8)xC(2)", "D(16)xC(2)", "SD(C(8);C(2);1->3)",
    "D(8)xD(8)", "M2(2,2,1)xC(2)", "C(3)xM2(2,2,1)", "C(5)xM2(3,1)",
    "perm:(1 2 3 4),(1 2)xC(3)", "SD(C(7);C(3);1->2)xD(8)",
    "SD(C(4)xC(4);C(2);1->4,4->1)"]


def test_theorem_route_equals_the_oracle_on_reduced_abelian_pairs():
    verdicts, mismatches = 0, []
    for spec in NONABELIAN_SYLOW_SPECS:
        g = build_family(spec)
        for S in st.all_subgroups(g):
            out = th.classify(g, S)
            if out is None:
                continue
            verdicts += 1
            if out.is_code != (codes.find_inverse_closed_transversal(g, S) is not None):
                mismatches.append((spec, S.members.tolist(), out))
    assert mismatches == []
    assert verdicts >= 476


def test_sylow_choice_invariance_of_reduction():
    # the reduced verdict is the same for every conjugate Sylow choice
    specs = ["perm:(1 2 3),(1 2)", "perm:(1 2 3),(1 2)(3 4)", "D(12)",
             "SD(C(5);C(4);1->2)", "D(20)", "perm:(1 2 3 4 5),(1 2 3)"]
    for spec in specs:
        g = build_family(spec)
        lattice = st.all_subgroups(g)
        for H in lattice:
            part = 1
            while H.order % (part * 2) == 0:
                part *= 2
            verdicts = set()
            for Q in lattice:
                if Q.order != part or not Q.issubset(H):
                    continue
                n = st.normalizer(g, Q) if Q.order > 1 else st.full_subgroup(g)
                npart = 1
                while n.order % (npart * 2) == 0:
                    npart *= 2
                for P in lattice:
                    if (P.order == npart and P.issubset(n) and Q.issubset(P)):
                        verdicts.add(reference_criterion3_on_pair(P, Q).is_code)
            assert len(verdicts) == 1, (spec, H.members)
            assert verdicts == {codes.criterion3(g, H).is_code}


@pytest.mark.parametrize("rule", [th.classify, th.classify_abelian_2group,
                                  th.classify_a1_2group, th.dihedral_classify,
                                  th.classify_abelian_sylow2])
def test_classifiers_refuse_a_subgroup_of_another_group(rule):
    # the ownership rule comes before each classifier's own guard: D(8) is
    # no abelian 2-group, yet a foreign H is refused, not sent on
    d8 = build_family("D(8)")
    for H in foreign_subgroups():
        with pytest.raises(PreconditionError, match="different group"):
            rule(d8, H)
