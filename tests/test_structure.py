from __future__ import annotations

import numpy as np
import pytest

from pcl import structure as st
from pcl.errors import PreconditionError
from pcl.specs import build_family

from conftest import (abelian_rank, assert_generators_match_references,
                      assert_structure_matches_references,
                      assert_witnesses_match_references,
                      brute_force_min_generators, brute_force_subgroups,
                      join_closure_subgroups, reference_commutators,
                      reference_greedy_generators, reference_prime_power_table,
                      reference_squares_set)


@pytest.fixture(scope="module")
def d8():
    return build_family("D(8)")


@pytest.fixture(scope="module")
def q8():
    return build_family("Q8")


def test_subgroup_generated_trivial_cases(d8):
    triv = st.subgroup_generated(d8, [])
    assert triv.order == 1 and triv.members.tolist() == [0]
    a = d8.witness["a"]
    sq = st.subgroup_generated(d8, [d8.power(a, 2)])
    assert sq.order == 2
    whole = st.subgroup_generated(d8, [a, d8.witness["b"]])
    assert whole.is_full


def test_subgroup_invariants(d8):
    for S in st.all_subgroups(d8):
        assert 0 in S
        assert d8.order % S.order == 0  # Lagrange
        sub = d8.mult[np.ix_(S.members, S.members)]
        assert set(np.unique(sub).tolist()) <= set(S.members.tolist())
        assert set(d8.inv[S.members].tolist()) == set(S.members.tolist())
        regen = st.subgroup_generated(d8, S.generators)
        assert regen == S


@pytest.mark.parametrize("spec,count", [("Q8", 6), ("D(8)", 10), ("EA(2,2)", 5)])
def test_subgroup_counts_against_subset_bruteforce(spec, count):
    g = build_family(spec)
    subs = st.all_subgroups(g)
    assert len(subs) == count
    brute = brute_force_subgroups(g)
    assert {frozenset(s.members.tolist()) for s in subs} == set(brute)


def test_lattice_matches_join_closure_on_catalog(catalog):
    small = [e for e in catalog if e.group.order <= 32]
    assert len(small) > 40
    for entry in small:
        G = entry.group
        subs = st.all_subgroups(G)
        reference = join_closure_subgroups(G)
        assert len(subs) == len(reference), entry.label
        assert {tuple(S.members.tolist()) for S in subs} == reference, entry.label


@pytest.mark.parametrize("spec,count,solvable", [
    ("C(1)", 1, True),
    ("perm:(1 2 3 4),(1 2)", 30, True),        # S4
    ("perm:(1 2 3 4 5),(1 2 3)", 59, False),   # A5, through the join pass
    ("perm:(1 2 3 4 5),(1 2)", 156, False),    # S5, through the join pass
])
def test_symmetric_and_alternating_subgroup_counts(spec, count, solvable):
    G = build_family(spec)
    subs = st.all_subgroups(G)
    assert len(subs) == count
    assert st._is_solvable(G) == solvable
    if G.order <= 60:
        assert {tuple(S.members.tolist()) for S in subs} == join_closure_subgroups(G)


def test_lattice_generators_are_canonical():
    for spec in ["D(8)", "Q8", "M2(2,2,1)", "C(4)xC(2)", "D(12)",
                 "perm:(1 2 3 4 5),(1 2 3)", "SD(C(5);C(4);1->2)"]:
        G = build_family(spec)
        for S in st.all_subgroups(G):
            assert S.generators == reference_greedy_generators(G, S.members), spec
            assert st.subgroup_generated(G, S.generators) == S


def test_generators_match_the_references_on_catalog(catalog):
    for entry in catalog:
        assert_generators_match_references(entry.group)


@pytest.mark.parametrize("spec", ["D(512)", "M2(3,4,1)"])
def test_generators_match_the_references_on_larger_groups(spec):
    assert_generators_match_references(build_family(spec))


def test_all_subgroups_sorted_and_deduplicated(q8):
    subs = st.all_subgroups(q8)
    keys = [s.sort_key() for s in subs]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_frattini_examples(q8):
    c4 = build_family("C(4)")
    phi = st.frattini(st.full_subgroup(c4))
    assert phi.members.tolist() == [0, 2]
    ea = build_family("EA(2,3)")
    assert st.frattini(st.full_subgroup(ea)).is_trivial
    phi_q8 = st.frattini(st.full_subgroup(q8))
    assert phi_q8.order == 2
    maxes = st.maximal_subgroups(st.full_subgroup(q8))
    assert [m.order for m in maxes] == [4, 4, 4]
    expected = maxes[0].mask & maxes[1].mask & maxes[2].mask
    assert np.array_equal(phi_q8.mask, expected)
    triv = st.trivial_subgroup(q8)
    assert st.frattini(triv) == triv
    with pytest.raises(PreconditionError):
        st.frattini(st.full_subgroup(build_family("perm:(1 2 3),(1 2)")))


def test_derived_and_center(d8, q8):
    for g in [build_family("C(12)"), build_family("EA(2,3)")]:
        assert st.derived_subgroup(g).is_trivial
    m = build_family("M2(2,2,1)")
    der = st.derived_subgroup(m)
    assert der.order == 2 and m.witness["c"] in der
    assert st.center(d8).order == 2
    assert st.center(q8).order == 2
    s3 = build_family("perm:(1 2 3),(1 2)")
    assert st.center(s3).is_trivial


def test_normalizer_by_conjugation_scan(d8):
    b = st.subgroup_generated(d8, [d8.witness["b"]])
    nz = st.normalizer(d8, b)
    # independent scan: x normalizes iff conjugating every member stays inside
    expected = [x for x in range(d8.order)
                if all(d8.conjugate(h, x) in b for h in b.members.tolist())]
    assert nz.members.tolist() == expected
    assert nz.order == 4
    a2 = d8.power(d8.witness["a"], 2)
    assert a2 in nz and d8.witness["b"] in nz
    # H <= N_G(H), and the normalizer is a subgroup
    for S in st.all_subgroups(d8):
        assert S.issubset(st.normalizer(d8, S))


def test_sylow_examples():
    s3 = build_family("perm:(1 2 3),(1 2)")
    assert st.sylow(s3, 2).order == 2
    assert st.sylow(s3, 5).is_trivial
    a4 = build_family("perm:(1 2 3),(1 2)(3 4)")
    v4 = st.sylow(a4, 2)
    assert v4.order == 4
    assert st.normalizer(a4, v4).is_full  # unique, hence normal
    with pytest.raises(PreconditionError):
        st.sylow(s3, 4)


def test_sylow_containing(d8):
    a4 = build_family("perm:(1 2 3),(1 2)(3 4)")
    two = next(S for S in st.all_subgroups(a4) if S.order == 2)
    p = st.sylow_containing(a4, 2, two)
    assert p.order == 4 and two.issubset(p)
    triv = st.trivial_subgroup(a4)
    assert st.sylow_containing(a4, 2, triv) == st.sylow(a4, 2)
    b = st.subgroup_generated(d8, [d8.witness["b"]])
    assert st.sylow_containing(d8, 2, b).is_full
    three = next(S for S in st.all_subgroups(a4) if S.order == 3)
    with pytest.raises(PreconditionError):
        st.sylow_containing(a4, 2, three)


def test_involutions_and_omega1():
    q8 = build_family("Q8")
    assert st.involutions(q8).size == 2  # identity and the unique involution
    assert 0 in st.involutions(q8).tolist()
    for n1, m1 in [(2, 2), (3, 1), (3, 2), (2, 3)]:
        g = build_family(f"M2({n1},{m1})")
        om = st.omega1(g)
        assert om.order == 4
        assert (g.element_orders()[om.members] <= 2).all()
    for n2, m2 in [(1, 2), (2, 2), (2, 3)]:
        g = build_family(f"M2({n2},{m2},1)")
        om = st.omega1(g)
        assert om.order == 8
        assert (g.element_orders()[om.members] <= 2).all()


def test_squares_and_is_square():
    g = build_family("M2(2,2,1)")
    assert not g.square_mask[g.witness["c"]] and g.square_mask[0]
    c4 = build_family("C(4)")
    assert np.flatnonzero(c4.square_mask).tolist() == [0, 2]


def test_index_sets_match_the_np_unique_references_on_catalog(catalog):
    small = [e.group for e in catalog if e.group.order <= 64]
    assert len(small) > 60
    for G in small:
        squares = reference_squares_set(G)
        assert np.flatnonzero(G.square_mask).tolist() == squares.tolist(), G.label
        for got, want in zip(st._prime_power_table(G), reference_prime_power_table(G)):
            assert np.array_equal(got, want), G.label
        subgroups = st.all_subgroups(G) if G.order <= 16 else [st.full_subgroup(G)]
        for H in subgroups:
            assert np.array_equal(st._commutators(G, H.members),
                                  reference_commutators(G, H.members)), G.label


def test_min_generators_against_bruteforce():
    cases = ["C(8)", "Q8", "EA(2,3)", "C(4)xC(2)", "D(8)", "M2(1,2,1)",
             "perm:(1 2 3),(1 2)", "SD(C(5);C(4);1->2)"]
    for spec in cases:
        g = build_family(spec)
        H = st.full_subgroup(g)
        assert st.min_generators(H) == brute_force_min_generators(H), spec
    assert st.min_generators(st.trivial_subgroup(build_family("C(4)"))) == 0


def test_min_generators_examples():
    assert st.min_generators(st.full_subgroup(build_family("C(8)"))) == 1
    assert st.min_generators(st.full_subgroup(build_family("Q8"))) == 2
    assert st.min_generators(st.full_subgroup(build_family("EA(2,3)"))) == 3


def test_is_minimal_nonabelian():
    assert st.is_minimal_nonabelian(build_family("Q8"))
    assert st.is_minimal_nonabelian(build_family("D(8)"))
    assert not st.is_minimal_nonabelian(build_family("C(4)xC(2)"))
    assert not st.is_minimal_nonabelian(build_family("D(16)"))
    # the minimal nonabelian 2-group test agrees with d(G)=2 and |G'|=2
    for spec in ["Q8", "D(8)", "M2(2,2)", "M2(1,2,1)", "M2(2,2,1)", "D(16)",
                 "C(4)xC(4)", "EA(2,3)"]:
        g = build_family(spec)
        expected = (st.min_generators(st.full_subgroup(g)) == 2
                    and st.derived_subgroup(g).order == 2)
        assert st.is_minimal_nonabelian(g) == expected, spec
    with pytest.raises(PreconditionError):
        st.is_minimal_nonabelian(build_family("perm:(1 2 3),(1 2)"))


def test_structural_subgroups_match_the_lattice_references_on_catalog(catalog):
    small = [e for e in catalog if e.group.order <= 64]
    assert len(small) > 60
    for entry in small:
        assert_structure_matches_references(entry.group)


def test_recognize_a1_family_recovers_parameters():
    for n1 in range(2, 5):
        for m1 in range(1, 4):
            g = build_family(f"M2({n1},{m1})")
            rec = st.recognize_a1_family(g)
            assert rec.tag == "metacyclic" and rec.params == (n1, m1)
            a, b = rec.witness
            assert g.element_order(a) == 2 ** n1
            assert g.element_order(b) == 2 ** m1
            conj = g.mult[g.mult[g.inv[b], a], b]
            assert conj == g.power(a, 1 + 2 ** (n1 - 1))
            assert g.closure([a, b]).size == g.order
    for n2, m2 in [(1, 2), (1, 3), (2, 2), (2, 3)]:
        g = build_family(f"M2({n2},{m2},1)")
        rec = st.recognize_a1_family(g)
        assert rec.tag == "nonmetacyclic" and rec.params == (n2, m2)
        a, b, c = rec.witness
        assert g.commutator(a, b) == c and g.mul(c, c) == 0
        assert g.closure([a, b]).size == g.order


def test_recognize_a1_family_order_eight_and_outsiders():
    assert st.recognize_a1_family(build_family("Q8")).tag == "q8"
    rec = st.recognize_a1_family(build_family("D(8)"))
    assert rec.tag == "metacyclic" and rec.params == (2, 1)
    assert st.recognize_a1_family(build_family("EA(2,4)")).tag == "abelian"
    assert st.recognize_a1_family(build_family("D(16)")).tag == "not_a1_or_a0"
    with pytest.raises(PreconditionError):
        st.recognize_a1_family(build_family("perm:(1 2 3),(1 2)"))


def test_witnesses_match_the_reference_finders_on_the_catalog(catalog):
    groups = [entry.group for entry in catalog
              if entry.group.order % 2 == 0 or st._is_2group(entry.group)]
    assert sum(st._is_2group(G) for G in groups) > 50
    for G in groups:
        assert_witnesses_match_references(G)


@pytest.mark.parametrize("spec", ["D(2)", "D(4)", "D(256)", "D(512)", "C(2)",
                                  "EA(2,2)", "EA(2,7)", "C(8)xC(2)"])
def test_witnesses_match_the_reference_finders_beyond_the_catalog(spec):
    assert_witnesses_match_references(build_family(spec))


def test_burnside_basis_against_independent_rank():
    # |H / frattini(H)| = 2^d(H) with d computed without the lattice
    for spec in ["C(16)", "C(8)xC(2)", "C(4)xC(4)", "EA(2,4)", "C(4)xC(2)xC(2)"]:
        g = build_family(spec)
        for H in st.all_subgroups(g):
            quotient = H.order // st.frattini(H).order
            assert quotient == 2 ** abelian_rank(H), (spec, H.members.tolist())


def test_frattini_equals_squares_for_abelian_2groups():
    for spec in ["C(8)", "C(4)xC(2)", "EA(2,3)", "C(8)xC(4)"]:
        g = build_family(spec)
        phi = st.frattini(st.full_subgroup(g))
        assert phi.members.tolist() == np.flatnonzero(g.square_mask).tolist(), spec


def test_frattini_is_generated_by_squares_in_2groups():
    for spec in ["Q8", "D(8)", "D(16)", "M2(2,2)", "M2(1,2,1)", "M2(2,2,1)",
                 "C(4)xC(4)", "EA(2,4)"]:
        g = build_family(spec)
        phi = st.frattini(st.full_subgroup(g))
        squares = st.subgroup_generated(g, np.flatnonzero(g.square_mask).tolist())
        assert phi == squares, spec


def test_frattini_matches_derived_times_power_subgroup():
    # p-group identity: Phi(G) equals the set product of G' and <x^p>
    # SD(EA(3,2);C(3);1->1,3->4) is the Heisenberg group of order 27: exponent
    # 3 and |Phi| = 3, so Phi is not generated by p-th powers alone
    for spec in ["Q8", "D(8)", "D(16)", "M2(2,2)", "M2(1,2,1)", "C(8)xC(2)",
                 "EA(3,2)", "C(9)", "SD(EA(3,2);C(3);1->1,3->4)"]:
        g = build_family(spec)
        p = 2 if g.order % 2 == 0 else 3
        derived = st.derived_subgroup(g)
        powers = st.subgroup_generated(g, [g.power(x, p) for x in range(g.order)])
        product = np.unique(g.mult[np.ix_(derived.members, powers.members)])
        phi = st.frattini(st.full_subgroup(g))
        assert product.tolist() == phi.members.tolist(), spec


def test_subgroup_as_group_restriction():
    a4 = build_family("perm:(1 2 3),(1 2)(3 4)")
    v4 = st.sylow(a4, 2)
    two = next(S for S in st.all_subgroups(a4) if S.order == 2)
    group, (mapped,) = st.subgroup_as_group(v4, two)
    group.check_axioms()
    assert group.order == 4 and mapped.order == 2
    with pytest.raises(PreconditionError):
        st.subgroup_as_group(two, v4)


# isomorphic copies of the minimal nonabelian families and two near misses;
# the expected values come from the earlier abelianization-type recognition
A1_COPIES = [
    ("SD(C(8);C(2);1->5)", "metacyclic", (3, 1), (2, 1)),
    ("SD(C(16);C(4);1->9)", "metacyclic", (4, 2), (4, 1)),
    ("SD(C(8);C(4);1->5)", "metacyclic", (3, 2), (4, 1)),
    ("SD(C(4)xC(2);C(2);2->3,1->1)", "nonmetacyclic", (1, 2), (1, 4, 2)),
    ("SD(EA(2,2);C(4);1->2,2->1)", "nonmetacyclic", (1, 2), (4, 1, 12)),
    ("SD(C(4)xC(2);C(4);2->3,1->1)", "nonmetacyclic", (2, 2), (1, 8, 4)),
    ("SD(C(8)xC(2);C(4);2->3,1->1)", "nonmetacyclic", (2, 3), (1, 8, 4)),
    ("perm:(1 2 3 4),(1 3)", "metacyclic", (2, 1), (1, 2)),
    ("SD(C(8);C(2);1->3)", "not_a1_or_a0", None, ()),
    ("Q8xC(2)", "not_a1_or_a0", None, ()),
]


@pytest.mark.parametrize("spec, tag, params, witness", A1_COPIES)
def test_a1_recognition_of_isomorphic_copies(spec, tag, params, witness):
    rec = st.recognize_a1_family(build_family(spec))
    assert (rec.tag, rec.params, rec.witness) == (tag, params, witness)


def test_sylow_requires_a_prime():
    g = build_family("C(12)")
    with pytest.raises(PreconditionError, match="^sylow requires a prime, got 4$"):
        st.sylow(g, 4)
    with pytest.raises(PreconditionError,
                       match="^sylow_containing requires a prime, got 1$"):
        st.sylow_containing(g, 1, st.trivial_subgroup(g))
