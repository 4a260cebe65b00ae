from __future__ import annotations

import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from pcl import codes, structure as st
from pcl.errors import PreconditionError, SizeLimitError
from pcl.groups import Group, prime_power
from pcl.specs import build_family
from pcl.theorems import _squares

from conftest import (abelian_rank, assert_generators_match_references,
                      assert_structure_matches_references,
                      assert_witnesses_match_references,
                      brute_force_min_generators, brute_force_subgroups,
                      foreign_subgroups,
                      join_closure_subgroups, reference_center,
                      reference_cyclic_extensions,
                      reference_derived_subgroup,
                      reference_frattini, reference_greedy_generators,
                      reference_is_abelian, reference_join_completion,
                      reference_normalizer, reference_omega1,
                      reference_prime_power_table, reference_squares_set,
                      reference_sylow_growth)


def _route_sweep_specs() -> list[str]:
    """The specs of the benchmark's route-sweep groups, read from
    ``pclbench/workloads.py`` by path."""
    path = Path(__file__).resolve().parents[1] / "pclbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("pclbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [spec for _, spec in module.ROUTE_SWEEP]


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


@pytest.mark.parametrize("g", [-1, 8, 2 ** 40])
def test_subgroup_generated_refuses_a_generator_out_of_range(g):
    # unchecked, -1 read the last row of the table and gave all of C(8), and
    # 8 and 2^40 raised a bare IndexError
    with pytest.raises(PreconditionError, match=f"^subgroup generator {g} out of range$"):
        st.subgroup_generated(build_family("C(8)"), [1, g])


@pytest.mark.parametrize("spec, count", [("EA(2,5)", 374), ("perm:(1 2 3 4 5),(1 2 3)", 59)])
def test_lattice_past_its_mask_budget_raises_size_limit(spec, count, monkeypatch):
    # a budget of one byte less than the lattice's masks refuses it, and one
    # of exactly those bytes does not; cyclic extension finds 58 of A5's 59
    # subgroups, so there the join pass must count too
    G = build_family(spec)
    budget = count * G.order
    monkeypatch.setattr(st, "LATTICE_MASK_BYTES", budget - 1)
    with pytest.raises(SizeLimitError, match=f"holds more than {budget - 1:,} bytes"):
        st.all_subgroups(G)
    monkeypatch.setattr(st, "LATTICE_MASK_BYTES", budget)
    assert len(st.all_subgroups(G)) == count


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
    ("SD(Q8;C(3);1->2,2->3)", 15, True),       # SL(2,3)
    ("perm:(1 2 3 4 5),(1 2 3),(6 7)", 164, False),      # A5xC2
    ("perm:(1 2 3 4 5 6 7),(1 2)(3 6)", 179, False),     # PSL(2,7)
    ("perm:(1 2 3 4 5),(4 5 6)", 501, False),            # A6
    ("perm:(1 2 3 4 5),(1 2 3),(6 7 8)", 148, False),    # A5xC3
    ("perm:(1 2 3 4 5),(1 2),(6 7)", 535, False),        # S5xC2
])
def test_symmetric_and_alternating_subgroup_counts(spec, count, solvable):
    G = build_family(spec)
    subs = st.all_subgroups(G)
    assert len(subs) == count
    # cyclic extension reaches the whole group exactly when it is solvable
    masks = st._cyclic_extensions(G)
    assert any(0 not in m for m in masks) == solvable
    if not solvable:
        # joining with every cyclic subgroup finds nothing more than joining
        # with those of prime-power order
        assert {S.mask.tobytes() for S in subs} == set(reference_join_completion(G, masks))
    if G.order <= 60:
        assert {tuple(S.members.tolist()) for S in subs} == join_closure_subgroups(G)


@pytest.mark.parametrize("spec", [
    "perm:(1 2 3 4),(1 2)", "perm:(1 2 3 4 5),(1 2 3)", "perm:(1 2 3 4 5),(1 2)",
    "D(12)", "SD(C(5);C(4);1->2)"])
def test_lattice_needs_no_derived_subgroup(spec, monkeypatch):
    def refuse(G):
        raise AssertionError("the lattice read the derived subgroup")
    monkeypatch.setattr(st, "derived_subgroup", refuse)
    G = build_family(spec)
    subs = st.all_subgroups(G)
    assert {tuple(S.members.tolist()) for S in subs} == join_closure_subgroups(G)


@pytest.mark.parametrize("spec", ["D(1024)", "M2(5,5)", "M2(4,5,1)"])
def test_order_1024_lattice_peak_under_10_mb(spec, monkeypatch):
    # the lattice reads the conjugates it tests from the 4 MB table on
    # demand, and builds no |G|^2 table of them
    monkeypatch.setenv("PCL_MAX_ORDER", "1024")
    G = build_family(spec)
    G.element_orders()
    tracemalloc.start()
    try:
        st.all_subgroups(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 << 20, (spec, peak)


def test_order_2048_lattice_peak_under_7_mb(monkeypatch):
    # cyclic extension dedups each layer by its own dict of mask bytes,
    # dropped once the layer is made: 5.5 MB, where the one dict over every
    # layer, 2 KB of key per subgroup, traced 8.9 MB
    monkeypatch.setenv("PCL_MAX_ORDER", "2048")
    G = build_family("D(2048)")
    G.element_orders()
    tracemalloc.start()
    try:
        st.all_subgroups(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 << 20, peak


def test_cyclic_extension_holds_each_mask_once(monkeypatch):
    # a held mask is one bytes object, the layer's dict key, with no ndarray
    # or tuple beside it: 1.52x the bytes the budget counts, where an array
    # beside each key traced 2.24x; the memos are filled by a first run
    G = build_family("C(4)xC(4)xC(2)xC(2)xC(2)")
    assert len(st._cyclic_extensions(G)) == 1500
    most = [0]
    check = st._check_mask_budget

    def counting(G, count):  # keeps one count, so the spy adds nothing traced
        most[0] = max(most[0], count)
        check(G, count)

    monkeypatch.setattr(st, "_check_mask_budget", counting)
    tracemalloc.start()
    try:
        st._cyclic_extensions(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * most[0] * G.order, (peak, most[0] * G.order)


@pytest.mark.parametrize("spec", list(dict.fromkeys(_route_sweep_specs() + [
    "D(128)", "M2(3,3,1)", "C(4)xC(4)xC(2)xC(2)xC(2)", "SD(C(7);C(3);1->2)xC(3)",
    "SD(Q8;C(3);1->2,2->3)", "perm:(1 2 3 4),(1 2)", "perm:(1 2 3 4 5),(1 2 3)",
    "perm:(1 2 3 4 5),(1 2)", "D(2048)", "M2(5,5,1)", "C(32)xC(16)xC(4)"])))
def test_cyclic_extension_matches_the_per_subgroup_loop(spec, monkeypatch):
    # the same masks as growing one subgroup at a time; join_closure_subgroups
    # reaches only order 60, so this is the check on the larger lattices.  At
    # order 2048 a block of 16 subgroups spans 32 KB, and D(2048)'s trivial
    # subgroup grows by its 1,025 involutions one round each
    monkeypatch.setenv("PCL_MAX_ORDER", "2048")
    G = build_family(spec)
    masks = st._cyclic_extensions(G)
    assert len(set(masks)) == len(masks)
    assert set(masks) == set(reference_cyclic_extensions(G))


def test_mask_budget_is_counted_within_a_layer(monkeypatch):
    # EA(2,6)'s layers hold 1, 63, 651 and 1,395 masks.  A budget of its
    # first three layers plus 100 must stop layer 3 while it is grown: a
    # count made only at the end of each layer would first see 715 + 1,395
    G = build_family("EA(2,6)")
    budget = (1 + 63 + 651 + 100) * G.order
    most = [0]
    check = st._check_mask_budget

    def counting(G, count):
        most[0] = max(most[0], count)
        check(G, count)

    monkeypatch.setattr(st, "LATTICE_MASK_BYTES", budget)
    monkeypatch.setattr(st, "_check_mask_budget", counting)
    with pytest.raises(SizeLimitError, match=f"holds more than {budget:,} bytes"):
        st._cyclic_extensions(G)
    assert budget < most[0] * G.order and most[0] < 715 + 1395, most[0]


@pytest.mark.parametrize("spec,joined", [
    ("perm:(1 2 3 4 5),(1 2 3)", True),    # A5
    ("perm:(1 2 3 4 5),(1 2)", True),      # S5
    ("perm:(1 2 3 4),(1 2)", False),       # S4
    ("perm:(1 2 3),(1 2)(3 4)", False),    # A4
    ("SD(Q8;C(3);1->2,2->3)", False),      # SL(2,3)
    ("SD(C(7);C(3);1->2)", False),         # C7:C3
    ("C(1)", False),
])
def test_join_pass_runs_exactly_when_the_last_layer_is_not_the_group(spec, joined, monkeypatch):
    calls = []
    join = st._join_completion
    monkeypatch.setattr(st, "_join_completion", lambda G, masks: calls.append(G) or join(G, masks))
    st.all_subgroups(build_family(spec))
    assert len(calls) == joined


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


@pytest.mark.parametrize("spec", [
    "Q8", "D(24)", "perm:(1 2 3 4),(1 2)", "perm:(1 2 3 4 5),(1 2 3)",
    "perm:(1 2 3 4 5),(1 2)", "EA(2,5)", "M2(2,2,1)", "C(8)xC(4)xC(2)"])
def test_all_subgroups_sorted_and_deduplicated(spec):
    # S4, A5 and S5 by their permutations; A5 and S5 take the join pass
    subs = st.all_subgroups(build_family(spec))
    keys = [(s.order, tuple(s.members.tolist())) for s in subs]
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
    assert reference_center(d8).order == 2
    assert reference_center(q8).order == 2
    s3 = build_family("perm:(1 2 3),(1 2)")
    assert reference_center(s3).is_trivial


DERIVED_SPECS = ["D(64)", "M2(3,3,1)", "M2(5,5,1)", "perm:(1 2 3 4),(1 2)",
                 "perm:(1 2 3 4 5),(1 2)", "perm:(1 2 3 4 5),(1 2 3)",
                 "SD(Q8;C(3);1->2,2->3)", "D(8)xD(8)", "Q8", "C(1)"]


@pytest.mark.parametrize("spec", DERIVED_SPECS)
def test_derived_subgroup_matches_all_commutators(spec, monkeypatch):
    # S4, S5, A5 and SL(2,3) among them, so G' is neither trivial nor G alone
    monkeypatch.setenv("PCL_MAX_ORDER", "2048")
    G = build_family(spec)
    assert st.derived_subgroup(G) == reference_derived_subgroup(G), spec


@pytest.mark.parametrize("spec", ["D(1024)", "M2(5,5)", "M2(4,5,1)"])
def test_order_1024_derived_subgroup_peak_under_1_mb(spec, monkeypatch):
    # the normal closure holds one subgroup mask and its members, never a
    # |G|^2 array of commutators
    monkeypatch.setenv("PCL_MAX_ORDER", "1024")
    G = build_family(spec)
    tracemalloc.start()
    try:
        st.derived_subgroup(G)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20, (spec, peak)


def test_is_abelian_from_generators_matches_the_table_symmetry(catalog):
    # one commutation test on the generators, for the group from its greedy
    # generators on a fresh Group, and for every subgroup from its canonical
    # ones: the catalog groups of order <= 64, S4, SL(2,3), D(8)xD(8),
    # Q8xC(2) and EA(3,3)
    groups = [e.group for e in catalog if e.group.order <= 64] + [build_family(spec) for spec in [
        "perm:(1 2 3 4),(1 2)", "SD(Q8;C(3);1->2,2->3)", "D(8)xD(8)", "Q8xC(2)", "EA(3,3)"]]
    counts = {True: 0, False: 0}
    for G in groups:
        fresh = Group(G.mult)
        assert fresh.is_abelian == reference_is_abelian(G, np.arange(G.order)), G.label
        for H in st.all_subgroups(G):
            assert H.is_abelian == reference_is_abelian(G, H.members), (G.label, H.members.tolist())
            counts[H.is_abelian] += 1
    assert min(counts.values()) > 100, counts


def test_subgroup_is_abelian_reads_the_generators_block_only(monkeypatch):
    # D(2048)'s order-1024 rotations: the 1 x 1 block of the generator, not
    # the |H| x |H| sub-table, 3.0 MB traced when that was gathered
    monkeypatch.setenv("PCL_MAX_ORDER", "2048")
    G = build_family("D(2048)")
    rotations = st.subgroup_generated(G, [G.witness["a"]])
    assert rotations.order == 1024 and len(rotations.generators) == 1
    tracemalloc.start()
    try:
        assert rotations.is_abelian
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.5 * (1 << 20), peak


def test_normalizer_by_conjugation_scan(d8):
    b = st.subgroup_generated(d8, [d8.witness["b"]])
    nz = st.normalizer(d8, b)
    # independent scan: x normalizes iff conjugating every member stays inside
    expected = [x for x in range(d8.order)
                if all(int(d8.conjugates([h], [x])[0, 0]) in b for h in b.members.tolist())]
    assert nz.members.tolist() == expected
    assert nz.order == 4
    a2 = d8.power(d8.witness["a"], 2)
    assert a2 in nz and d8.witness["b"] in nz
    # H <= N_G(H), and the normalizer is a subgroup
    for S in st.all_subgroups(d8):
        assert S.issubset(st.normalizer(d8, S))


@pytest.mark.parametrize("spec", ["D(64)", "perm:(1 2 3 4),(1 2)",
                                  "perm:(1 2 3 4 5),(1 2 3)", "SD(Q8;C(3);1->2,2->3)",
                                  "M2(3,3,1)", "C(8)xC(4)xC(2)"])
def test_normalizer_on_generators_matches_the_member_scan(spec):
    # D(64), S4, A5, SL(2,3), a nonmetacyclic 2-group and an abelian group
    g = build_family(spec)
    for H in st.all_subgroups(g):
        assert st.normalizer(g, H) == reference_normalizer(g, H), (spec, H.members.tolist())


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


@pytest.mark.parametrize("spec", [
    "perm:(1 2 3),(1 2)", "perm:(1 2 3),(1 2)(3 4)", "perm:(1 2 3 4),(1 2)",
    "perm:(1 2 3 4 5),(1 2 3)", "perm:(1 2 3 4 5),(1 2)", "SD(Q8;C(3);1->2,2->3)",
    "SD(C(5);C(4);1->2)", "SD(C(7);C(3);1->2)", "D(24)", "D(12)xC(3)", "C(3)xD(64)",
    "C(5)xEA(2,4)", "SD(C(7);C(3);1->2)xD(8)", "C(3)xC(64)xC(2)"])
def test_sylow_growth_matches_the_per_step_rule(spec):
    # the same subgroup, not only one of the right order: growing by the
    # cosets of P must pick each z as the one-Subgroup-per-step rule did
    G = build_family(spec)
    full = st.full_subgroup(G)
    primes = [p for p in range(2, G.order + 1)
              if G.order % p == 0 and prime_power(p) == (p, 1)]
    for H in st.all_subgroups(G):
        for p in primes:
            R = reference_sylow_growth(G, H, p, None)
            assert np.array_equal(st.sylow(G, p, within=H).mask, R.mask), \
                (H.members.tolist(), p)
            assert np.array_equal(st.sylow_containing(G, p, R).mask,
                                  reference_sylow_growth(G, full, p, R).mask), \
                (H.members.tolist(), p)
        Q, P = codes.zhang_reduce(G, H)
        RQ = reference_sylow_growth(G, H, 2, None)
        RP = reference_sylow_growth(G, reference_normalizer(G, RQ), 2, RQ)
        assert np.array_equal(Q.mask, RQ.mask) and np.array_equal(P.mask, RP.mask), \
            H.members.tolist()


@pytest.mark.parametrize("spec,p", [
    ("C(3)xD(64)", 2), ("perm:(1 2 3 4 5),(1 2 3)", 3), ("perm:(1 2 3 4 5),(1 2 3)", 5),
    ("perm:(1 2 3 4 5),(1 2)", 3), ("perm:(1 2 3 4 5),(1 2)", 5)])
def test_sylow_growth_reads_cosets_without_regrowing(spec, p, monkeypatch):
    # each step adds the cosets of P through z^-1's row; Group.generate is
    # called at most once, to read the starting subgroup's generators
    G = build_family(spec)
    starts = [None]
    if spec == "C(3)xD(64)":  # D(64) grows over five steps from this Q of order 2
        H = next(S for S in st.all_subgroups(G) if S.order == 6)
        starts.append(reference_sylow_growth(G, H, p, None))
    expected = [reference_sylow_growth(G, st.full_subgroup(G), p, Q).mask for Q in starts]
    calls = [0]
    generate = Group.generate

    def counting(self, elems):
        calls[0] += 1
        return generate(self, elems)

    monkeypatch.setattr(Group, "generate", counting)
    for Q, mask in zip(starts, expected):
        calls[0] = 0
        Q = None if Q is None else st.Subgroup(G, Q.mask)  # generators not yet read
        P = st.sylow(G, p) if Q is None else st.sylow_containing(G, p, Q)
        assert np.array_equal(P.mask, mask)
        assert calls[0] <= 1, (spec, p, calls[0])


def test_involutions_and_omega1():
    q8 = build_family("Q8")
    assert st.involutions(q8).size == 2  # identity and the unique involution
    assert 0 in st.involutions(q8).tolist()
    for n1, m1 in [(2, 2), (3, 1), (3, 2), (2, 3)]:
        g = build_family(f"M2({n1},{m1})")
        om = reference_omega1(g)
        assert om.order == 4
        assert (g.element_orders()[om.members] <= 2).all()
    for n2, m2 in [(1, 2), (2, 2), (2, 3)]:
        g = build_family(f"M2({n2},{m2},1)")
        om = reference_omega1(g)
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


def test_min_generators_against_bruteforce():
    cases = ["C(8)", "Q8", "EA(2,3)", "C(4)xC(2)", "D(8)", "M2(1,2,1)"]
    for spec in cases:
        g = build_family(spec)
        H = st.full_subgroup(g)
        assert st.min_generators(H) == brute_force_min_generators(H), spec
    assert st.min_generators(st.trivial_subgroup(build_family("C(4)"))) == 0
    # S3 and F20 are not p-groups
    for spec in ["perm:(1 2 3),(1 2)", "SD(C(5);C(4);1->2)"]:
        with pytest.raises(PreconditionError):
            st.min_generators(st.full_subgroup(build_family(spec)))


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


@pytest.mark.parametrize("spec", ["C(8)", "C(4)xC(2)", "EA(2,3)", "C(8)xC(4)",
                                  "EA(3,3)", "C(9)xC(3)", "C(25)xC(5)"])
def test_frattini_of_abelian_pgroups_matches_the_maximal_subgroups(spec):
    # the one general formula, odd p included: the subgroup generated by the
    # p-th powers and, for odd p, the commutators; the reference intersects
    # the maximal subgroups of every subgroup H
    g = build_family(spec)
    for H in st.all_subgroups(g):
        phi = st.frattini(H)
        assert phi.mask.tolist() == reference_frattini(H).tolist(), (spec, H.members.tolist())


@pytest.mark.parametrize("spec", ["C(8)xC(4)", "EA(2,3)", "D(16)", "M2(3,2)",
                                  "M2(2,2,1)", "perm:(1 2 3),(1 2)(3 4)"])
def test_squares_of_abelian_2subgroups_are_their_frattini(spec):
    # the theorem route reads Phi of an abelian 2-group as its set of squares
    g = build_family(spec)
    checked = 0
    for H in st.all_subgroups(g):
        if H.is_abelian and H.order & (H.order - 1) == 0:
            assert _squares(H).tolist() == reference_frattini(H).tolist(), \
                (spec, H.members.tolist())
            checked += 1
    assert checked > 1


def test_squares_are_not_frattini_at_odd_order():
    # the 2-power order matters: A4's C3 is its own set of squares, but
    # Phi(C3) is trivial
    a4 = build_family("perm:(1 2 3),(1 2)(3 4)")
    c3 = next(H for H in st.all_subgroups(a4) if H.order == 3)
    assert _squares(c3).tolist() == c3.mask.tolist()
    assert st.frattini(c3).is_trivial
    assert reference_frattini(c3).sum() == 1


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


def test_restriction_of_order_2048_to_its_rotations_peaks_under_6_mb(monkeypatch):
    # the 2 MB uint16 table is written through a uint16 position map, one
    # row block at a time: 5.0 MB, where an int32 map and one int32 gather of
    # every product traced 7.3 MB
    monkeypatch.setenv("PCL_MAX_ORDER", "2048")
    G = build_family("D(2048)")
    rotations = st.subgroup_generated(G, [st.recognize_dihedral(G)[0]])
    members = rotations.members
    tracemalloc.start()
    try:
        group, _ = st.subgroup_as_group(rotations)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 << 20, peak
    assert group.mult.dtype == np.uint16 and group.is_abelian
    position = np.searchsorted(members, G.mult[np.ix_(members, members)])
    assert np.array_equal(group.mult, position)


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
    # order 8: the counts of solutions of x^2 = 1 (6 and 2) choose the branch
    ("D(8)", "metacyclic", (2, 1), (2, 1)),
    ("Q8", "q8", None, (1, 2)),
]


@pytest.mark.parametrize("spec, tag, params, witness", A1_COPIES)
def test_a1_recognition_of_isomorphic_copies(spec, tag, params, witness):
    rec = st.recognize_a1_family(build_family(spec))
    assert (rec.tag, rec.params, rec.witness) == (tag, params, witness)


def sylow_refusals():
    """C(12) and sylow's four refusals at p = 2 after the prime check, as
    (keyword arguments, message): a foreign ``within``, a foreign
    ``containing``, a ``containing`` that is not a 2-group and one outside
    ``within``."""
    g = build_family("C(12)")
    by_order = {S.order: S for S in st.all_subgroups(g)}
    foreign = foreign_subgroups()[1]
    return g, [
        ({"within": foreign}, "different group"),
        ({"containing": foreign}, "different group"),
        ({"containing": by_order[3]}, "^sylow requires a 2-subgroup, got order 3$"),
        ({"within": by_order[3], "containing": by_order[2]},
         "^sylow requires containing to lie in within$"),
    ]


def test_sylow_requires_a_prime():
    g, refusals = sylow_refusals()
    with pytest.raises(PreconditionError, match="^sylow requires a prime, got 4$"):
        st.sylow(g, 4)
    with pytest.raises(PreconditionError, match="^sylow requires a prime, got 1$"):
        st.sylow_containing(g, 1, st.trivial_subgroup(g))
    # the prime is checked first, whatever else is wrong
    for kwargs, _ in refusals:
        with pytest.raises(PreconditionError, match="^sylow requires a prime, got 4$"):
            st.sylow(g, 4, **kwargs)


# the ownership rule: a subgroup of another group object, even one with an
# equal table, is refused, not read as indices of G's table


def test_normalizer_refuses_a_subgroup_of_another_group(d8):
    for H in foreign_subgroups():
        with pytest.raises(PreconditionError, match="different group"):
            st.normalizer(d8, H)


def test_sylow_containing_refuses_a_subgroup_of_another_group(d8):
    for H in foreign_subgroups():
        with pytest.raises(PreconditionError, match="different group"):
            st.sylow_containing(d8, 2, H)
    g, refusals = sylow_refusals()
    for kwargs, message in refusals:
        with pytest.raises(PreconditionError, match=message):
            st.sylow(g, 2, **kwargs)


def test_issubset_is_false_across_group_objects(d8):
    whole = st.full_subgroup(d8)
    for H in foreign_subgroups():
        assert not H.issubset(whole)
        with pytest.raises(PreconditionError, match="not contained"):
            st.subgroup_as_group(whole, H)
