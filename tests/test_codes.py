from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest

from pcl import codes, groups, report, structure as st
from pcl.catalog import CatalogEntry
from pcl.errors import PreconditionError, SizeLimitError
from pcl.specs import build_family

from conftest import (cayley_verdict, foreign_subgroups, inverse_closed_subsets,
                      reference_conj_table, reference_coset_criterion,
                      reference_criterion3, reference_criterion3_on_pair,
                      reference_cayley_check, reference_criterion4,
                      reference_connection_set, reference_exhaustive_search,
                      reference_transversal_search, validate_transversal)


@pytest.fixture(scope="module")
def c4():
    return build_family("C(4)")


@pytest.fixture(scope="module")
def d8():
    return build_family("D(8)")


def test_criterion3_examples(c4, d8):
    center = st.subgroup_generated(c4, [2])
    v = codes.criterion3(c4, center)
    assert not v.is_code
    assert v.evidence is not None and "violating_x" in v.evidence
    x = v.evidence["violating_x"]
    assert c4.mul(x, x) in center  # the witness satisfies the hypothesis
    assert codes.criterion3(d8, st.trivial_subgroup(d8)).is_code
    assert codes.criterion3(d8, st.subgroup_generated(d8, [d8.witness["b"]])).is_code


def test_coset_criteria_match_the_reference_loops_on_the_catalog(catalog):
    # the whole Verdict, the least violating x included
    for entry in catalog:
        G = entry.group
        if G.order > 32:
            continue
        for H in st.all_subgroups(G):
            assert codes.criterion3(G, H) == reference_criterion3(G, H), (entry.label, H)
            assert codes.criterion4(G, H) == reference_criterion4(G, H), (entry.label, H)


def reps(transversal):
    return None if transversal is None else transversal.tolist()


def test_transversal_search_matches_the_reference_on_the_catalog(catalog):
    # the whole transversal, not only whether one exists
    for entry in catalog:
        G = entry.group
        if G.order > 64:
            continue
        for H in st.all_subgroups(G):
            assert reps(codes.find_inverse_closed_transversal(G, H)) == \
                reps(reference_transversal_search(G, H)), (entry.label, H)


def component_sizes(G, H) -> list[int]:
    """Sizes of the components of right cosets of H linked by inversion:
    Hx and Hy are linked when some t in Hx has t^-1 in Hy."""
    key = G.mult[H.members].min(axis=0)
    root = {int(k): int(k) for k in key}

    def find(k):
        while root[k] != k:
            k = root[k]
        return k

    for t, k in enumerate(key.tolist()):
        a, b = find(k), find(int(key[G.inv[t]]))
        root[max(a, b)] = min(a, b)
    roots = [find(k) for k in root]
    return sorted(roots.count(r) for r in set(roots))


@pytest.mark.parametrize("spec", ["perm:(1 2 3 4 5),(1 2 3)", "perm:(1 2 3),(1 2)(3 4)",
                                  "SD(C(5);C(4);1->2)", "SD(C(7);C(3);1->2)"])
def test_transversal_closed_form_matches_the_reference_beside_searched_components(spec):
    # A5, A4, F20 and C7:C3 have pairs whose cosets form a component of
    # three cosets or more, though the search never undoes a choice on them;
    # the lone uniform cosets and uniform pairs beside them are decided in
    # closed form, and every component of split cosets, two cosets or more,
    # by the one search
    G = build_family(spec)
    large = 0
    for H in st.all_subgroups(G):
        large += max(component_sizes(G, H)) >= 3
        assert reps(codes.find_inverse_closed_transversal(G, H)) == \
            reps(reference_transversal_search(G, H)), (spec, H)
    assert large > 0


@pytest.mark.parametrize("spec", ["SD(Q8;C(3);1->2,2->3)", "perm:(1 2 3 4 5),(1 2)"])
def test_transversal_search_matches_the_reference_where_it_undoes_a_choice(spec, monkeypatch):
    # on SL(2,3) and S5 some nested search finds a component it cannot
    # finish and returns False, so its caller undoes a choice and tries the
    # next; the transversal found must still be the reference's
    backtrack, depth, undone = codes._backtrack, [0], [0]

    def spy(table, inv, component, assignment, first=False):
        depth[0] += 1
        try:
            found = backtrack(table, inv, component, assignment, first)
        finally:
            depth[0] -= 1
        undone[0] += depth[0] > 0 and not found
        return found

    monkeypatch.setattr(codes, "_backtrack", spy)
    G = build_family(spec)
    for H in st.all_subgroups(G):
        assert reps(codes.find_inverse_closed_transversal(G, H)) == \
            reps(reference_transversal_search(G, H)), (spec, H)
    assert undone[0] > 0, spec


@pytest.mark.parametrize("spec", ["D(128)", "perm:(1 2 3 4 5),(1 2 3)", "SD(C(5);C(4);1->2)"])
def test_each_component_search_starts_with_none_of_its_keys_assigned(spec, monkeypatch):
    # the search reads a component's candidate lists unfiltered on its first
    # level, which is exact only while none of the component's keys is
    # assigned; a call that no other search made is the start of a component
    backtrack, depth, starts = codes._backtrack, [0], []

    def spy(table, inv, component, assignment, first=False):
        if depth[0] == 0:
            starts.append(component)
            assert first and not [k for k in component if k in assignment], (spec, component)
        depth[0] += 1
        try:
            return backtrack(table, inv, component, assignment, first)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(codes, "_backtrack", spy)
    G = build_family(spec)
    for H in st.all_subgroups(G):
        codes.find_inverse_closed_transversal(G, H)
    assert starts, spec


def coset_kinds(G, H) -> dict[int, bool]:
    """Each right coset of H, by its least element k, mapped to whether it
    is uniform: the inverses of all its elements lie in one coset."""
    key = G.mult[H.members].min(axis=0)
    partners: dict[int, set[int]] = {}
    for t in range(G.order):
        partners.setdefault(int(key[t]), set()).add(int(key[G.inv[t]]))
    return {k: len(ps) == 1 for k, ps in partners.items()}


@pytest.mark.parametrize("spec", ["D(16)", "D(24)", "C(8)xC(4)xC(4)", "M2(3,4,1)",
                                  "perm:(1 2 3),(1 2)(3 4)", "SD(C(5);C(4);1->2)"])
def test_transversal_search_decides_uniform_cosets_beside_split_ones(spec):
    # uniform cosets are decided from their keys and split ones searched; a
    # coset Hk is uniform exactly when k normalizes H, so an abelian group
    # has no split coset and each of the others has a pair holding both
    # kinds, such as <s> in D(16), whose 2 normalizing cosets of 8 are uniform
    G = build_family(spec)
    mixed = 0
    for H in st.all_subgroups(G):
        kinds = coset_kinds(G, H)
        N = st.normalizer(G, H)
        assert kinds == {k: bool(N.mask[k]) for k in kinds}, (spec, H)
        mixed += len(set(kinds.values())) == 2
        assert reps(codes.find_inverse_closed_transversal(G, H)) == \
            reps(reference_transversal_search(G, H)), (spec, H)
    assert (mixed == 0) if G.is_abelian else (mixed > 0), (spec, mixed)


def test_normal_subgroups_build_no_table(monkeypatch):
    # every coset of a normal subgroup is uniform, so the search of split
    # cosets, which tables their elements, is never reached
    def refuse(*args):
        raise AssertionError("the split cosets were searched")

    monkeypatch.setattr(codes, "_split_coset_search", refuse)
    for spec in ("C(8)xC(4)xC(2)", "D(16)", "M2(2,2,1)"):
        G = build_family(spec)
        normal = [H for H in st.all_subgroups(G) if st.normalizer(G, H).order == G.order]
        assert len(normal) > 2, spec
        for H in normal:
            assert reps(codes.find_inverse_closed_transversal(G, H)) == \
                reps(reference_transversal_search(G, H)), (spec, H)
    G = build_family("D(16)")
    with pytest.raises(AssertionError, match="split cosets"):
        codes.find_inverse_closed_transversal(G, st.subgroup_generated(G, [G.witness["b"]]))


def test_coset_keys_read_in_row_blocks_match_the_reference(monkeypatch):
    # blocks of 64 entries: 4 rows of D(16), 5 of A4 (a last block of 2 rows
    # when H = A4) and 1 of C(8)xC(4)xC(2)
    monkeypatch.setattr(groups, "BLOCK_CELLS", 64)
    for spec in ("D(16)", "perm:(1 2 3),(1 2)(3 4)", "C(8)xC(4)xC(2)"):
        G = build_family(spec)
        for H in st.all_subgroups(G):
            assert reps(codes.find_inverse_closed_transversal(G, H)) == \
                reps(reference_transversal_search(G, H)), (spec, H)


def test_criteria_read_in_row_blocks_match_the_reference(monkeypatch):
    # blocks of 40 entries, so each read spans several blocks for some H,
    # some with a short last one: the coset keys read 2 rows of D(16), 3 of
    # A4 (3 and 1 for a Klein four H) and 1 of M2(2,2,1); H * I reads 4 rows
    # of H against the 10 solutions of y^2 = 1 in D(16), 10 against A4's 4
    # (10 and 2 for H = A4) and 5 against M2(2,2,1)'s 8 (5 and 3 for
    # |H| = 8); criterion4 reads 40 // |H| of its x against H (20 and 4 for
    # the 24 x left by some H of order 2 of M2(2,2,1)), and the odd-index
    # test as many of their conjugates (5 and 3 for 8 x left by some H of
    # order 8 of M2(2,2,1))
    monkeypatch.setattr(groups, "BLOCK_CELLS", 40)
    for spec in ("D(16)", "perm:(1 2 3),(1 2)(3 4)", "M2(2,2,1)"):
        G = build_family(spec)
        for H in st.all_subgroups(G):
            for method, route in (("criterion3", codes.criterion3),
                                  ("criterion4", codes.criterion4)):
                assert route(G, H) == reference_coset_criterion(G, H, method), (spec, H)


def test_criteria_on_the_whole_group_of_order_2048_peak_under_5_mb(monkeypatch):
    # every coset of H = G holds a solution of y^2 = 1, found by reading
    # H * I in row blocks of 2^18 entries, 1 MB: the D(2048) table itself is
    # 16 MB, and the one |H| x |I| gather was 8.1 MB
    monkeypatch.setenv("PCL_MAX_ORDER", "2048")
    G = build_family("D(2048)")
    H = st.full_subgroup(G)
    for route in (codes.criterion3, codes.criterion4):
        tracemalloc.start()
        try:
            assert route(G, H).is_code
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 << 20, (route.__name__, peak)


def test_routes_on_large_subgroups_of_order_2048_peak_under_6_mb(monkeypatch):
    # the coset keys, criterion4's products xs * H and the odd-index test's
    # conjugates are read in row blocks of 2^18 entries: criterion4 traced
    # 16 MB with the keys and the products each one gather, and the oracle
    # 4 MB with its keys in blocks of 2^20 entries
    monkeypatch.setenv("PCL_MAX_ORDER", "2048")
    G = build_family("M2(5,5,1)")
    large = [H for H in st.all_subgroups(G) if H.order >= 256]
    for route in (codes.criterion3, codes.criterion4, codes.find_inverse_closed_transversal):
        for H in large:
            tracemalloc.start()
            try:
                route(G, H)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 6 << 20, (route.__name__, H.order, peak)


def test_transversal_search_leaves_no_reference_cycles():
    # a cycle would keep each search's table of candidates alive until the
    # cycle collector reached it; the backtracking is reached on S4 and A5
    for spec in ("D(16)", "perm:(1 2 3 4),(1 2)", "perm:(1 2 3 4 5),(1 2 3)"):
        G = build_family(spec)
        lattice = st.all_subgroups(G)
        gc.collect()
        gc.disable()
        try:
            # a comprehension: a loop variable would keep a subgroup of the
            # last group alive, and with it that group's lattice and memo
            [codes.find_inverse_closed_transversal(G, H) for H in lattice]
            assert gc.collect() == 0, spec
        finally:
            gc.enable()


@pytest.mark.parametrize("spec", ["D(256)", "M2(3,4,1)", "C(8)xC(4)xC(4)",
                                  "perm:(1 2 3 4 5),(1 2 3)", "perm:(1 2 3 4),(1 2)"])
def test_criteria_match_the_all_x_reference(spec):
    # the whole Verdict, violating_x included, against one array expression
    # over every x: the filters run cheapest first, on survivors only
    G = build_family(spec)
    for H in st.all_subgroups(G):
        for method, route in (("criterion3", codes.criterion3),
                              ("criterion4", codes.criterion4)):
            assert route(G, H) == reference_coset_criterion(G, H, method), (spec, H)


def test_criterion4_examples(c4):
    assert not codes.criterion4(c4, st.subgroup_generated(c4, [2])).is_code
    q8 = build_family("Q8")
    i = st.subgroup_generated(q8, [q8.witness["a"]])
    assert i.order == 4
    assert not codes.criterion4(q8, i).is_code
    # every coset of EA(2,2) holds an involution, so no x is left for the
    # double-coset test, which criterion4 then skips: it takes no empty xs
    ea = build_family("EA(2,2)")
    for S in st.all_subgroups(ea):
        assert codes._without_involution_in_coset(ea, S).size == 0
        assert codes.criterion4(ea, S).is_code


def test_transversal_search_examples(c4, d8):
    full = st.full_subgroup(d8)
    t = codes.find_inverse_closed_transversal(d8, full)
    assert t.tolist() == [0]
    assert codes.find_inverse_closed_transversal(c4, st.subgroup_generated(c4, [2])) is None
    hb = st.subgroup_generated(d8, [d8.witness["b"]])
    t = codes.find_inverse_closed_transversal(d8, hb)
    assert t is not None
    validate_transversal(d8, hb, t)
    # the hand-written transversal {1, a, a^2, a^3} is also valid
    a = d8.witness["a"]
    validate_transversal(d8, hb, (0, a, d8.power(a, 2), d8.power(a, 3)))


def test_transversal_validation_rejects_malformed(d8):
    # each malformed transversal is refused by connection_set_from_transversal,
    # or yields a set that fails the definition
    hb = st.subgroup_generated(d8, [d8.witness["b"]])
    a, b = d8.witness["a"], d8.witness["b"]
    short = (0, a)
    with pytest.raises(PreconditionError, match="number"):
        codes.connection_set_from_transversal(d8, hb, short)
    assert not cayley_verdict(d8, hb, short)
    # two reps from one coset: 1 and b, both in H
    in_h = (0, b, d8.power(a, 2), d8.power(a, 3))
    with pytest.raises(PreconditionError, match="one self-inverse"):
        codes.connection_set_from_transversal(d8, hb, in_h)
    assert not cayley_verdict(d8, hb, in_h)
    # the cosets of <4> in C(8) are {0,4}, {1,5}, {2,6}, {3,7}; 1^-1 = 7
    c8 = build_family("C(8)")
    H = st.subgroup_generated(c8, [4])
    for reps in ((0, 1, 2, 3), (0, 1, 5, 3)):
        with pytest.raises(PreconditionError, match="inverse-closed"):
            codes.connection_set_from_transversal(c8, H, reps)
        assert not cayley_verdict(c8, H, reps)
    # a, a^3 and ba are inverse-closed, but a and ba share the coset Ha, so
    # the cosets do not cover G and only the definition check refuses them
    cover = (0, a, d8.power(a, 3), int(d8.mult[b, a]))
    S = codes.connection_set_from_transversal(d8, hb, cover)
    assert not codes.verify_perfect_code_in_cayley(d8, S, hb)
    assert not cayley_verdict(d8, hb, cover)
    # a repeated representative outside H: a and a^3 are inverse-closed, but
    # a is listed twice, so the set is refused and no evidence lists it twice
    repeat = (0, a, d8.power(a, 3), a)
    with pytest.raises(PreconditionError, match="repeat"):
        codes.connection_set_from_transversal(d8, hb, repeat)
    with pytest.raises(PreconditionError, match="repeat"):
        codes.ConnectionSet(d8, (2, 6, 6))
    route = report.ROUTES["cayley"](CatalogEntry(d8.label, d8), hb, lambda: repeat)
    assert route["is_code"] is False and "invalid_transversal" in route["evidence"]
    for T in (short, in_h, cover, repeat):
        with pytest.raises(PreconditionError):
            validate_transversal(d8, hb, T)
    negative = [0] + [d8.power(a, k) - d8.order for k in (1, 2, 3)]
    with pytest.raises(PreconditionError, match="range"):  # they would wrap to a, a^2, a^3
        codes.connection_set_from_transversal(d8, hb, negative)
    assert not cayley_verdict(d8, hb, negative)


def test_evidence_rejects_indices_that_wrap_in_the_int32_cast(d8):
    hb = st.subgroup_generated(d8, [d8.witness["b"]])
    reps = codes.find_inverse_closed_transversal(d8, hb)
    for wrapped in (np.asarray(reps, dtype=np.int64) + 2**32, reps.astype(np.uint64) + 2**32,
                    [int(t) + 2**32 for t in reps], [int(t) + 2**64 for t in reps]):
        with pytest.raises(PreconditionError, match="range"):
            codes.connection_set_from_transversal(d8, hb, wrapped)
    for members in (np.array([2**32 + 2, 2**32 + 6]), [2**32 + 2, 2**32 + 6],
                    np.array([2.0, 6.0])):
        with pytest.raises(PreconditionError):
            codes.ConnectionSet(d8, members)
    assert codes.ConnectionSet(d8, np.array([], dtype=np.float64)).members.tolist() == []


def test_connection_set_construction(d8):
    full = st.full_subgroup(d8)
    t = codes.find_inverse_closed_transversal(d8, full)
    s = codes.connection_set_from_transversal(d8, full, t)
    assert s.members.tolist() == []
    assert codes.verify_perfect_code_in_cayley(d8, s, full)
    triv = st.trivial_subgroup(d8)
    t = codes.find_inverse_closed_transversal(d8, triv)
    s = codes.connection_set_from_transversal(d8, triv, t)
    assert s.members.tolist() == list(range(1, 8))
    assert codes.verify_perfect_code_in_cayley(d8, s, triv)
    hb = st.subgroup_generated(d8, [d8.witness["b"]])
    a = d8.witness["a"]
    hand = (0, a, d8.power(a, 2), d8.power(a, 3))
    s = codes.connection_set_from_transversal(d8, hb, hand)
    assert set(s.members.tolist()) == {a, d8.power(a, 2), d8.power(a, 3)}
    assert codes.verify_perfect_code_in_cayley(d8, s, hb)
    assert not hb.mask[s.members].any()


def test_connection_set_invariants(d8):
    with pytest.raises(PreconditionError):
        codes.ConnectionSet(d8, (0, 2))
    with pytest.raises(PreconditionError):
        codes.ConnectionSet(d8, (2,))  # a alone is not inverse-closed
    with pytest.raises(PreconditionError):  # -2 would wrap round to a^-1 = 6
        codes.ConnectionSet(d8, (-2, 2))
    # the errors keep their order, range, identity, repeat, inverse-closure:
    # a set breaking the last three names the identity, and one breaking
    # the last two the repeat
    with pytest.raises(PreconditionError, match="range"):
        codes.ConnectionSet(d8, (0, 8))
    with pytest.raises(PreconditionError, match="identity"):
        codes.ConnectionSet(d8, (2, 0, 2))
    with pytest.raises(PreconditionError, match="repeat"):
        codes.ConnectionSet(d8, (2, 2))
    ok = codes.ConnectionSet(d8, (2, 6))
    assert ok.members.tolist() == [2, 6]


def test_odd_index_test_reads_no_block_when_the_least_x_normalizes(c4, monkeypatch):
    # C(4) is abelian, so every x normalizes H = <a^2>: the least x left, a,
    # violates by H's generators alone, with no pass over an empty block of
    # the x before it
    H = st.subgroup_generated(c4, [2])
    calls = []
    original = groups.Group.conjugates

    def counted(self, hs, xs):
        calls.append(len(xs))
        return original(self, hs, xs)

    monkeypatch.setattr(groups.Group, "conjugates", counted)
    assert codes.criterion3(c4, H) == codes.Verdict(False, {"violating_x": 1})
    assert calls == [2]


def test_evidence_is_a_read_only_int32_array(d8):
    hb = st.subgroup_generated(d8, [d8.witness["b"]])
    given = np.array([6, 2, 0, 4], dtype=np.int64)
    s = codes.ConnectionSet(d8, given[:2])
    assert s.members.tolist() == [2, 6]  # ascending
    from_reps = codes.connection_set_from_transversal(d8, hb, given)
    assert from_reps.members.tolist() == [2, 4, 6]
    for array in (s.members, from_reps.members, codes.find_inverse_closed_transversal(d8, hb)):
        assert array.dtype == np.int32 and not array.flags.writeable
    assert given.flags.writeable  # the caller's array is copied, not frozen
    given32 = np.array([6, 2], dtype=np.int32)  # no cast, still not frozen
    assert codes.ConnectionSet(d8, given32).members.tolist() == [2, 6]
    assert given32.flags.writeable and given32.tolist() == [6, 2]


def test_connection_set_rejects_a_transversal_of_another_pair(d8):
    # a transversal of <7> is no transversal of the trivial subgroup
    T = codes.find_inverse_closed_transversal(d8, st.subgroup_generated(d8, [7]))
    with pytest.raises(PreconditionError, match="number"):
        codes.connection_set_from_transversal(d8, st.trivial_subgroup(d8), T)
    # nor is one of a subgroup of index 8 in D(16), whose representatives
    # reach past D(8)'s elements
    d16 = build_family("D(16)")
    T = codes.find_inverse_closed_transversal(d16, st.subgroup_generated(d16, [d16.witness["b"]]))
    assert T.size == 8 and T.max() >= d8.order
    with pytest.raises(PreconditionError, match="range"):
        codes.connection_set_from_transversal(d8, st.trivial_subgroup(d8), T)


def test_verify_cayley_rejects_evidence_of_another_group(d8):
    # a connection set and a subgroup are read as indices of the group they
    # were made in: C(8) is not asked about D(8)'s elements, and D(16)'s set
    # is not gathered from D(8)'s table
    hb = st.subgroup_generated(d8, [d8.witness["b"]])
    a = d8.witness["a"]
    S = codes.ConnectionSet(d8, [d8.power(a, k) for k in (1, 2, 3)])
    assert codes.verify_perfect_code_in_cayley(d8, S, hb)
    c8 = build_family("C(8)")
    for G, C in ((c8, hb), (c8, st.trivial_subgroup(c8)), (d8, st.trivial_subgroup(c8))):
        with pytest.raises(PreconditionError, match="different group"):
            codes.verify_perfect_code_in_cayley(G, S, C)
    d16 = build_family("D(16)")
    S16 = codes.ConnectionSet(d16, range(1, 16))
    with pytest.raises(PreconditionError, match="different group"):
        codes.verify_perfect_code_in_cayley(d8, S16, hb)


def test_connection_set_matches_the_tuple_reference_on_the_catalog(catalog):
    for entry in catalog:
        G = entry.group
        if G.order > 64:
            continue
        for H in st.all_subgroups(G):
            T = codes.find_inverse_closed_transversal(G, H)
            if T is not None:
                assert codes.connection_set_from_transversal(G, H, T).members.tolist() == \
                    list(reference_connection_set(G, H, T)), (entry.label, H)


@pytest.mark.parametrize("spec", ["D(8)", "Q8", "C(4)xC(2)"])
def test_cayley_check_matches_the_column_count_on_every_connection_set(spec):
    G = build_family(spec)
    outcomes = set()
    for H in st.all_subgroups(G):
        for mask in inverse_closed_subsets(G):
            S = codes.ConnectionSet(G, np.flatnonzero(mask))
            expected = reference_cayley_check(G, S, H)
            assert codes.verify_perfect_code_in_cayley(G, S, H) == expected, \
                (H.members.tolist(), S.members.tolist())
            outcomes.add(expected)
    assert outcomes == {True, False}


def test_cayley_check_matches_the_column_count_past_the_gather_rule(monkeypatch):
    # the connection sets of an order-1024 group's codes: those of more than
    # 32 elements read S x H by the broadcast index, the others by two takes;
    # each is checked for its code H and, mostly failing, for the trivial
    # subgroup
    monkeypatch.setenv("PCL_MAX_ORDER", "1024")
    G = build_family("M2(4,5,1)")
    trivial = st.trivial_subgroup(G)
    sizes, outcomes = set(), set()
    for H in st.all_subgroups(G):
        T = codes.find_inverse_closed_transversal(G, H)
        if T is None:
            continue
        S = codes.connection_set_from_transversal(G, H, T)
        assert S.members.tolist() == list(reference_connection_set(G, H, T))
        assert codes.verify_perfect_code_in_cayley(G, S, H)
        assert reference_cayley_check(G, S, H)
        expected = reference_cayley_check(G, S, trivial)
        assert codes.verify_perfect_code_in_cayley(G, S, trivial) == expected, H.members.tolist()
        sizes.add(len(S.members) * G.order > groups.GATHER_TAKE_CELLS)
        outcomes.add(expected)
    assert sizes == {True, False}
    assert outcomes == {True, False}


def test_exhaustive_refutation_on_c4_center(c4):
    center = st.subgroup_generated(c4, [2])
    # inverse-closed identity-free subsets of C4: {}, {g^2}, {g,g^3}, {g,g^3,g^2}
    masks = list(inverse_closed_subsets(c4))
    assert len(masks) == 4
    for mask in masks:
        members = tuple(np.flatnonzero(mask).tolist())
        if not members:
            continue
        s = codes.ConnectionSet(c4, members)
        assert not codes.verify_perfect_code_in_cayley(c4, s, center)
    assert reference_exhaustive_search(c4, center) is None
    assert codes.exhaustive_connection_set_search(c4, center) is None


def assert_same_exhaustive_result(G, H):
    """Both sweeps refute, or both return the same first connection set."""
    found = codes.exhaustive_connection_set_search(G, H)
    expected = reference_exhaustive_search(G, H)
    assert (None if found is None else found.members.tolist()) == \
        (None if expected is None else expected.members.tolist()), H.members.tolist()


@pytest.mark.parametrize("spec, subgroups", [
    ("C(1)", 1), ("Q8xC(2)", 19), ("D(8)xC(2)", 35), ("SD(C(3);C(4);1->2)", 8)])
def test_exhaustive_search_matches_reference_off_catalog(spec, subgroups):
    G = build_family(spec)
    assert len(st.all_subgroups(G)) == subgroups
    for H in st.all_subgroups(G):
        assert_same_exhaustive_result(G, H)


def test_exhaustive_search_matches_reference_on_small_catalog_groups(catalog):
    pairs = 0
    for entry in catalog:
        if entry.group.order <= 16:
            for H in st.all_subgroups(entry.group):
                assert_same_exhaustive_result(entry.group, H)
                pairs += 1
    assert pairs == 308


def test_exhaustive_search_memory_stays_flat():
    # one table holds the counts of all 2^k sets, k the group's blocks, so
    # the peak follows the table: EA(2,4) has 15 blocks, the most at order
    # 16; of the groups with a refuted subgroup, whose sweep reads every
    # row, D(8)xC(2) has the most (13) and D(16) the most in the catalog (12)
    for spec in ["EA(2,4)", "D(8)xC(2)", "D(16)"]:
        G = build_family(spec)
        blocks = sum(1 for x in range(1, G.order) if G.inv[x] >= x)
        for H in st.all_subgroups(G):
            table = (1 << blocks) * G.order * np.min_scalar_type(H.order + 1).itemsize
            tracemalloc.start()
            try:
                codes.exhaustive_connection_set_search(G, H)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20, (spec, H.members.tolist(), peak)
            assert peak <= 1.25 * table + (16 << 10), (spec, H.members.tolist(), peak, table)


@pytest.mark.parametrize("spec", ["C(32)", "D(64)", "EA(2,6)"])
def test_exhaustive_search_refuses_an_order_past_its_limit(spec):
    # the tables of 2^k x |G| counts would be 2 MiB for C(32), 16 PiB for
    # D(64) and 2^63 rows for EA(2,6): the sweep refuses before any of them
    G = build_family(spec)
    H = st.trivial_subgroup(G)
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match=f"sweep of order {G.order} exceeds"):
            codes.exhaustive_connection_set_search(G, H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 10, (spec, peak)


def test_exhaustive_search_agrees_with_criterion_small():
    for spec in ["C(8)", "Q8", "D(8)", "C(4)xC(2)", "EA(2,3)"]:
        g = build_family(spec)
        for H in st.all_subgroups(g):
            found = codes.exhaustive_connection_set_search(g, H)
            assert (found is not None) == codes.criterion3(g, H).is_code, spec
            if found is not None:
                assert codes.verify_perfect_code_in_cayley(g, found, H)


def test_zhang_reduce_examples():
    s3 = build_family("perm:(1 2 3),(1 2)")
    t2 = int(np.flatnonzero(s3.element_orders() == 2)[0])
    H = st.subgroup_generated(s3, [t2])
    Q, P = codes.zhang_reduce(s3, H)
    assert Q == H and P == Q  # the normalizer of <transposition> is itself
    # odd-order subgroups reduce to the trivial pair, hence always codes
    three = st.subgroup_generated(s3, [int(np.flatnonzero(s3.element_orders() == 3)[0])])
    Q, P = codes.zhang_reduce(s3, three)
    assert Q.is_trivial
    assert reference_criterion3_on_pair(P, Q).is_code
    for F in foreign_subgroups():
        with pytest.raises(PreconditionError, match="different group"):
            codes.zhang_reduce(s3, F)


def test_zhang_reduce_f20_center_of_sylow():
    f20 = build_family("SD(C(5);C(4);1->2)")
    x = int(np.flatnonzero(f20.element_orders() == 4)[0])
    H = st.subgroup_generated(f20, [f20.mul(x, x)])
    Q, P = codes.zhang_reduce(f20, H)
    assert Q.order == 2 and P.order == 4
    assert st.frattini(P) == Q  # P is cyclic of order 4 with Q its square
    assert not reference_criterion3_on_pair(P, Q).is_code
    assert not codes.criterion3(f20, H).is_code


def test_zhang_consistency_on_mixed_groups():
    specs = ["perm:(1 2 3),(1 2)", "perm:(1 2 3),(1 2)(3 4)",
             "SD(C(5);C(4);1->2)", "SD(C(7);C(3);1->2)", "D(12)"]
    for spec in specs:
        g = build_family(spec)
        for H in st.all_subgroups(g):
            Q, P = codes.zhang_reduce(g, H)
            assert (codes.criterion3(g, H).is_code
                    == reference_criterion3_on_pair(P, Q).is_code), (spec, H.members)


def test_is_code_perfect():
    assert codes.order4_witness(build_family("perm:(1 2 3),(1 2)")) is None
    assert codes.order4_witness(build_family("SD(C(7);C(3);1->2)")) is None
    assert codes.order4_witness(build_family("C(4)")) is not None
    assert codes.order4_witness(build_family("EA(2,3)")) is None


def test_square_generated_cyclic_subgroups_rejected():
    # nontrivial <g^2> inside a 2-group is never a perfect code
    for spec in ["C(8)", "Q8", "D(16)", "M2(2,2)", "M2(1,2,1)"]:
        g = build_family(spec)
        orders = g.element_orders()
        for x in np.flatnonzero(orders >= 4).tolist():
            H = st.subgroup_generated(g, [g.mul(x, x)])
            assert not H.is_trivial
            assert not codes.criterion3(g, H).is_code, (spec, x)


def test_proper_involution_covering_subgroups_rejected():
    # a proper subgroup containing every solution of x^2 = 1 is never a code
    for spec in ["Q8", "C(8)", "C(4)xC(2)", "M2(2,2)", "D(8)"]:
        g = build_family(spec)
        inv = st.involutions(g)
        for H in st.all_subgroups(g):
            if H.is_full or not H.mask.take(inv).all():
                continue
            assert not codes.criterion3(g, H).is_code, (spec, H.members)


def test_criterion_is_conjugation_invariant():
    # the verdict is constant on conjugacy classes of subgroups
    for spec in ["D(8)", "Q8", "M2(1,2,1)", "perm:(1 2 3),(1 2)",
                 "perm:(1 2 3),(1 2)(3 4)", "SD(C(5);C(4);1->2)"]:
        g = build_family(spec)
        ct = reference_conj_table(g)
        for H in st.all_subgroups(g):
            verdict = codes.criterion3(g, H).is_code
            for x in range(g.order):
                conj = st.Subgroup(g, H.mask[ct[g.inv[x]]])
                assert codes.criterion3(g, conj).is_code == verdict, (spec, x)


def test_methods_require_matching_parent(d8):
    other = build_family("D(8)")
    H = st.trivial_subgroup(other)
    with pytest.raises(PreconditionError):
        codes.criterion3(d8, H)
