"""Randomized cross-checks of the algebra and the decision routes."""

from __future__ import annotations

import io
import json
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as stst

from pcl import codes, groups, report, structure as st, theorems as th
from pcl.catalog import CatalogEntry
from pcl.errors import PreconditionError
from pcl.groups import index_mask, sorted_distinct
from pcl.specs import build_family

from conftest import (assert_structure_matches_references,
                      assert_witnesses_match_references, cayley_verdict,
                      join_closure_subgroups, reference_closure, reference_criterion3,
                      reference_criterion3_on_pair, reference_criterion4,
                      reference_greedy_generators, reference_transversal_search,
                      validate_transversal)

SMALL_SPECS = [
    "C(2)", "C(4)", "C(8)", "C(12)", "EA(2,2)", "EA(2,3)", "C(4)xC(2)",
    "D(8)", "D(10)", "D(12)", "Q8", "M2(2,1)", "M2(2,2)", "M2(1,2,1)",
    "perm:(1 2 3),(1 2)", "perm:(1 2 3),(1 2)(3 4)", "SD(C(5);C(4);1->2)",
]

_groups = {}


def get_group(spec):
    if spec not in _groups:
        _groups[spec] = build_family(spec)
    return _groups[spec]


@settings(max_examples=60, deadline=None)
@given(stst.sampled_from(SMALL_SPECS), stst.data())
def test_generated_subgroup_properties(spec, data):
    g = get_group(spec)
    gens = data.draw(stst.lists(stst.integers(0, g.order - 1), max_size=3))
    H = st.subgroup_generated(g, gens)
    assert g.order % H.order == 0
    assert all(int(x) in H for x in gens)
    sub = g.mult[np.ix_(H.members, H.members)]
    assert set(np.unique(sub).tolist()) == set(H.members.tolist())


@stst.composite
def index_arrays(draw):
    """(n, a, b): two int32 arrays of values in range(n), empty ones too."""
    n = draw(stst.integers(1, 70))
    values = stst.lists(stst.integers(0, n - 1), max_size=2 * n)
    return n, np.array(draw(values), dtype=np.int32), np.array(draw(values), dtype=np.int32)


@settings(max_examples=200, deadline=None)
@given(index_arrays())
@example((1, np.array([], dtype=np.int32), np.array([], dtype=np.int32)))
@example((5, np.array([4], dtype=np.int32), np.array([], dtype=np.int32)))
@example((3, np.array([2, 0, 2], dtype=np.int32), np.array([1, 2], dtype=np.int32)))
def test_sorted_distinct_equals_np_unique(case):
    n, a, b = case
    assert np.array_equal(sorted_distinct(a, n), np.unique(a))
    assert sorted_distinct(a, n).tolist() == np.unique(a).tolist()
    assert np.array_equal(sorted_distinct(np.concatenate((a, b)), n), np.union1d(a, b))
    assert np.array_equal(index_mask(a, n)[b], np.isin(b, a))
    if a.size % 2 == 0:  # the commutator site passes a 2-D array
        assert np.array_equal(sorted_distinct(a.reshape(2, -1), n), np.unique(a))


@settings(max_examples=60, deadline=None)
@given(stst.sampled_from(SMALL_SPECS), stst.data())
def test_decision_routes_agree_on_random_subgroups(spec, data):
    g = get_group(spec)
    gens = data.draw(stst.lists(stst.integers(0, g.order - 1), max_size=3))
    H = st.subgroup_generated(g, gens)
    c3 = codes.criterion3(g, H).is_code
    assert codes.criterion4(g, H).is_code == c3
    transversal = codes.find_inverse_closed_transversal(g, H)
    assert (transversal is not None) == c3
    if transversal is not None:
        s = codes.connection_set_from_transversal(g, H, transversal)
        assert codes.verify_perfect_code_in_cayley(g, s, H)


_positive = {}


def _positive_pairs(spec):
    """Every (H, transversal) of the group with H a perfect code."""
    if spec not in _positive:
        G = get_group(spec)
        _positive[spec] = [(H, T) for H in st.all_subgroups(G)
                           if (T := codes.find_inverse_closed_transversal(G, H)) is not None]
    return _positive[spec]


@settings(max_examples=300, deadline=None)
@given(stst.sampled_from(["D(16)", "perm:(1 2 3),(1 2)(3 4)", "M2(2,2,1)", "C(8)xC(4)"]),
       stst.data())
def test_cayley_route_accepts_exactly_the_inverse_closed_transversals(spec, data):
    # the definition check on the reps outside H, with |T| = |G:H| and one
    # self-inverse rep in H, is the whole test that T is a transversal
    G = get_group(spec)
    H, T = data.draw(stst.sampled_from(_positive_pairs(spec)))
    reps = T.tolist()
    k = data.draw(stst.integers(0, len(reps) - 1))
    g = data.draw(stst.integers(0, G.order - 1))
    reps = data.draw(stst.sampled_from([
        reps[:k] + [g] + reps[k + 1:],  # replace a rep
        reps[:k] + [reps[(k + 1) % len(reps)]] + reps[k + 1:],  # duplicate one
        reps[:k] + [int(G.inv[reps[k]])] + reps[k + 1:],  # invert one
        reps + [g],  # add one
    ]))
    try:
        validate_transversal(G, H, reps)
        valid = True
    except PreconditionError:
        valid = False
    assert cayley_verdict(G, H, reps) == valid


@settings(max_examples=40, deadline=None)
@given(stst.sampled_from(SMALL_SPECS), stst.data())
def test_zhang_reduction_preserves_the_verdict(spec, data):
    g = get_group(spec)
    gens = data.draw(stst.lists(stst.integers(0, g.order - 1), max_size=3))
    H = st.subgroup_generated(g, gens)
    Q, P = codes.zhang_reduce(g, H)
    assert Q.issubset(P)
    assert reference_criterion3_on_pair(P, Q).is_code == codes.criterion3(g, H).is_code


@settings(max_examples=30, deadline=None)
@given(stst.sampled_from(["C(8)", "C(4)xC(2)", "EA(2,3)", "C(16)", "C(4)xC(4)"]),
       stst.data())
def test_abelian_rule_matches_criterion(spec, data):
    g = get_group(spec)
    gens = data.draw(stst.lists(stst.integers(0, g.order - 1), max_size=3))
    H = st.subgroup_generated(g, gens)
    assert th.classify_abelian_2group(g, H).is_code == codes.criterion3(g, H).is_code


@settings(max_examples=50, deadline=None)
@given(stst.integers(1, 32))
def test_cyclic_spec_roundtrip(n):
    g = build_family(f"C({n})")
    assert g.label == f"C({n})" and np.array_equal(g.mult, groups.cyclic(n).mult)
    again = build_family(g.label)
    assert again.label == g.label and np.array_equal(again.mult, g.mult)


@settings(max_examples=30, deadline=None)
@given(stst.sampled_from(SMALL_SPECS), stst.data())
def test_normalizer_contains_and_is_closed(spec, data):
    g = get_group(spec)
    gens = data.draw(stst.lists(stst.integers(0, g.order - 1), max_size=2))
    H = st.subgroup_generated(g, gens)
    N = st.normalizer(g, H)
    assert H.issubset(N)
    sub = g.mult[np.ix_(N.members, N.members)]
    assert set(np.unique(sub).tolist()) == set(N.members.tolist())


_FACTOR_ORDERS = {"C(2)": 2, "C(3)": 3, "C(4)": 4, "C(5)": 5, "C(6)": 6,
                  "C(8)": 8, "D(6)": 6, "D(8)": 8, "D(10)": 10, "Q8": 8}


@stst.composite
def product_specs(draw):
    factors = draw(stst.lists(stst.sampled_from(sorted(_FACTOR_ORDERS)),
                              min_size=2, max_size=3))
    assume(prod(_FACTOR_ORDERS[f] for f in factors) <= 64)
    return "x".join(factors)


@stst.composite
def semidirect_specs(draw):
    n = draw(stst.integers(2, 16))
    m = draw(stst.integers(2, 64 // n))
    units = [k for k in range(1, n) if gcd(k, n) == 1 and pow(k, m, n) == 1]
    return f"SD(C({n});C({m});1->{draw(stst.sampled_from(units))})"


@stst.composite
def permutation_specs(draw):
    """Generators acting on the blocks {1..4}, {5, 6} or {1, 2, 3}, {4, 5, 6},
    so the group lies in S4 x S2 or S3 x S3 (order at most 48)."""
    blocks = draw(stst.sampled_from([((1, 2, 3, 4), (5, 6)), ((1, 2, 3), (4, 5, 6))]))
    gens = []
    for _ in range(draw(stst.integers(1, 3))):
        image = {}
        for block in blocks:
            image.update(zip(block, draw(stst.permutations(block))))
        cycles, seen = [], set()
        for start in sorted(image):
            if start in seen or image[start] == start:
                continue
            cycle, point = [], start
            while point not in seen:
                seen.add(point)
                cycle.append(point)
                point = image[point]
            cycles.append("(" + " ".join(map(str, cycle)) + ")")
        gens.append("".join(cycles) or "(1)")
    return "perm:" + ",".join(gens)


@settings(max_examples=30, deadline=None)
@given(stst.one_of(product_specs(), semidirect_specs(), permutation_specs()))
def test_lattice_matches_join_closure_outside_the_catalog(spec):
    g = build_family(spec)
    lattice = st.all_subgroups(g)
    assert {tuple(S.members.tolist()) for S in lattice} == join_closure_subgroups(g)
    for S in lattice:
        assert S.generators == reference_greedy_generators(g, S.members)


@settings(max_examples=40, deadline=None)
@given(stst.one_of(product_specs(), semidirect_specs(), permutation_specs()),
       stst.data())
def test_generate_matches_the_references_outside_the_catalog(spec, data):
    g = build_family(spec)
    elems = data.draw(stst.lists(stst.integers(0, g.order - 1), max_size=6))
    mask, gens = g.generate(elems)
    members = reference_closure(g, elems)
    assert np.array_equal(np.flatnonzero(mask), members)
    assert np.array_equal(g.closure(elems), members)
    assert gens == reference_greedy_generators(g, elems)


@settings(max_examples=25, deadline=None)
@given(stst.one_of(product_specs(), semidirect_specs(), permutation_specs()))
def test_coset_criteria_agree_outside_the_catalog(spec):
    g = build_family(spec)
    for S in st.all_subgroups(g):
        c3, c4 = codes.criterion3(g, S), codes.criterion4(g, S)
        assert c3 == reference_criterion3(g, S)
        assert c4 == reference_criterion4(g, S)
        oracle = codes.find_inverse_closed_transversal(g, S) is not None
        assert c3.is_code == c4.is_code == oracle


@settings(max_examples=25, deadline=None)
@given(stst.one_of(product_specs(), semidirect_specs(), permutation_specs()))
def test_transversal_search_matches_the_reference_outside_the_catalog(spec):
    g = build_family(spec)
    for S in st.all_subgroups(g):
        found = codes.find_inverse_closed_transversal(g, S)
        expected = reference_transversal_search(g, S)
        assert (None if found is None else found.tolist()) == \
            (None if expected is None else expected.tolist()), (spec, S.members.tolist())


@settings(max_examples=25, deadline=None)
@given(stst.one_of(product_specs(), semidirect_specs(), permutation_specs()))
def test_structural_subgroups_match_the_lattice_references_outside_the_catalog(spec):
    assert_structure_matches_references(build_family(spec))


@settings(max_examples=40, deadline=None)
@given(stst.one_of(product_specs(), semidirect_specs(), permutation_specs()))
def test_witnesses_match_the_reference_finders_outside_the_catalog(spec):
    assert_witnesses_match_references(build_family(spec))


RELABELLED_SPECS = [
    "perm:(1 2 3),(1 2)", "perm:(1 2 3),(1 2)(3 4)", "perm:(1 2 3 4),(1 2)",
    "perm:(1 2 3 4 5),(1 2 3)", "perm:(1 2 3 4 5),(1 2)", "SD(C(5);C(4);1->2)",
    "SD(C(7);C(3);1->2)", "SD(Q8;C(3);1->2,2->3)", "D(16)", "D(12)", "Q8", "M2(3,1)",
    "M2(2,2,1)", "C(4)xC(2)xC(2)", "C(3)xD(8)",
]


def _verdicts_by_subgroup(G: groups.Group) -> tuple[dict, int]:
    """({member tuple: each route's is_code and the theorem clause}, finding
    count) from the records of every subgroup of G."""
    out = io.StringIO()
    row = report.write_records(CatalogEntry(G.label, G), st.all_subgroups(G),
                               report.METHODS, out)
    verdicts = {}
    for line in out.getvalue().splitlines():
        record = json.loads(line)
        verdicts[tuple(record["subgroup"]["elements"])] = {
            m: (v.get("is_code"), v.get("clause")) for m, v in record["verdicts"].items()}
    return verdicts, row["findings"]


@pytest.mark.parametrize("spec", RELABELLED_SPECS)
def test_verdicts_do_not_depend_on_the_element_numbering(spec):
    # relabel the elements by a seeded permutation pi fixing the identity:
    # the lattice maps onto the relabelled one, and every route's verdict,
    # the theorem clause and the finding count stay; evidence may differ
    G = build_family(spec)
    verdicts, findings = _verdicts_by_subgroup(G)
    for seed in range(2):
        rng = np.random.default_rng([seed, G.order])
        pi = np.concatenate(([0], 1 + rng.permutation(G.order - 1)))
        table = np.empty_like(G.mult)
        table[np.ix_(pi, pi)] = pi.take(G.mult)  # pi(a) pi(b) = pi(ab)
        relabelled = groups.Group(table, label=G.label)
        mapped = {tuple(sorted(pi.take(members).tolist())): v for members, v in verdicts.items()}
        assert {tuple(S.members.tolist()) for S in st.all_subgroups(relabelled)} == set(mapped)
        assert _verdicts_by_subgroup(relabelled) == (mapped, findings), (spec, seed)
    if spec == "M2(2,2,1)":
        assert findings == 1
