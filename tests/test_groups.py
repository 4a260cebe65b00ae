from __future__ import annotations

import random
import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from pcl import groups
from pcl.errors import GroupSpecError, SizeLimitError
from pcl.specs import build_family

from conftest import (reference_conj_table, reference_dihedral, reference_direct_product,
                      reference_from_permutations, reference_metacyclic_m2,
                      reference_nonmetacyclic_m2, reference_quaternion,
                      reference_semidirect_product)


FAMILY_SPECS = [
    "C(1)", "C(2)", "C(12)", "EA(2,3)", "EA(3,2)", "D(8)", "D(14)", "Q8",
    "M2(2,1)", "M2(3,2)", "M2(1,2,1)", "M2(2,2,1)", "C(4)xC(2)",
    "SD(C(5);C(4);1->2)", "SD(C(7);C(3);1->2)", "perm:(1 2 3),(1 2)",
]


@pytest.mark.parametrize("spec", FAMILY_SPECS)
def test_group_axioms(spec):
    g = build_family(spec)
    g.check_axioms()
    n = g.order
    idx = np.arange(n)
    assert np.array_equal(g.mult[0], idx)
    assert np.array_equal(g.mult[:, 0], idx)
    assert np.array_equal(g.mult[idx, g.inv], np.zeros(n, dtype=np.int32))
    # Latin square: every row and column is a permutation
    assert all(len(set(g.mult[i].tolist())) == n for i in range(n))
    assert all(len(set(g.mult[:, i].tolist())) == n for i in range(n))


def test_associativity_check_accepts_large_groups():
    build_family("C(100)").check_axioms()
    build_family("EA(2,7)").check_axioms()


def _random_loop_table(rng: random.Random, n: int) -> np.ndarray:
    """A random Latin square on 0..n-1 whose row 0 and column 0 are in
    order, filled cell by cell by randomized backtracking."""
    table = [[j if i == 0 else i if j == 0 else -1 for j in range(n)] for i in range(n)]
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]

    def fill(k: int) -> bool:
        if k == len(cells):
            return True
        i, j = cells[k]
        used = set(table[i]) | {row[j] for row in table}
        options = [v for v in range(n) if v not in used]
        rng.shuffle(options)
        for v in options:
            table[i][j] = v
            if fill(k + 1):
                return True
        table[i][j] = -1
        return False

    assert fill(0)
    return np.array(table)


def test_associativity_check_is_exact_on_random_latin_squares():
    rng = random.Random(20261018)
    associative = 0
    for _ in range(1500):
        n = rng.randint(4, 8)
        t = _random_loop_table(rng, n)
        brute = np.array_equal(t[t], t[np.arange(n)[:, None, None], t[None, :, :]])
        try:
            groups.Group(t).check_axioms()
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == brute, t.tolist()
        associative += brute
    assert 0 < associative < 1500


def test_catalog_entries_satisfy_group_axioms(catalog):
    for entry in catalog:
        entry.group.check_axioms()


def test_cyclic_orders():
    g = groups.cyclic(12)
    assert g.element_order(1) == 12
    assert g.element_order(0) == 1
    assert g.element_order(6) == 2


def test_identity_element_order_is_one():
    assert build_family("Q8").element_order(0) == 1


def test_m2_generator_a_has_order_four():
    g = build_family("M2(2,1)")
    assert g.element_order(g.witness["a"]) == 4


def test_q8_unique_involution_has_order_two():
    g = build_family("Q8")
    invs = np.flatnonzero(g.squares == 0)
    assert invs.tolist() != [0]
    (inv,) = [int(x) for x in invs if x != 0]
    assert g.element_order(inv) == 2


def test_metacyclic_presentation_relations():
    for n1, m1 in [(2, 1), (2, 2), (3, 1), (3, 2), (4, 2)]:
        g = groups.metacyclic_m2(n1, m1)
        a, b = g.witness["a"], g.witness["b"]
        assert g.order == 2 ** (n1 + m1)
        assert g.element_order(a) == 2 ** n1
        assert g.element_order(b) == 2 ** m1
        conj = g.mult[g.mult[g.inv[b], a], b]
        assert conj == g.power(a, 1 + 2 ** (n1 - 1))


def test_nonmetacyclic_presentation_relations():
    for n2, m2 in [(1, 2), (1, 3), (2, 2), (2, 3)]:
        g = groups.nonmetacyclic_m2(n2, m2)
        a, b, c = g.witness["a"], g.witness["b"], g.witness["c"]
        assert g.order == 2 ** (n2 + m2 + 1)
        assert g.commutator(a, b) == c
        assert g.mul(c, c) == 0
        assert g.commutator(a, c) == 0 and g.commutator(b, c) == 0


def test_permutation_closure_known_orders():
    assert build_family("perm:(1 2)").order == 2
    assert build_family("perm:(1 2 3),(1 2)").order == 6
    assert build_family("perm:(1 2 3 4 5),(2 5)(3 4)").order == 10
    assert build_family("perm:(1 2 3),(1 2)(3 4)").order == 12
    assert build_family("perm:(1 2 3 4 5),(1 2 3)").order == 60
    assert build_family("perm:(1 2 3 4 5),(1 2 4 3)").order == 20


def test_direct_product_c4_c2_involution_count():
    g = build_family("C(4)xC(2)")
    assert int((g.squares == 0).sum()) - 1 == 3


def test_direct_product_with_trivial_keeps_table():
    g = build_family("Q8")
    prod = groups.direct_product(groups.cyclic(1), g)
    assert np.array_equal(prod.mult, g.mult)


def test_direct_product_order():
    g = groups.direct_product(groups.cyclic(6), groups.cyclic(4))
    assert g.order == 24
    g.check_axioms()


def test_no_rows_make_no_block():
    # a blocked read of no rows makes no pass, however wide the table
    for width in (1, 64, groups.BLOCK_CELLS, 4 * groups.BLOCK_CELLS):
        assert list(groups._blocks(0, width)) == []
    assert list(groups._blocks(3, 64)) == [slice(0, 3)]


def test_semidirect_action_validation():
    c5, c4 = groups.cyclic(5), groups.cyclic(4)
    with pytest.raises(GroupSpecError):
        # x -> 2x has order 4 mod 5; it cannot be an action of C(2)
        groups.semidirect_product(c5, groups.cyclic(2), [(1, 2)])
    with pytest.raises(GroupSpecError):
        # x -> x+1 is not a homomorphism of C(5)
        groups.semidirect_product(c5, c4, [(1, 2), (2, 3)])
    f20 = groups.semidirect_product(c5, c4, [(1, 2)])
    assert f20.order == 20
    f20.check_axioms()


def test_every_action_the_breadth_first_test_accepts_is_an_automorphism():
    # every action of one pair (g, h), or of two with g1 < g2, g > 0, on
    # nine small groups: the breadth-first test phi(x g) = phi(x) h over
    # every x and listed g, with the bijection test, is the whole check, so
    # each map it accepts is checked on the whole table here
    outcomes = Counter()
    for spec in ["C(4)", "C(6)", "C(2)xC(4)", "Q8", "D(8)", "EA(2,3)",
                 "perm:(1 2 3),(1 2)", "C(3)xC(3)", "D(12)"]:
        N = build_family(spec)
        images = range(N.order)
        actions = [[(g, h)] for g in range(1, N.order) for h in images]
        actions += [[(g1, h1), (g2, h2)] for g1, g2 in combinations(range(1, N.order), 2)
                    for h1 in images for h2 in images]
        for action in actions:
            try:
                phi = groups._extend_action(N, action)
            except GroupSpecError as exc:
                outcomes[str(exc)] += 1
                continue
            assert np.array_equal(phi[N.mult], N.mult[np.ix_(phi, phi)]), (spec, action)
            outcomes["accepted"] += 1
    assert outcomes == {"accepted": 1934,
                        "SD action is not a homomorphism": 9449,
                        "SD action is not a bijection": 2490,
                        "SD action generators do not generate the normal factor": 2959}


def test_semidirect_requires_cyclic_acting_factor():
    with pytest.raises(GroupSpecError):
        groups.semidirect_product(groups.cyclic(3), groups.elementary_abelian(2, 2),
                                  [(1, 1)])


def test_size_limit_on_construction(monkeypatch):
    monkeypatch.setenv("PCL_MAX_ORDER", "16")
    with pytest.raises(SizeLimitError):
        groups.cyclic(17)
    with pytest.raises(SizeLimitError):
        build_family("perm:(1 2 3 4 5),(1 2 3)")
    assert groups.cyclic(16).order == 16


@pytest.mark.parametrize("spec, order", [
    ("EA(2,99999)", "2^99999"), ("M2(99999,1)", "2^100000"),
    ("M2(1,99999,1)", "2^100001"), ("M2(2,8)", "2^10")])
def test_size_limit_names_a_power_order_briefly(spec, order, monkeypatch):
    # 2^99999 has more decimal digits than str() formats by default
    monkeypatch.setenv("PCL_MAX_ORDER", "512")
    with pytest.raises(SizeLimitError) as caught:
        build_family(spec)
    assert str(caught.value) == f"group order {order} exceeds the cap PCL_MAX_ORDER=512"


@pytest.mark.parametrize("table, message", [
    (np.array([[0, 2**32 + 1], [2**32 + 1, 0]]), "range"),  # 1 in int32
    (np.array([[0, 65537], [65537, 0]], dtype=np.uint32), "range"),  # 1 in uint16
    (np.array([[0, 2**64 - 1], [2**64 - 1, 0]], dtype=np.uint64), "range"),
    (np.array([[0, -1], [-1, 0]]), "range"),
    (np.array([[0, 1.7], [1.2, 0]]), "integers"),  # [[0, 1], [1, 0]] truncated
    (np.array([[False, True], [True, False]]), "integers")])
def test_a_table_is_checked_before_it_is_narrowed(table, message):
    with pytest.raises(ValueError, match=message):
        groups.Group(table)


def test_every_constructor_writes_a_read_only_uint16_table(monkeypatch):
    # each constructor hands Group a table it wrote in uint16, which Group
    # keeps without a copy
    given = []

    class Recording(groups.Group):
        __slots__ = ()

        def __init__(self, mult, *args, **kwargs):
            given.append(mult)
            super().__init__(mult, *args, **kwargs)

    monkeypatch.setattr(groups, "Group", Recording)
    built = [build_family(spec) for spec in [
        "C(12)", "EA(3,2)", "D(14)", "Q8", "M2(3,2)", "M2(1,2,1)", "SD(C(5);C(4);1->2)",
        "C(4)xD(6)", "C(1)xQ8", "perm:(1 2 3 4),(1 2)"]]
    built.append(groups.from_raw_table_text("0 1 2\n1 2 0\n2 0 1"))
    for g in built:
        assert any(g.mult is table for table in given), g.label
        assert g.mult.dtype == np.uint16 and not g.mult.flags.writeable, g.label


@pytest.mark.parametrize("rows", [
    [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 0, 1]],
    [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 0], [3, 2, 1, 1]]])
def test_a_table_latin_on_one_axis_only_is_rejected(rows):
    # identity in row and column 0; the first table's rows are permutations
    # but its columns 2 and 3 repeat, the second is its transpose
    with pytest.raises(ValueError, match="not a Latin square"):
        groups.Group(np.array(rows))


def test_raw_table_roundtrip():
    g = build_family("D(8)")
    text = "\n".join(" ".join(str(int(x)) for x in row) for row in g.mult)
    back = groups.from_raw_table_text(text, label="d8")
    assert np.array_equal(back.mult, g.mult)


def test_raw_table_rejects_bad_input():
    with pytest.raises(GroupSpecError):
        groups.from_raw_table_text("0 1\n1 1")  # not a Latin square
    with pytest.raises(GroupSpecError):
        groups.from_raw_table_text("1 0\n0 1")  # identity not at 0
    with pytest.raises(GroupSpecError):
        groups.from_raw_table_text("0 1 2\n1 2")  # ragged
    # Latin square with identity that is not associative (order 5 loop)
    loop = ("0 1 2 3 4\n"
            "1 0 3 4 2\n"
            "2 4 0 1 3\n"
            "3 2 4 0 1\n"
            "4 3 1 2 0")
    with pytest.raises(GroupSpecError):
        groups.from_raw_table_text(loop)


def test_raw_table_rejects_entries_past_int64():
    # the entries are range-checked as Python ints: the int64 cast overflows
    for entry in ("99999999999999999999999", "-99999999999999999999999"):
        with pytest.raises(GroupSpecError, match=r"must lie in 0\.\.1"):
            groups.from_raw_table_text(f"0 1\n1 {entry}")


def test_raw_table_rejects_a_swapped_intercalate_above_order_64():
    # rows 1, 2 and columns 4, 7 of EA(2,7) hold the Latin subsquare
    # [[5, 6], [6, 5]]; swapping it keeps a Latin square with identity 0 and
    # valid inverses, so only the associativity check can reject the table
    table = build_family("EA(2,7)").mult.copy()
    rows, cols = np.ix_([1, 2], [4, 7])
    assert table[rows, cols].tolist() == [[5, 6], [6, 5]]
    table[rows, cols] = [[6, 5], [5, 6]]
    text = "\n".join(" ".join(map(str, row)) for row in table.tolist())
    with pytest.raises(GroupSpecError, match="associativity"):
        groups.from_raw_table_text(text)


def test_power_and_inverse():
    g = build_family("C(12)")
    assert g.power(1, 0) == 0
    assert g.power(1, 7) == 7
    assert g.power(1, -1) == 11
    assert g.power(5, 24) == 0


def _assert_same_table(built, reference):
    assert np.array_equal(built.mult, reference.mult), built.label
    assert built.witness == reference.witness, built.label


def test_extension_kernel_matches_the_dihedral_and_quaternion_formulas():
    for order in range(2, 513, 2):
        _assert_same_table(groups.dihedral(order), reference_dihedral(order))
    _assert_same_table(groups.quaternion(), reference_quaternion())


def test_extension_kernel_matches_the_metacyclic_formula():
    for n1 in range(2, 9):
        for m1 in range(1, 10 - n1):  # orders up to 512
            _assert_same_table(groups.metacyclic_m2(n1, m1), reference_metacyclic_m2(n1, m1))


# the last acting factor is cyclic of order 6 with its generator at index 1,
# but its index 2 is the generator's inverse, not its square
@pytest.mark.parametrize("normal, acting, action", [
    ("C(5)", "C(4)", [(1, 2)]), ("C(7)", "C(3)", [(1, 2)]), ("C(5)", "C(1)", [(1, 1)]),
    ("D(8)", "C(1)", [(2, 2), (1, 1)]), ("C(8)", "C(2)", [(1, 5)]),
    ("C(2)xC(2)", "C(3)", [(1, 2), (2, 3)]), ("Q8", "C(3)", [(2, 1), (1, 3)]),
    ("perm:(1 2 3)", "C(2)", [(1, 2)]),
    ("C(7)", "perm:(1 2 3 4 5 6),(1 6 5 4 3 2)", [(1, 3)])])
def test_extension_kernel_matches_the_semidirect_formula(normal, acting, action):
    N, A = build_family(normal), build_family(acting)
    _assert_same_table(groups.semidirect_product(N, A, action),
                       reference_semidirect_product(N, A, action))


@pytest.mark.parametrize("left, right", [
    ("C(4)", "D(6)"), ("D(8)", "Q8"), ("C(6)", "C(4)"), ("C(1)", "Q8"), ("Q8", "C(1)"),
    ("perm:(1 2 3),(1 2)", "D(8)"), ("C(2)xC(2)", "M2(2,1,1)")])
def test_extension_kernel_matches_the_direct_product_formula(left, right):
    a, b = build_family(left), build_family(right)
    _assert_same_table(groups.direct_product(a, b), reference_direct_product(a, b))


@pytest.mark.parametrize("spec", ["D(1024)", "M2(5,5)", "M2(4,5,1)", "EA(2,10)",
                                  "C(16)xC(8)xC(4)xC(2)"])
def test_order_1024_builds_peak_under_20_mb(spec, monkeypatch):
    # bounded at 4 MB, though the name keeps its first bound: the uint16
    # table itself is 2 MB, beside it the extension holds one buffer of a
    # y1 block, and the Latin check sorts int32 blocks of rows and columns,
    # not copies of the table, which sets the peak: 3.3-3.5 MB
    monkeypatch.setenv("PCL_MAX_ORDER", "1024")
    tracemalloc.start()
    try:
        build_family(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 << 20, (spec, peak)


def test_d2048_build_holds_one_row_block_beside_the_table(monkeypatch):
    # the 8 MB uint16 table and one row block of x1 * phi^y1(x2), with the
    # cyclic normal factor read as a 4 KB window, not a 2 MB table: 9.5 MB
    # traced
    monkeypatch.setenv("PCL_MAX_ORDER", "2048")
    tracemalloc.start()
    try:
        build_family("D(2048)")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * (1 << 20), peak


@pytest.mark.parametrize("spec", ["D(16)", "perm:(1 2 3 4 5),(1 2 3)", "M2(2,2,1)", "D(2048)"])
def test_conjugates_equal_the_reference_table(spec, monkeypatch):
    # empty, repeated and full element lists, as lists and as arrays, on
    # both sides of the read
    monkeypatch.setenv("PCL_MAX_ORDER", "2048")
    G = build_family(spec)
    ct = reference_conj_table(G)
    n = G.order
    lists = [[], [3, 3, 0, n - 1, 3], np.arange(n), np.array([], dtype=np.int64),
             np.array([n - 1, 1, 1], dtype=np.int64)]
    for hs in lists:
        for xs in lists:
            got = G.conjugates(hs, xs)
            expected = ct[np.ix_(np.asarray(xs, dtype=int), np.asarray(hs, dtype=int))].T
            assert got.dtype == G.mult.dtype
            assert got.shape == expected.shape == (len(hs), len(xs))
            assert np.array_equal(got, expected), (spec, len(hs), len(xs))


@pytest.mark.parametrize("spec", ["C(4)xC(6)", "D(16)", "perm:(1 2 3 4),(1 2)", "M2(2,2,1)"])
def test_blocked_table_checks_match_the_whole_table(spec, monkeypatch):
    # blocks of 120 entries: 5 rows or columns of the order-24 groups, 7 of
    # D(16) and 3 of M2(2,2,1), each with a last short block
    G = build_family(spec)
    monkeypatch.setattr(groups, "BLOCK_CELLS", 120)
    assert groups._is_latin(G.mult)
    assert groups.Group(G.mult).is_abelian == bool(np.array_equal(G.mult, G.mult.T))
    broken = G.mult.copy()
    broken[-1, -1] = broken[-1, -2]  # the last row and column repeat a value
    assert not groups._is_latin(broken)
    with pytest.raises(ValueError, match="Latin"):
        groups.Group(broken)


@pytest.mark.parametrize("spec", ["D(16)", "D(1024)", "D(2048)"])
def test_gather_equals_the_broadcast_index(spec, monkeypatch):
    # row and column counts at and just past the size rule (rows repeat in
    # D(16)), a tall, narrow read (1,023 x 2, as in D(2048)'s Cayley check)
    # and a short, wide one, and empty rows and columns
    monkeypatch.setenv("PCL_MAX_ORDER", "2048")
    G = build_family(spec)
    n = G.order
    rng = np.random.default_rng(0)
    limit = groups.GATHER_TAKE_CELLS // n
    row_sets = [np.array([], dtype=np.int32), np.array([0, n - 1], dtype=np.int32),
                rng.integers(0, n, limit).astype(np.int32),
                rng.integers(0, n, limit + 1).astype(np.int32),
                rng.integers(0, n, 1023).astype(np.int32)]
    col_sets = [np.array([], dtype=np.int32), rng.integers(0, n, 2).astype(np.int32),
                rng.integers(0, n, 8).astype(np.int32),
                rng.integers(0, n, limit).astype(np.int32),
                rng.integers(0, n, limit + 1).astype(np.int32),
                np.arange(n, dtype=np.int32)]
    for table in (G.mult, reference_conj_table(G)):
        for rows in row_sets:
            for cols in col_sets:
                got = groups.gather(table, rows, cols)
                expected = table[rows[:, None], cols]
                assert got.dtype == expected.dtype
                assert got.shape == expected.shape == (len(rows), len(cols))
                assert np.array_equal(got, expected), (spec, len(rows), len(cols))


def test_nonmetacyclic_table_matches_the_int64_formula():
    for n2 in range(1, 8):
        for m2 in range(n2, 9 - n2):  # orders up to 512
            if n2 + m2 >= 3:
                _assert_same_table(groups.nonmetacyclic_m2(n2, m2),
                                   reference_nonmetacyclic_m2(n2, m2))


# image tuples on 0..k-1: S3, A4, A5, S5, S3 with a repeated generator
@pytest.mark.parametrize("perms", [
    [(1, 0, 2), (1, 2, 0)],
    [(1, 2, 0, 3), (1, 0, 3, 2)],
    [(1, 2, 3, 4, 0), (1, 2, 0, 3, 4)],
    [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)],
    [(1, 0, 2), (1, 2, 0), (1, 0, 2)]])
def test_permutation_table_matches_the_pairwise_fill(perms):
    _assert_same_table(groups.from_permutations(perms), reference_from_permutations(perms))


def test_permutation_table_of_order_576_matches_the_pairwise_fill(monkeypatch):
    # S4 x S4 on the points 0..3 and 4..7
    monkeypatch.setenv("PCL_MAX_ORDER", "576")
    perms = [(1, 2, 3, 0, 4, 5, 6, 7), (1, 0, 2, 3, 4, 5, 6, 7),
             (0, 1, 2, 3, 5, 6, 7, 4), (0, 1, 2, 3, 5, 4, 6, 7)]
    G = groups.from_permutations(perms)
    assert G.order == 576
    _assert_same_table(G, reference_from_permutations(perms))


@pytest.mark.parametrize("spec, count", [
    ("C(12)", 1), ("D(2)", 1), ("D(8)", 1), ("Q8", 1), ("M2(2,1)", 1), ("M2(3,2)", 1),
    ("M2(1,2,1)", 1), ("M2(2,3,1)", 1), ("EA(2,4)", 1), ("EA(3,0)", 1),
    ("SD(C(5);C(4);1->2)", 3), ("C(4)xD(6)", 3), ("C(8)xC(4)xC(2)", 4)])
def test_constructors_build_only_the_groups_of_the_spec(spec, count, monkeypatch):
    # internal factors are tables: only the named atoms and the result are
    # built, and so validated, as groups
    built = []
    init = groups.Group.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args[0].shape)
        init(self, *args, **kwargs)

    monkeypatch.setattr(groups.Group, "__init__", counting_init)
    build_family(spec)
    assert len(built) == count, built
