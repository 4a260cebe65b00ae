from __future__ import annotations

from itertools import combinations
from unittest import mock

import numpy as np
import pytest

from pcl import structure as st
from pcl.catalog import default_catalog
from pcl.codes import Transversal, Verdict
from pcl.groups import prime_power
from pcl.specs import build_family
from pcl.structure import (Subgroup, all_subgroups, frattini, full_subgroup,
                           is_minimal_nonabelian, sylow, sylow_containing,
                           _sylow_within)


@pytest.fixture(scope="session")
def catalog():
    """The default catalog, shared so lattices and verdict caches persist."""
    return default_catalog()


@pytest.fixture(scope="session")
def catalog_by_label(catalog):
    return {e.label: e for e in catalog}


def group(spec: str):
    return build_family(spec)


def brute_force_subgroups(G) -> list[frozenset[int]]:
    """All subgroups by filtering every subset containing the identity.

    Exponential; intended as an independent oracle for orders up to 8 or so.
    """
    n = G.order
    found = []
    rest = [x for x in range(1, n)]
    for k in range(0, n):
        for extra in combinations(rest, k):
            members = frozenset((0,) + extra)
            if _closed(G, members):
                found.append(members)
    return found


def _closed(G, members: frozenset[int]) -> bool:
    for a in members:
        if G.inv[a] not in members:
            return False
        for b in members:
            if int(G.mult[a, b]) not in members:
                return False
    return True


def brute_force_min_generators(H: Subgroup) -> int:
    """Smallest generating set by direct search (identity never helps)."""
    if H.order == 1:
        return 0
    G = H.parent
    candidates = [int(m) for m in H.members if m != 0]
    for k in range(1, len(candidates) + 1):
        for combo in combinations(candidates, k):
            if G.closure(combo).size == H.order:
                return k
    raise AssertionError("unreachable")


def abelian_rank(H: Subgroup) -> int:
    """d(H) for an abelian 2-group H: log2 of the number of x with x^2 = 1.

    Independent of the Frattini machinery, so it can cross-check it.
    """
    G = H.parent
    count = int((G.squares[H.members] == 0).sum())
    assert count & (count - 1) == 0
    return count.bit_length() - 1


def join_closure_subgroups(G) -> set[tuple[int, ...]]:
    """Member tuples of every subgroup of G by a layered join closure.

    The lattice kernel this library used before cyclic extension, kept as an
    independent reference: every subgroup is a join of cyclic subgroups, so
    seeding with the cyclic ones and joining every found subgroup with every
    cyclic one until nothing new appears reaches the whole lattice.
    """
    seeds = []
    seen = set()
    for g in range(1, G.order):
        members = G.closure([g])
        if members.tobytes() not in seen:
            seen.add(members.tobytes())
            seeds.append(members)
    trivial = np.zeros(1, dtype=np.int32)
    records = {trivial.tobytes(): trivial}
    for members in seeds:
        records.setdefault(members.tobytes(), members)
    queue = list(records.values())
    while queue:
        current = queue.pop()
        mask = np.zeros(G.order, dtype=bool)
        mask[current] = True
        for members in seeds:
            if mask[members].all():
                continue
            joined = G.closure(np.concatenate((current, members)))
            if joined.tobytes() not in records:
                records[joined.tobytes()] = joined
                queue.append(joined)
    return {tuple(m.tolist()) for m in records.values()}


def reference_criterion3(G, H) -> Verdict:
    """criterion3 as the library computed it before the vectorised core: an
    ascending loop over x, so the first violator is the least one."""
    for x in range(G.order):
        if H.mask[G.squares[x]] and _odd_and_no_involution(G, H, x):
            return Verdict(False, "criterion3", {"violating_x": x})
    return Verdict(True, "criterion3")


def reference_criterion4(G, H) -> Verdict:
    """criterion4 by the same loop, building the double coset HxH per x."""
    for x in range(G.order):
        double_coset = G.mult[np.ix_(H.members, G.mult[x, H.members])]
        if (double_coset == G.inv[x]).any() and _odd_and_no_involution(G, H, x):
            return Verdict(False, "criterion4", {"violating_x": x})
    return Verdict(True, "criterion4")


def _odd_and_no_involution(G, H, x) -> bool:
    """|H| / |H meet H^x| is odd and no y in Hx has y^2 = 1."""
    intersection = int(H.mask[G.conj_table[x, H.members]].sum())
    if (H.order // intersection) % 2 == 0:
        return False
    return not (G.squares[G.mult[H.members, x]] == 0).any()


def reference_transversal_search(G, H) -> Transversal | None:
    """The transversal oracle as the library searched before the candidate
    table: one backtracking search over all cosets at once, rebuilding every
    unassigned coset's candidates at each node, fewest first."""
    members = H.members
    # coset_key[g] = least element of Hg
    coset_key = G.mult[members, :].min(axis=0)
    keys = [int(k) for k in np.unique(coset_key).tolist()]
    coset_members = {k: np.flatnonzero(coset_key == k).tolist() for k in keys}
    inv = G.inv
    assignment: dict[int, int] = {}

    def viable(key: int) -> list[int]:
        # once a pair of cosets is decided both ends are written, so an
        # unassigned coset never holds the inverse of an assigned rep
        out = []
        for t in coset_members[key]:
            t_inv = int(inv[t])
            partner = int(coset_key[t_inv])
            if partner == key:
                if t_inv == t:
                    out.append(t)
            elif partner not in assignment:
                out.append(t)
        return out

    def backtrack() -> bool:
        best_key, best = None, None
        for key in keys:
            if key in assignment:
                continue
            cands = viable(key)
            if best is None or len(cands) < len(best):
                best_key, best = key, cands
                if not cands:
                    return False
        if best_key is None:
            return True
        for t in best:
            t_inv = int(inv[t])
            partner = int(coset_key[t_inv])
            assignment[best_key] = t
            if partner != best_key:
                assignment[partner] = t_inv
            if backtrack():
                return True
            del assignment[best_key]
            if partner != best_key:
                del assignment[partner]
        return False

    if not backtrack():
        return None
    return Transversal(G, H, tuple(assignment[k] for k in keys))


def reference_maximal_subgroups(H: Subgroup) -> list[Subgroup]:
    """Maximal proper subgroups of H, read off the parent's lattice: the
    proper subgroups of H inside no other proper subgroup of H."""
    G = H.parent
    lattice = all_subgroups(G)
    masks = G.memo("reference_lattice_masks",
                   lambda: np.array([S.mask for S in lattice]))
    orders = np.array([S.order for S in lattice])
    proper = np.flatnonzero(~(masks & ~H.mask).any(axis=1) & (orders < H.order))
    sub = masks[proper].astype(np.float32)
    inside = sub @ (1 - sub).T == 0  # inside[i, j]: S_i <= S_j
    return [lattice[i] for i in proper[inside.sum(axis=1) == 1]]


def reference_frattini(H: Subgroup) -> np.ndarray:
    """Membership mask of Phi(H) as the library computed it before
    Burnside's formula: the intersection of the maximal subgroups of H."""
    mask = H.mask.copy()
    for M in reference_maximal_subgroups(H):
        mask &= M.mask
    return mask


def reference_class_counts(G, is_code) -> tuple[int, int]:
    """(classes, code classes) of the subgroups of G, as the library counted
    them before orbit counting: list every conjugate of each new subgroup
    and ask ``is_code(H)`` of one subgroup per class."""
    ct = G.conj_table
    seen: set[int] = set()
    classes = code_classes = 0
    for H in all_subgroups(G):
        if H.mask_int in seen:
            continue
        classes += 1
        for x in range(G.order):
            conj = np.zeros(G.order, dtype=bool)
            conj[ct[x, H.members]] = True
            seen.add(int.from_bytes(np.packbits(conj).tobytes(), "big"))
        code_classes += bool(is_code(H))
    return classes, code_classes


def reference_is_minimal_nonabelian(G) -> bool:
    """Nonabelian with every maximal subgroup abelian, from the lattice."""
    return not G.is_abelian and all(
        M.is_abelian for M in reference_maximal_subgroups(full_subgroup(G)))


def reference_sylow(G, within: Subgroup, p: int) -> Subgroup:
    """The first subgroup in lattice order of order |within|_p inside
    ``within``, as the library chose a Sylow subgroup before growing one."""
    q = _p_part(within.order, p)
    return next(S for S in all_subgroups(G) if S.order == q and S.issubset(within))


def _p_part(n: int, p: int) -> int:
    q = 1
    while n % (q * p) == 0:
        q *= p
    return q


def assert_structure_matches_references(G) -> None:
    """Burnside's Frattini on every p-subgroup, Sylow growth for every
    subgroup and prime, and Rédei's test on G, against the references."""
    primes = [p for p in range(2, G.order + 1)
              if G.order % p == 0 and prime_power(p) == (p, 1)]
    full = full_subgroup(G)
    for H in all_subgroups(G):
        if H.order == 1 or prime_power(H.order) is not None:
            assert np.array_equal(frattini(H).mask, reference_frattini(H)), \
                (G.label, H.members.tolist())
        for p in primes:
            Q = _sylow_within(G, H, p, None)
            P = sylow_containing(G, p, Q)
            for S, within in ((Q, H), (P, full)):
                assert S.order == _p_part(within.order, p)
                assert S.issubset(within)
                assert G.closure(S.members).size == S.order
            assert Q.issubset(P), (G.label, H.members.tolist(), p)
    for p in primes:
        S, R = sylow(G, p), reference_sylow(G, full, p)
        assert (S.order, S.is_abelian) == (R.order, R.is_abelian)
    if prime_power(G.order) is not None:
        assert is_minimal_nonabelian(G) == reference_is_minimal_nonabelian(G)


def reference_quaternion_witness(G) -> tuple[int, int] | None:
    """The quaternion witness search before the one generating-pair search:
    a, b of order 4 with b^2 = a^2 and b^-1 a b = a^3, generating G."""
    orders = G.element_orders()
    four = np.flatnonzero(orders == 4)
    for a in four.tolist():
        a2 = G.mul(a, a)
        a3 = G.power(a, 3)
        for b in four.tolist():
            if G.mul(b, b) != a2:
                continue
            if G.mult[G.mult[G.inv[b], a], b] != a3:
                continue
            if G.closure([a, b]).size == G.order:
                return (a, b)
    return None


def reference_metacyclic_witness(G, n1: int, m1: int) -> tuple[int, int] | None:
    """a of order 2^n1, b of order 2^m1, b^-1 a b = a^(1 + 2^(n1-1)),
    generating G, by a scalar loop."""
    orders = G.element_orders()
    r = (1 + 2 ** (n1 - 1)) % 2 ** n1
    for a in np.flatnonzero(orders == 2 ** n1).tolist():
        target = G.power(a, r)
        for b in np.flatnonzero(orders == 2 ** m1).tolist():
            if G.mult[G.mult[G.inv[b], a], b] != target:
                continue
            if G.closure([a, b]).size == G.order:
                return (a, b)
    return None


def reference_nonmetacyclic_witness(G, n2: int, m2: int) -> tuple[int, int, int] | None:
    """a of order 2^n2, b of order 2^m2 generating G whose commutator c is a
    central involution of G, by a scalar loop; the triple (a, b, c)."""
    orders = G.element_orders()
    for a in np.flatnonzero(orders == 2 ** n2).tolist():
        for b in np.flatnonzero(orders == 2 ** m2).tolist():
            c = G.commutator(a, b)
            if c == 0 or G.mul(c, c) != 0:
                continue
            if G.commutator(a, c) != 0 or G.commutator(b, c) != 0:
                continue
            if G.closure([a, b]).size == G.order:
                return (a, b, c)
    return None


def reference_dihedral_witness(G) -> tuple[int, int] | None:
    """a of order |G|/2 and an involution b outside <a> inverting it, with
    the rotation closure and mask the search used to build."""
    if G.order % 2 != 0:
        return None
    n = G.order // 2
    orders = G.element_orders()
    for a in np.flatnonzero(orders == n).tolist() if n > 1 else [0]:
        rotations = G.closure([a])
        if rotations.size != n:
            continue
        in_rot = np.zeros(G.order, dtype=bool)
        in_rot[rotations] = True
        a_inv = G.inv[a]
        for b in range(G.order):
            if in_rot[b] or G.mul(b, b) != 0:
                continue
            if G.mult[G.mult[G.inv[b], a], b] == a_inv:
                return (a, int(b))
    return None


# parameter pairs each finder is tried on, whether or not G has that shape
METACYCLIC_PARAMS = ((2, 1), (3, 1), (2, 2), (3, 2))
NONMETACYCLIC_PARAMS = ((1, 2), (1, 3), (2, 2), (1, 4))


def reference_recognition(G):
    """The family recognition of the 2-group G recomputed, past the memo,
    with the reference finders in place of the generating-pair search."""
    with mock.patch.multiple(st, _quaternion_pair=reference_quaternion_witness,
                             _metacyclic_pair=reference_metacyclic_witness,
                             _nonmetacyclic_triple=reference_nonmetacyclic_witness):
        return st._recognize_a1(G)


def assert_witnesses_match_references(G) -> None:
    """The dihedral witness of G, the family recognition (tag, params and
    witness) of a 2-group G, and every finder on the fixed parameter pairs
    agree with the references; ``None`` must match ``None``."""
    assert st.recognize_dihedral(G) == reference_dihedral_witness(G), G.label
    if st._is_2group(G):
        assert st.recognize_a1_family(G) == reference_recognition(G), G.label
    assert st._quaternion_pair(G) == reference_quaternion_witness(G), G.label
    for n1, m1 in METACYCLIC_PARAMS:
        assert st._metacyclic_pair(G, n1, m1) == \
            reference_metacyclic_witness(G, n1, m1), (G.label, n1, m1)
    for n2, m2 in NONMETACYCLIC_PARAMS:
        assert st._nonmetacyclic_triple(G, n2, m2) == \
            reference_nonmetacyclic_witness(G, n2, m2), (G.label, n2, m2)
