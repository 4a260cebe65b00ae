from __future__ import annotations

from itertools import combinations
from unittest import mock

import numpy as np
import pytest

from pcl import report, structure as st
from pcl.catalog import CatalogEntry, default_catalog
from pcl.codes import ConnectionSet, Verdict, criterion3
from pcl.errors import PreconditionError, WrongClassifierError
from pcl.groups import Group, _extend_action, prime_power
from pcl.specs import build_family
from pcl.structure import (Subgroup, all_subgroups, frattini, full_subgroup,
                           is_minimal_nonabelian, sylow, sylow_containing,
                           _require_subgroup_of)
from pcl.theorems import (CLAUSE_SYLOW2, ClassificationOutcome, FamilyMatch,
                          _family_table)


@pytest.fixture(scope="session")
def catalog():
    """The default catalog, shared so lattices and verdict caches persist."""
    return default_catalog()


@pytest.fixture(scope="session")
def catalog_by_label(catalog):
    return {e.label: e for e in catalog}


def group(spec: str):
    return build_family(spec)


def foreign_subgroups() -> list[Subgroup]:
    """Subgroups of freshly built group objects, for the ownership rule: a
    cyclic subgroup of order 4 of a Q8, and the reflection subgroup <b> of
    a D(8), whose table equals that of any other D(8)."""
    q8, d8 = build_family("Q8"), build_family("D(8)")
    return [st.subgroup_generated(q8, [q8.witness["a"]]),
            st.subgroup_generated(d8, [d8.witness["b"]])]


def reference_conj_table(G) -> np.ndarray:
    """The full table ct[x, h] = x^-1 h x, built from ``mult`` and ``inv``
    by the definition, as ``Group.conj_table`` held it before it went."""
    idx = np.arange(G.order)
    return G.mult[G.mult[G.inv[:, None], idx], idx[:, None]]


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


def reference_closure(G, elems) -> np.ndarray:
    """Sorted members of the subgroup generated by ``elems``, as
    ``Group.closure`` found them before Dimino's step: the product set of
    the members squared until it stops growing."""
    seed = np.fromiter((int(e) for e in elems), dtype=np.int32)
    members = np.unique(np.concatenate((np.zeros(1, dtype=np.int32), seed)))
    while True:
        grown = np.unique(G.mult[np.ix_(members, members)])
        if grown.size == members.size:
            return grown
        members = grown


def reference_greedy_generators(G, elems) -> tuple[int, ...]:
    """Each element of ``elems``, in order, outside the subgroup generated by
    those before it, with one ``reference_closure`` per generator, as
    canonical generators were found before the one-pass ``Group.generate``."""
    gens: list[int] = []
    closed = np.zeros(G.order, dtype=bool)
    closed[0] = True
    for e in elems:
        if not closed[int(e)]:
            gens.append(int(e))
            closed[reference_closure(G, gens)] = True
    return tuple(gens)


def assert_generators_match_references(G) -> None:
    """Every lattice subgroup's canonical generators are the reference greedy
    set of its members, and their reference closure is the subgroup."""
    for S in all_subgroups(G):
        assert S.generators == reference_greedy_generators(G, S.members), \
            (G.label, S.members.tolist())
        assert np.array_equal(reference_closure(G, S.generators), S.members)


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


def _reference_extenders(G, mask: np.ndarray, gens: tuple[int, ...],
                         allowed: np.ndarray) -> np.ndarray:
    """The z of ``allowed`` (ascending elements of prime-power order) that
    grow the subgroup V of ``mask``, generated by ``gens``, to V<z>: z lies
    outside V, has z^p in V and maps each generator into V."""
    _, pth_power = st._prime_powers(G)
    allowed = allowed[~mask.take(allowed) & mask.take(pth_power.take(allowed))]
    return allowed[mask.take(G.conjugates(gens, allowed)).all(axis=0)]


def _reference_grown(G, mask: np.ndarray, members: np.ndarray, z: int) -> np.ndarray:
    """Mask of V<z> for an extender z of V: the union of the cosets V z^i,
    one gather of V's ``members`` each, until z^i lies in V."""
    grown = mask.copy()
    e = z
    while not grown[e]:
        grown[G.mult[members, e]] = True
        e = G.mul(e, z)
    return grown


def reference_cyclic_extensions(G) -> list[bytes]:
    """Mask bytes of every subgroup reachable by cyclic extension, one
    subgroup at a time: each subgroup V of a layer, held as its mask's bytes
    and the generators it was grown with, is grown by each extender z in
    turn that no extension of V already made covers.  The loop the library
    ran before it grew a whole layer at once."""
    prime, _ = st._prime_powers(G)
    candidates = prime.nonzero()[0]
    trivial = np.zeros(G.order, dtype=bool)
    trivial[0] = True
    masks = []
    layer = {trivial.tobytes(): ()}
    while layer:
        masks += layer
        grown = {}
        for key, gens in layer.items():
            V = np.frombuffer(key, dtype=bool)
            members = V.nonzero()[0]
            covered = V.copy()
            for z in _reference_extenders(G, V, gens, candidates).tolist():
                if not covered[z]:
                    U = _reference_grown(G, V, members, z)
                    covered |= U
                    grown.setdefault(U.tobytes(), gens + (z,))
        layer = grown
    return masks


def reference_join_completion(G, masks: list[bytes]) -> list[bytes]:
    """Close the conjugation-closed ``masks`` under joins with all their
    cyclic subgroups: one subgroup of each conjugacy class, old or new, is
    joined with every cyclic subgroup through ``Group.closure``, and each new
    subgroup is added with all its conjugates.  The library joins only with
    cyclic subgroups of prime-power order; equal results show those suffice."""
    orders = G.element_orders()
    everything = np.arange(G.order)

    def conjugates(mask: np.ndarray) -> np.ndarray:
        out = np.zeros((G.order, G.order), dtype=bool)
        out[everything, G.conjugates(mask.nonzero()[0], everything)] = True
        return out

    views = [np.frombuffer(m, dtype=bool) for m in masks]
    cyclic = [m for m in views if (orders[m] == m.sum()).any()]
    found = set(masks)
    queue = []
    classed: set[bytes] = set()
    for key, m in zip(masks, views):
        if key not in classed:
            queue.append(m)
            classed.update(c.tobytes() for c in conjugates(m))
    while queue:
        current = queue.pop()
        for c in cyclic:
            if not (c & ~current).any():
                continue
            joined = np.zeros(G.order, dtype=bool)
            joined[G.closure(np.flatnonzero(current | c))] = True
            if joined.tobytes() in found:
                continue
            queue.append(joined)
            found.update(conj.tobytes() for conj in conjugates(joined))
    return list(found)


def reference_sylow_growth(G, within: Subgroup, p: int,
                           containing: Subgroup | None) -> Subgroup:
    """A Sylow p-subgroup of ``within`` grown from ``containing`` (default
    trivial) one Subgroup per step: P becomes P<z> for the least p-element z
    of ``within`` among P's extenders, and z joins the generators of
    ``containing``.  The rule as the library ran it with its own extender
    and coset-union helpers."""
    q = _p_part(within.order, p)
    if q == within.order:
        return within
    prime, _ = st._prime_powers(G)
    candidates = (within.mask & (prime == p)).nonzero()[0]
    P = st.trivial_subgroup(G) if containing is None else containing
    gens = P.generators
    while P.order < q:
        z = int(_reference_extenders(G, P.mask, gens, candidates)[0])
        P = Subgroup(G, _reference_grown(G, P.mask, P.members, z))
        gens += (z,)
    return P


def reference_criterion3(G, H) -> Verdict:
    """criterion3 as the library computed it before the vectorised core: an
    ascending loop over x, so the first violator is the least one."""
    for x in range(G.order):
        if H.mask[G.squares[x]] and _odd_and_no_involution(G, H, x):
            return Verdict(False, {"violating_x": x})
    return Verdict(True)


def reference_criterion4(G, H) -> Verdict:
    """criterion4 by the same loop, building the double coset HxH per x."""
    for x in range(G.order):
        double_coset = G.mult[np.ix_(H.members, G.mult[x, H.members])]
        if (double_coset == G.inv[x]).any() and _odd_and_no_involution(G, H, x):
            return Verdict(False, {"violating_x": x})
    return Verdict(True)


def _odd_and_no_involution(G, H, x) -> bool:
    """|H| / |H meet H^x| is odd and no y in Hx has y^2 = 1."""
    conjugates = G.mult[G.mult[G.inv[x], H.members], x]
    intersection = int(H.mask[conjugates].sum())
    if (H.order // intersection) % 2 == 0:
        return False
    return not (G.squares[G.mult[H.members, x]] == 0).any()


def reference_coset_criterion(G, H, method: str) -> Verdict:
    """criterion3 or criterion4 as the library computed them before the
    cheapest-first filters: one array expression over all x, with the
    double-coset labels for every x."""
    _require_subgroup_of(G, H)
    if method == "criterion3":
        return _coset_criterion(G, H, H.mask[G.squares])
    return _coset_criterion(G, H, _self_inverse_double_cosets(G, H))


def _self_inverse_double_cosets(G: Group, H: Subgroup) -> np.ndarray:
    """Mask of the x with x^-1 in HxH.  Double cosets partition G, so that is
    HxH = Hx^-1 H, decided by comparing least elements: the least element of
    HxH is the least over h of the least element of the right coset Hxh."""
    coset_min = G.mult[H.members, :].min(axis=0)
    label = coset_min[G.mult[:, H.members]].min(axis=1)
    return label == label[G.inv]


def _coset_criterion(G: Group, H: Subgroup, selected: np.ndarray) -> Verdict:
    """The coset condition of both criteria, over all x at once: every
    selected x with odd |H| / |H meet H^x| needs a y in Hx with y^2 = 1."""
    members = H.members
    odd = (H.order // H.mask[reference_conj_table(G)[:, members]].sum(axis=1)) % 2 == 1
    has_involution = (G.squares[G.mult[members, :]] == 0).any(axis=0)
    violating = np.flatnonzero(selected & odd & ~has_involution)
    if violating.size:
        return Verdict(False, {"violating_x": int(violating[0])})
    return Verdict(True)


def reference_transversal_search(G, H) -> np.ndarray | None:
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
    return np.array([assignment[k] for k in keys], dtype=np.int32)


def validate_transversal(G, H, reps) -> None:
    """Raise PreconditionError unless ``reps`` is an inverse-closed right
    transversal of H: |G:H| representatives whose cosets H t cover G, with
    the inverse of each among them.  The reference for what the Cayley route
    accepts, which checks none of this directly."""
    reps = np.asarray(reps).tolist()
    if len(reps) != G.order // H.order:
        raise PreconditionError("wrong number of coset representatives")
    if len({int(G.mult[h, t]) for h in H.members.tolist() for t in reps}) != G.order:
        raise PreconditionError("representatives do not cover every coset once")
    if not {int(G.inv[t]) for t in reps} <= set(reps):
        raise PreconditionError("representative set is not inverse-closed")


def cayley_verdict(G, H, reps) -> bool:
    """The Cayley route's verdict on the pair when the search returns ``reps``."""
    return report.ROUTES["cayley"](CatalogEntry(G.label, G), H, lambda: reps)["is_code"]


def reference_connection_set(G, H, reps) -> tuple[int, ...]:
    """The members of ``codes.connection_set_from_transversal`` as the
    library built them from tuples and sets: the representative in H
    swapped for the identity, the identity dropped, the rest sorted."""
    in_h = H.mask.tolist()
    reps = np.asarray(reps).tolist()
    h_rep = next(t for t in reps if in_h[t])
    return tuple(sorted({0 if t == h_rep else t for t in reps} - {0}))


def inverse_closed_subsets(G):
    """Yield the masks of all inverse-closed subsets of G minus the identity.

    Subsets are unions of basis blocks: singleton involutions and pairs
    {x, x^-1}; enumeration is by ascending bitmask over the block list.
    """
    blocks: list[np.ndarray] = []
    for x in range(1, G.order):
        ix = int(G.inv[x])
        if ix == x:
            blocks.append(np.array([x], dtype=np.int64))
        elif x < ix:
            blocks.append(np.array([x, ix], dtype=np.int64))
    for bits in range(1 << len(blocks)):
        mask = np.zeros(G.order, dtype=bool)
        b = bits
        i = 0
        while b:
            if b & 1:
                mask[blocks[i]] = True
            b >>= 1
            i += 1
        yield mask


def reference_exhaustive_search(G, H) -> ConnectionSet | None:
    """The exhaustive sweep as the library ran it before the block-count
    table: one mask at a time, each checked by the graph definition."""
    neighbours = G.mult[:, G.inv[H.members]]
    for mask in inverse_closed_subsets(G):
        counts = mask[neighbours].sum(axis=1)
        counts[H.members] += 1
        if (counts == 1).all():
            return ConnectionSet(G, np.flatnonzero(mask))
    return None


def family_rows(n2: int, m2: int):
    """(label, params, words) of every candidate of ``_family_table``, in
    enumeration order, with params a dict and words a pair of exponent
    triples, all of Python ints."""
    for label, names, values, words in _family_table(n2, m2):
        for row, pair in zip(values.tolist(), words.tolist()):
            yield label, dict(zip(names, row)), tuple(map(tuple, pair))


def reference_family_match(rec, H: Subgroup) -> FamilyMatch | None:
    """The first classified shape whose generated subgroup equals H, as
    ``_match_theorem_family`` found it before Burnside's test: each word
    evaluated by ``G.power``, the closure of each distinct generator pair,
    and member sets compared."""
    G = H.parent
    if H.is_trivial or H.is_full or H.is_cyclic:
        return None
    target = H.members.tobytes()
    for label, params, pair, members in G.memo(
            "reference_family_candidates", lambda: _reference_family_candidates(G, rec)):
        if members == target:
            return FamilyMatch(label, dict(params), pair)
    return None


def _reference_family_candidates(G, rec):
    def element(word) -> int:
        out = 0
        for g, exp in zip(rec.witness, word):
            out = G.mul(out, G.power(g, exp))
        return out

    candidates = []
    seen_pair: dict[tuple[int, int], bytes] = {}
    for label, params, words in family_rows(*rec.params):
        pair = tuple(element(word) for word in words)
        if pair not in seen_pair:
            seen_pair[pair] = G.closure(pair).tobytes()
        candidates.append((label, params, pair, seen_pair[pair]))
    return candidates


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


def reference_normalizer(G, H: Subgroup) -> Subgroup:
    """``structure.normalizer`` as the library computed it before it read
    H's generators only: the x with x^-1 h x in H for every member h."""
    ct = reference_conj_table(G)
    mask = H.mask[ct[:, H.members]].all(axis=1)
    return Subgroup(G, mask)


def reference_cayley_check(G, S: ConnectionSet, C: Subgroup) -> bool:
    """``codes.verify_perfect_code_in_cayley`` as the library computed it
    before it counted from the edge side: for each vertex g, the c in C with
    g c^-1 in S, from the |G| x |C| columns of the table."""
    mask = np.zeros(G.order, dtype=bool)
    mask[S.members] = True
    counts = mask[G.mult[:, G.inv[C.members]]].sum(axis=1)
    counts[C.members] += 1
    return bool((counts == 1).all())


def reference_squares_set(G) -> np.ndarray:
    """The indices of ``G.square_mask``, as the library computed them with
    np.unique."""
    return np.unique(G.squares)


def reference_commutators(G, members: np.ndarray) -> np.ndarray:
    """Sorted distinct commutators a^-1 b^-1 a b over members a, b, with
    np.unique: the commutator set the library once read G' and odd-p
    Frattini subgroups from."""
    a, b = members[:, None], members[None, :]
    return np.unique(G.mult[G.mult[G.inv[a], G.inv[b]], G.mult[a, b]])


def reference_is_abelian(G, members: np.ndarray) -> bool:
    """``Subgroup.is_abelian`` and ``Group.is_abelian`` as the library
    computed them before reading generators only: whether the |H| x |H|
    sub-table of the members is symmetric."""
    sub = G.mult[np.ix_(members, members)]
    return bool(np.array_equal(sub, sub.T))


def reference_derived_subgroup(G) -> Subgroup:
    """G' as ``structure.derived_subgroup`` computed it before the normal
    closure: the subgroup generated by all |G|^2 commutators."""
    return st.subgroup_generated(G, reference_commutators(G, np.arange(G.order)).tolist())


def reference_center(G) -> Subgroup:
    """The center as ``structure.center`` computed it before it went: the
    elements whose row of the table equals their column."""
    return Subgroup(G, (G.mult == G.mult.T).all(axis=1))


def reference_omega1(G) -> Subgroup:
    """The subgroup generated by all solutions of x*x = identity, as
    ``structure.omega1`` computed it before it went."""
    return st.subgroup_generated(G, st.involutions(G).tolist())


def reference_criterion3_on_pair(P: Subgroup, Q: Subgroup) -> Verdict:
    """criterion3 for Q viewed as a subgroup of the group P, as
    ``codes.criterion3_on_pair`` computed it before it went."""
    group, (inner,) = st.subgroup_as_group(P, Q)
    return criterion3(group, inner)


def reference_prime_power_table(G) -> tuple[np.ndarray, np.ndarray]:
    """``structure._prime_power_table`` as the library computed it with
    np.unique."""
    n = G.order
    idx = np.arange(n, dtype=np.int32)
    orders = G.element_orders()
    prime = np.zeros(n, dtype=np.int64)
    pth_power = np.zeros(n, dtype=np.int32)
    for k in np.unique(orders).tolist():
        pk = prime_power(k)
        if pk is not None:
            prime[orders == k] = pk[0]
    for p in np.unique(prime[prime > 0]).tolist():
        power = idx
        for _ in range(p - 1):
            power = G.mult[power, idx]
        pth_power[prime == p] = power[prime == p]
    return prime, pth_power


def reference_class_counts(G, is_code) -> tuple[int, int]:
    """(classes, code classes) of the subgroups of G, as the library counted
    them before orbit counting: list every conjugate of each new subgroup
    and ask ``is_code(H)`` of one subgroup per class."""
    ct = reference_conj_table(G)
    seen: set[bytes] = set()
    classes = code_classes = 0
    for H in all_subgroups(G):
        if H.mask.tobytes() in seen:
            continue
        classes += 1
        for x in range(G.order):
            conj = np.zeros(G.order, dtype=bool)
            conj[ct[x, H.members]] = True
            seen.add(conj.tobytes())
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


def reference_abelian_sylow2(G, H: Subgroup) -> ClassificationOutcome:
    """The abelian-Sylow rule as first written, on a Sylow 2-subgroup of G
    grown from one of H: H is a perfect code iff Q meet Phi(P) <= Phi(Q)."""
    P0 = sylow(G, 2)
    if P0.order == 1 or not P0.is_abelian:
        raise WrongClassifierError(
            f"classify_abelian_sylow2 requires a nontrivial abelian Sylow 2-subgroup, got {G.label}")
    Q = sylow(G, 2, within=H)
    P = sylow_containing(G, 2, Q)
    phi_p = frattini(P)
    phi_q = frattini(Q)
    ok = not (Q.mask & phi_p.mask & ~phi_q.mask).any()
    return ClassificationOutcome(ok, CLAUSE_SYLOW2)


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
            Q = sylow(G, p, within=H)
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


# The group constructors' multiplication formulas before the extension kernel
# (``groups._extension``), copied as they were; parameter checks are left out.

def reference_dihedral(order: int) -> Group:
    n = order // 2
    idx = np.arange(order)
    i1, j1 = (idx // 2)[:, None], (idx % 2)[:, None]
    i2, j2 = (idx // 2)[None, :], (idx % 2)[None, :]
    ii = (i1 + np.where(j1 == 1, -i2, i2)) % n
    jj = (j1 + j2) % 2
    witness = {"a": 2 if n >= 2 else 0, "b": 1}
    return Group(ii * 2 + jj, label=f"D({order})", witness=witness)


def reference_quaternion() -> Group:
    idx = np.arange(8)
    i1, j1 = (idx // 2)[:, None], (idx % 2)[:, None]
    i2, j2 = (idx // 2)[None, :], (idx % 2)[None, :]
    ii = (i1 + np.where(j1 == 1, -i2, i2) + 2 * (j1 & j2)) % 4
    jj = (j1 + j2) % 2
    return Group(ii * 2 + jj, label="Q8", witness={"a": 2, "b": 1})


def reference_metacyclic_m2(n1: int, m1: int) -> Group:
    na, nb = 2 ** n1, 2 ** m1
    r = 1 + 2 ** (n1 - 1)  # r*r = 1 mod 2^n1, so conjugation by any odd b-power is x -> x^r
    idx = np.arange(na * nb)
    i1, j1 = (idx // nb)[:, None], (idx % nb)[:, None]
    i2, j2 = (idx // nb)[None, :], (idx % nb)[None, :]
    ii = (i1 + i2 * np.where(j1 % 2 == 1, r, 1)) % na
    jj = (j1 + j2) % nb
    return Group(ii * nb + jj, label=f"M2({n1},{m1})",
                 witness={"a": nb, "b": 1})


def reference_direct_product(a: Group, b: Group) -> Group:
    n = a.order * b.order
    idx = np.arange(n)
    xa, ya = (idx // b.order)[:, None], (idx % b.order)[:, None]
    xb, yb = (idx // b.order)[None, :], (idx % b.order)[None, :]
    table = a.mult[xa, xb] * b.order + b.mult[ya, yb]
    return Group(table, label=f"{a.label} x {b.label}")


def reference_semidirect_product(normal: Group, acting: Group, action) -> Group:
    m = acting.order
    phi = _extend_action(normal, action)
    n = normal.order * m
    phi_pows = [np.arange(normal.order, dtype=np.int32)]
    for _ in range(m - 1):
        phi_pows.append(phi[phi_pows[-1]])
    phi_stack = np.stack(phi_pows)
    idx = np.arange(n)
    x1, y1 = (idx // m)[:, None], (idx % m)[:, None]
    x2, y2 = (idx // m)[None, :], (idx % m)[None, :]
    # (x1, y1)(x2, y2) = (x1 * phi^y1(x2), y1 + y2)
    table = normal.mult[x1, phi_stack[y1, x2]] * m + (y1 + y2) % m
    return Group(table, label=f"SD({normal.label};{acting.label})")


# The nonmetacyclic formula and the permutation-closure fill before both
# worked on int32 index vectors, copied as they were; parameter checks are
# left out.

def reference_nonmetacyclic_m2(n2: int, m2: int) -> Group:
    n2, m2 = sorted((n2, m2))
    na, nb = 2 ** n2, 2 ** m2
    idx = np.arange(na * nb * 2)
    i1, j1, k1 = (idx // (2 * nb))[:, None], ((idx // 2) % nb)[:, None], (idx % 2)[:, None]
    i2, j2, k2 = (idx // (2 * nb))[None, :], ((idx // 2) % nb)[None, :], (idx % 2)[None, :]
    ii = (i1 + i2) % na
    jj = (j1 + j2) % nb
    kk = (k1 + k2 + j1 * i2) % 2  # b^j a^i = a^i b^j c^(ij)
    return Group((ii * nb + jj) * 2 + kk, label=f"M2({n2},{m2},1)",
                 witness={"a": 2 * nb, "b": 2, "c": 1})


def reference_from_permutations(perms) -> Group:
    k = len(perms[0])
    gens: list[tuple[int, ...]] = []
    for p in perms:
        t = tuple(int(x) for x in p)
        if t not in gens:
            gens.append(t)
    identity = tuple(range(k))
    elems: list[tuple[int, ...]] = [identity]
    index = {identity: 0}
    queue = [identity]
    while queue:
        nxt: list[tuple[int, ...]] = []
        for x in queue:
            for g in gens:
                y = tuple(g[p] for p in x)
                if y not in index:
                    index[y] = len(elems)
                    elems.append(y)
                    nxt.append(y)
        queue = nxt
    n = len(elems)
    table = np.empty((n, n), dtype=np.int32)
    for i, u in enumerate(elems):
        for j, v in enumerate(elems):
            table[i, j] = index[tuple(v[p] for p in u)]
    return Group(table, label=f"perm[{n}]")
