"""Decide whether a subgroup is a perfect code in some Cayley graph.

Four independent routes are implemented and cross-checked elsewhere:

* ``criterion3`` and ``criterion4``: coset conditions quantified over group
  elements (an involution, identity allowed, must sit in certain cosets).
* ``find_inverse_closed_transversal``: an exact backtracking search for a
  system of right-coset representatives closed under inversion.  Existence of
  such a transversal is equivalent to the subgroup being a perfect code.
* ``verify_perfect_code_in_cayley``: the graph definition itself, checked
  vertex by vertex against an explicit connection set: each vertex's count of
  code elements at distance at most 1 is read off the products of S and the
  identity by the subgroup, one (|S| + 1) x |H| gather, about |G| entries,
  not |G| x |H|.  This is the single source of definitional truth; positive
  verdicts from the other routes are turned into a connection set and
  re-verified here, which alone proves a transversal one, and for groups of
  order up to SWEEP_MAX_ORDER, the only ones it takes, an exhaustive sweep
  over all inverse-closed connection sets refutes negatives.
  The sweep checks every set, in a fixed order, against the definition:
  one table holds every set's domination counts, each row the sum of its
  blocks' rows of per-block counts (``hits``), plus one for the vertices in
  the subgroup.  It uses neither the transversal lemma nor the criteria,
  and the set it finds is re-verified like any other positive.

Every sub-table of chosen rows and columns a route reads per pair goes
through ``groups.gather``; the coset keys, from H's whole rows of the table,
are read with ``take``.  The coset keys, the products H * I, criterion4's
products xs * H and the odd-index test's conjugates are read in the row
blocks of ``groups._blocks``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, SizeLimitError
from .groups import Group, _blocks, _readonly, gather, index_mask, sorted_distinct
from .structure import (Subgroup, involutions, normalizer, _require_subgroup_of,
                        _sylow_within)

SWEEP_MAX_ORDER = 16  # the sweep's 2^k x |G| counts: 512 KiB on EA(2,4), 2 MiB on C(32)


@dataclass(frozen=True, eq=False)
class ConnectionSet:
    """An inverse-closed, identity-free set without repeats, read-only int32
    ascending, each rule read off the set's one mask over G."""

    parent: Group
    members: np.ndarray

    def __post_init__(self):
        G = self.parent
        values = _element_indices(G, self.members)
        mask = index_mask(values, G.order)
        if mask[0]:
            raise PreconditionError("a connection set may not contain the identity")
        members = mask.nonzero()[0].astype(np.int32)  # ascending
        if members.size != values.size:
            raise PreconditionError("a connection set may not repeat a member")
        if not mask.take(G.inv.take(members)).all():
            raise PreconditionError("a connection set must be inverse-closed")
        object.__setattr__(self, "members", _readonly(members))


def _element_indices(G: Group, values) -> np.ndarray:
    """``values`` as int32, checked against range(|G|) first, as the cast
    wraps 2^32 + 2 to 2; as uint64, a negative value reads past 2^63."""
    values = np.asarray(values)
    if values.size and (values.dtype.kind not in "iu"
                        or values.astype(np.uint64).max() >= G.order):
        raise PreconditionError(f"evidence holds a value that is no index in range({G.order})")
    return values.astype(np.int32, copy=False)


@dataclass(frozen=True)
class Verdict:
    is_code: bool
    evidence: dict | None = None


def criterion3(G: Group, H: Subgroup) -> Verdict:
    """Coset test: every x with x^2 in H and odd |H| / |H meet H^x| must have
    a solution of y^2 = 1 in the coset Hx.  Fails with the least violating x."""
    _require_subgroup_of(G, H)
    xs = _without_involution_in_coset(G, H)
    xs = xs[H.mask.take(G.squares.take(xs))]
    return _odd_index_verdict(G, H, xs)


def criterion4(G: Group, H: Subgroup) -> Verdict:
    """Double-coset variant: x ranges over elements with HxH = Hx^-1 H (placed
    by membership of x^-1 in HxH) and odd |H| / |H meet H^x|."""
    _require_subgroup_of(G, H)
    xs = _without_involution_in_coset(G, H)
    if xs.size:
        xs = xs[_self_inverse_double_cosets(G, H, xs)]
    return _odd_index_verdict(G, H, xs)


def _without_involution_in_coset(G: Group, H: Subgroup) -> np.ndarray:
    """The x, ascending, whose coset Hx holds no y with y^2 = 1: the x outside
    H * I for the solutions I of y^2 = 1, gathered in blocks of H's rows."""
    solutions = involutions(G)
    covered = np.zeros(G.order, dtype=bool)
    for rows in _blocks(H.order, solutions.size):
        covered[gather(G.mult, H.members[rows], solutions)] = True
    return (~covered).nonzero()[0]


def _self_inverse_double_cosets(G: Group, H: Subgroup, xs: np.ndarray) -> np.ndarray:
    """Mask over ``xs`` of the x with x^-1 in HxH.  HxH is the union of the
    right cosets Hxh, so that holds exactly when the key of Hx^-1 is the key
    of some Hxh, read in blocks of the rows xs of the |xs| x |H| products.
    ``xs`` must not be empty: no rows make no block to concatenate."""
    key = _coset_keys(G, H)
    inverse_key = key.take(G.inv.take(xs))
    return np.concatenate([(key.take(gather(G.mult, xs[rows], H.members))
                            == inverse_key[rows, None]).any(axis=1)
                           for rows in _blocks(xs.size, H.order)])


def _coset_keys(G: Group, H: Subgroup) -> np.ndarray:
    """The key of each right coset Hg, its least element, at every g: the
    column minima of H's rows of the table, read in row blocks."""
    blocks = iter(_blocks(H.order, G.order))
    key = G.mult.take(H.members[next(blocks)], 0).min(axis=0)
    for rows in blocks:
        np.minimum(key, G.mult.take(H.members[rows], 0).min(axis=0), out=key)
    return key


def _odd_index_verdict(G: Group, H: Subgroup, xs: np.ndarray) -> Verdict:
    """A criterion's verdict from ``xs``, ascending, the x that its other
    tests leave: the least x with odd |H| / |H meet H^x| violates.

    An x normalizing H has H^x = H, index 1, so it violates, and that is
    read from H's d generators: the least normalizing x bounds the search,
    and only the x before it, none normalizing H, read their |H| conjugates,
    in ascending blocks of x; when the least x normalizes H there are none.
    """
    if xs.size:
        normalizing = H.mask.take(G.conjugates(H.generators, xs)).all(axis=0).nonzero()[0]
        first = int(normalizing[0]) if normalizing.size else xs.size
        for rows in _blocks(first, H.order):
            rest = xs[rows]
            meet = H.mask.take(G.conjugates(H.members, rest)).sum(axis=0)
            violating = rest[(H.order // meet) % 2 == 1]
            if violating.size:
                return Verdict(False, {"violating_x": int(violating[0])})
        if first < xs.size:
            return Verdict(False, {"violating_x": int(xs[first])})
    return Verdict(True)


def find_inverse_closed_transversal(G: Group, H: Subgroup) -> np.ndarray | None:
    """Exact backtracking search for an inverse-closed right transversal: its
    representatives, one per coset by ascending coset key, as a read-only
    int32 array, or None when there is none.

    Choosing representative t for a coset forces t^-1 as the representative
    of the coset of t^-1, its partner.  A coset Hk is uniform when the
    inverses of all its elements lie in one coset, which holds exactly when
    k normalizes H (every coset of a normal H is uniform), and split when
    they do not.  Uniform cosets are decided in closed form from the coset
    keys, each coset's least element: a coset that is its own partner takes
    its least self-inverse element (with none, there is no transversal), and
    two uniform cosets K < L that are each other's partner take k and k^-1.
    The partner of a uniform coset is uniform, so no choice for one ever
    touches a split coset.

    For the split cosets, which partner a choice forces depends on the
    candidate, so the forcing is per candidate.  One table holds each split
    coset's admissible (t, partner) pairs, t ascending: a t whose inverse is
    another element of its own coset never is one.  Cosets linked by
    t -> partner form components, and no choice in one changes another's
    candidates, so each component is decided alone, by one search.

    Each component is extended fewest-viable-candidates first (ties broken
    by least key, candidates tried ascending), so a coset with no admissible
    representative fails the branch immediately; with a fixed canonical
    order instead, such a coset deep in the order makes refutations
    exponential.  The search is exact and deterministic, and its result is
    not kept.
    """
    _require_subgroup_of(G, H)
    return _transversal_search(G, H)


def _transversal_search(G: Group, H: Subgroup) -> np.ndarray | None:
    key = _coset_keys(G, H)
    partner = key.take(G.inv)  # the coset of g^-1
    keys = (key == np.arange(G.order, dtype=np.int32)).nonzero()[0]  # ascending
    # Hk is split when some g in it has g^-1 outside the coset of k^-1
    split_keys = key[partner != partner.take(key)]
    uniform = keys
    if split_keys.size:
        split = index_mask(split_keys, G.order)
        uniform = keys[~split.take(keys)]
    inv = memoryview(G.inv)
    assignment: dict[int, int] = {}
    own = None  # the least self-inverse element of each coset holding one
    for k, p in zip(uniform.tolist(), partner.take(uniform).tolist()):
        if p != k:  # Hk and Hp are each other's inverses: they take k and k^-1
            if k < p:
                assignment[k], assignment[p] = k, inv[k]
        elif inv[k] == k:  # a lone coset takes its least self-inverse element
            assignment[k] = k
        else:
            if own is None:
                solutions = involutions(G)[::-1]  # the least is written last
                own = dict(zip(key.take(solutions).tolist(), solutions.tolist()))
            if k not in own:
                return None
            assignment[k] = own[k]
    if split_keys.size and not _split_coset_search(
            key.tolist(), inv, split.take(key).nonzero()[0].tolist(), assignment):
        return None
    return _readonly(np.array([assignment[k] for k in keys.tolist()], dtype=np.int32))


def _split_coset_search(coset: list[int], inv, elements: list[int],
                        assignment: dict[int, int]) -> bool:
    """Extend ``assignment`` to the split cosets, whose ``elements`` are
    given ascending, with ``coset`` the key of every element: False when
    some component of them has no choice.  Each component is found by one
    walk from its least key and then searched by ``_backtrack`` from its
    first level: components are disjoint and no uniform coset partners a
    split one, so none of its keys is assigned yet."""
    table: dict[int, list[tuple[int, int]]] = {}  # by ascending coset key
    for t in elements:
        k, i = coset[t], inv[t]
        p = coset[i]
        if k not in table:
            table[k] = []
        if p != k or i == t:
            table[k].append((t, p))

    for root in table:  # the least key of its component
        if root in assignment:
            continue
        component, stack = {root}, [root]
        while stack:
            for _, p in table[stack.pop()]:
                if p not in component:
                    component.add(p)
                    stack.append(p)
        if not _backtrack(table, inv, sorted(component), assignment, True):
            return False
    return True


def _backtrack(table, inv, component: list[int], assignment: dict[int, int],
               first: bool = False) -> bool:
    """Extend ``assignment`` to the cosets of ``component``, fewest viable
    candidates first.  On the ``first`` level none of the component's keys
    is assigned, so no candidate's partner is taken and every list in
    ``table`` is read as it stands.  A module function, not a closure over
    the search's table: a closure that calls itself is a reference cycle,
    which keeps the table alive until the cycle collector runs."""
    # both ends of a pair are written at once, so a partner not yet
    # assigned is free
    best_key, best = None, None
    for key in component:
        if not first and key in assignment:
            continue
        cands = table[key] if first else [
            (t, p) for t, p in table[key] if p == key or p not in assignment]
        if best is None or len(cands) < len(best):
            best_key, best = key, cands
            if not cands:
                return False
    if best_key is None:
        return True
    for t, p in best:
        assignment[best_key], assignment[p] = t, inv[t]
        if _backtrack(table, inv, component, assignment):
            return True
        del assignment[best_key]
        assignment.pop(p, None)
    return False


def connection_set_from_transversal(G: Group, H: Subgroup, reps) -> ConnectionSet:
    """The representatives S in ``reps`` outside H, a witness for H once
    ``verify_perfect_code_in_cayley`` accepts it.  ``reps`` must be |G:H|
    indices in range(|G|), one in H and self-inverse, and ``ConnectionSet``
    makes S inverse-closed.  If S passes the definition, each g outside H is
    s c in one way, so S and 1 form a left transversal, and a right one, S
    being inverse-closed: ``reps`` is an inverse-closed right transversal
    exactly when it passes all."""
    _require_subgroup_of(G, H)
    reps = _element_indices(G, reps)
    if reps.size != G.order // H.order:
        raise PreconditionError("wrong number of coset representatives")
    in_h = H.mask.take(reps)
    inside = reps[in_h]
    if inside.size != 1 or G.inv[inside[0]] != inside[0]:
        raise PreconditionError("a transversal needs one self-inverse representative in H")
    return ConnectionSet(G, reps[~in_h])


def verify_perfect_code_in_cayley(G: Group, S: ConnectionSet, C: Subgroup) -> bool:
    """Definition check: every vertex is at distance at most 1 from exactly
    one element of C in the Cayley graph with connection set S.  Vertex g is
    adjacent to c when g c^-1 lies in S, that is when g = s c for some s in
    S, and at distance 0 from c when g = c, the product 1 c.  So the counts
    are read from the edge side: each product of S and the identity by C,
    one (|S| + 1) x |C| gather, adds 1 to its vertex, in one ``bincount``."""
    if S.parent is not G:
        raise PreconditionError("connection set belongs to a different group object")
    _require_subgroup_of(G, C)
    products = gather(G.mult, np.concatenate(([0], S.members)), C.members)
    return bool((np.bincount(products.ravel(), minlength=G.order) == 1).all())


def exhaustive_connection_set_search(G: Group, H: Subgroup) -> ConnectionSet | None:
    """Brute force over every inverse-closed S: first S realizing H as a
    perfect code, or None after exhausting all of them.

    The sets are the unions of blocks, the involutions {x} and the pairs
    {x, x^-1} in ascending order of their least element, taken by ascending
    bitmask over that block list.  With ``hits[b, g]`` the number of c in H
    for which g c^-1 lies in block b, the domination counts of the set with
    bitmask m are row m of one table: row 0 is [g in H], and rows
    [2^i, 2^(i+1)) are rows [0, 2^i) plus ``hits[i]``, written in place.  H
    is a perfect code with set m exactly when row m's minimum and maximum
    are both 1.  An order above SWEEP_MAX_ORDER is refused before any table.
    """
    _require_subgroup_of(G, H)
    if G.order > SWEEP_MAX_ORDER:
        raise SizeLimitError(f"sweep of order {G.order} exceeds SWEEP_MAX_ORDER={SWEEP_MAX_ORDER}")
    elements = np.arange(1, G.order)
    least = elements[G.inv[elements] >= elements]  # of each block, ascending
    k = least.size
    block = np.full(G.order, -1)  # the identity is in no block
    block[least] = block[G.inv[least]] = np.arange(k)
    # the smallest dtype for counts, which never exceed |H| + 1
    hits = (block[G.mult[:, G.inv[H.members]]] == np.arange(k)[:, None, None]
            ).sum(axis=2, dtype=np.min_scalar_type(H.order + 1))
    counts = np.empty((1 << k, G.order), dtype=hits.dtype)
    counts[0] = H.mask
    for i, row in enumerate(hits):
        np.add(counts[:1 << i], row, out=counts[1 << i:2 << i])
    found = np.flatnonzero((counts.min(axis=1) == 1) & (counts.max(axis=1) == 1))
    if not found.size:
        return None
    chosen = least[int(found[0]) >> np.arange(k) & 1 == 1]
    return ConnectionSet(G, sorted_distinct(np.concatenate((chosen, G.inv[chosen])), G.order))


def zhang_reduce(G: Group, H: Subgroup) -> tuple[Subgroup, Subgroup]:
    """Reduce the perfect-code question to a pair of 2-groups.

    Returns (Q, P) with Q a Sylow 2-subgroup of H, grown from the trivial
    subgroup, and P a Sylow 2-subgroup of the normalizer of Q grown from Q.
    H is a perfect code of G exactly when Q is a perfect code of P; the
    choice of Sylow subgroups does not affect that verdict.
    """
    _require_subgroup_of(G, H)
    Q = _sylow_within(G, H, 2, None)
    return Q, _sylow_within(G, normalizer(G, Q), 2, Q)


def order4_witness(G: Group) -> int | None:
    """The least element of order 4, if any.  Every subgroup of G is a
    perfect code exactly when there is none."""
    hits = np.flatnonzero(G.element_orders() == 4)
    return int(hits[0]) if hits.size else None
