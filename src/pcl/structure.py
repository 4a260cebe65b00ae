"""Subgroup computations: lattices, characteristic subgroups, recognizers.

Subgroups are dense membership masks over a fixed parent group.  The full
subgroup lattice is enumerated by cyclic extension (grow each subgroup V by
an element of prime-power order that normalizes it, as a union of cosets of
V), which is complete for solvable groups; a group that is not solvable gets
one join pass against its cyclic subgroups on top.  The lattice is cached on
the parent; Frattini and Sylow subgroups and the minimal nonabelian test come
from p-group identities and never build it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import PreconditionError, SizeLimitError
from .groups import Group, max_order, prime_power, sorted_distinct, _readonly


class Subgroup:
    """A subgroup of a fixed parent group, as a membership mask.

    Members are element indices of the parent.  Instances are immutable,
    hashable and compare equal exactly when they have the same parent object
    and the same member set.
    """

    __slots__ = ("parent", "mask", "members", "order", "mask_int", "_key", "_generators")

    def __init__(self, parent: Group, mask: np.ndarray):
        mask = np.array(mask, dtype=bool, copy=True)
        if mask.shape != (parent.order,):
            raise ValueError("mask length must equal the parent order")
        if not mask[0]:
            raise ValueError("a subgroup contains the identity")
        mask.setflags(write=False)
        members = np.flatnonzero(mask).astype(np.int32)
        members.setflags(write=False)
        self.parent = parent
        self.mask = mask
        self.members = members
        self.order = int(members.size)
        self.mask_int = int.from_bytes(np.packbits(mask).tobytes(), "big")
        self._key = (id(parent), self.mask_int)
        self._generators: tuple[int, ...] | None = None

    @property
    def generators(self) -> tuple[int, ...]:
        """The canonical generators: each member, ascending, that lies
        outside the subgroup generated by the members before it.  One greedy
        pass of ``Group.generate``, made on first read."""
        if self._generators is None:
            self._generators = self.parent.generate(self.members)[1]
        return self._generators

    def __eq__(self, other) -> bool:
        return isinstance(other, Subgroup) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __contains__(self, element: int) -> bool:
        return bool(self.mask[element])

    def __repr__(self) -> str:
        return f"<Subgroup of {self.parent.label}, order {self.order}>"

    def issubset(self, other: "Subgroup") -> bool:
        return (self.mask_int & ~other.mask_int) == 0

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    @property
    def is_full(self) -> bool:
        return self.order == self.parent.order

    @property
    def is_abelian(self) -> bool:
        sub = self.parent.mult[np.ix_(self.members, self.members)]
        return bool(np.array_equal(sub, sub.T))

    @property
    def is_cyclic(self) -> bool:
        return bool((self.parent.element_orders()[self.members] == self.order).any())

    def sort_key(self) -> tuple:
        return (self.order, tuple(self.members.tolist()))


def trivial_subgroup(G: Group) -> Subgroup:
    mask = np.zeros(G.order, dtype=bool)
    mask[0] = True
    return Subgroup(G, mask)


def full_subgroup(G: Group) -> Subgroup:
    return G.memo("full_subgroup", lambda: Subgroup(G, np.ones(G.order, dtype=bool)))


def subgroup_generated(G: Group, gens) -> Subgroup:
    """Smallest subgroup containing ``gens``."""
    return Subgroup(G, G.generate(gens)[0])


def all_subgroups(G: Group) -> list[Subgroup]:
    """Every subgroup of G exactly once, sorted by (order, member tuple).

    Cyclic extension (Neubüser 1960): starting from the trivial subgroup,
    each layer extends every subgroup V of the last layer by each element z
    of prime-power order that normalizes V, lies outside V and has z^p in V
    (p the prime of o(z)); then V<z> is the union of the p cosets V z^i,
    one ``Group.extend`` step.
    Every nontrivial solvable subgroup has a normal subgroup of prime index,
    so this reaches every subgroup of a solvable group.  For a group that is
    not solvable (the derived series decides), one join pass against the
    cyclic subgroups, seeded with what the extension found, completes the
    lattice.  Generators are the canonical ones of ``Subgroup``, so they do
    not depend on how the lattice was found.
    """
    return G.memo("lattice", lambda: _lattice(G))


def _lattice(G: Group) -> list[Subgroup]:
    if G.order > max_order():
        raise SizeLimitError(
            f"subgroup enumeration of order {G.order} exceeds PCL_MAX_ORDER={max_order()}")
    masks = _cyclic_extensions(G)
    if not _is_solvable(G):
        masks = _join_completion(G, masks)
    return sorted((Subgroup(G, mask) for mask in masks), key=Subgroup.sort_key)


def _cyclic_extensions(G: Group) -> list[np.ndarray]:
    """Membership masks of every subgroup reachable by cyclic extension."""
    n = G.order
    prime, pth_power = _prime_powers(G)
    candidates = np.flatnonzero(prime)
    ct = G.conj_table[candidates]
    trivial = np.zeros(n, dtype=bool)
    trivial[0] = True
    found = {trivial.tobytes(): trivial}
    layer = [trivial]
    while layer:
        next_layer = []
        for V in layer:
            members = np.flatnonzero(V)
            extends = (V[ct[:, members]].all(axis=1) & ~V[candidates]
                       & V[pth_power[candidates]])
            # z inside an extension V<y> already made gives V<z> = V<y>
            covered = V.copy()
            for z in candidates[extends].tolist():
                if covered[z]:
                    continue
                U = V.copy()
                G.extend(members, U, (z,))
                covered |= U
                key = U.tobytes()
                if key not in found:
                    found[key] = U
                    next_layer.append(U)
        layer = next_layer
    return list(found.values())


def _prime_powers(G: Group) -> tuple[np.ndarray, np.ndarray]:
    """(prime, pth_power): the prime p of each element of p-power order (0 for
    the identity and all other elements) and the p-th power of each."""
    return G.memo("prime_powers", lambda: _prime_power_table(G))


def _prime_power_table(G: Group) -> tuple[np.ndarray, np.ndarray]:
    n = G.order
    idx = np.arange(n, dtype=np.int32)
    orders = G.element_orders()
    prime = np.zeros(n, dtype=np.int64)
    pth_power = np.zeros(n, dtype=np.int32)
    # element orders and their primes lie in range(n + 1)
    for k in sorted_distinct(orders, n + 1).tolist():
        pk = prime_power(k)
        if pk is not None:
            prime[orders == k] = pk[0]
    for p in sorted_distinct(prime[prime > 0], n + 1).tolist():
        power = idx
        for _ in range(p - 1):
            power = G.mult[power, idx]
        pth_power[prime == p] = power[prime == p]
    return _readonly(prime), _readonly(pth_power)


def _is_solvable(G: Group) -> bool:
    """Whether the derived series of G, from the memoised G', reaches the
    trivial subgroup."""
    previous, members = G.order, derived_subgroup(G).members
    while 1 < members.size < previous:
        previous, members = members.size, G.closure(_commutators(G, members))
    return members.size == 1


def _commutators(G: Group, members: np.ndarray) -> np.ndarray:
    """Sorted distinct commutators a^-1 b^-1 a b over members a, b."""
    a, b = members[:, None], members[None, :]
    return sorted_distinct(G.mult[G.mult[G.inv[a], G.inv[b]], G.mult[a, b]], G.order)


def _join_completion(G: Group, masks: list[np.ndarray]) -> list[np.ndarray]:
    """Close the conjugation-closed ``masks`` under joins with their cyclic
    subgroups.

    Every nontrivial subgroup is the join of a maximal subgroup and a cyclic
    subgroup, and joins commute with conjugation, so joining one subgroup of
    each conjugacy class, old or new, with every cyclic subgroup, and adding
    each new subgroup with all its conjugates, reaches the whole lattice.
    """
    orders = G.element_orders()
    ct = G.conj_table
    rows = np.arange(G.order)[:, None]

    def conjugates(mask: np.ndarray) -> np.ndarray:
        out = np.zeros((G.order, G.order), dtype=bool)
        out[rows, ct[:, mask]] = True
        return out

    cyclic = [m for m in masks if (orders[m] == m.sum()).any()]
    found = {m.tobytes(): m for m in masks}
    queue = []
    classed: set[bytes] = set()
    for m in masks:
        if m.tobytes() not in classed:
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
            for conj in conjugates(joined):
                found.setdefault(conj.tobytes(), conj)
    return list(found.values())


def maximal_subgroups(H: Subgroup) -> list[Subgroup]:
    """Maximal proper subgroups of H, from the parent lattice."""
    proper = [S for S in all_subgroups(H.parent)
              if S.order < H.order and (S.mask_int & ~H.mask_int) == 0]
    proper.sort(key=lambda s: -s.order)
    return [S for S in proper
            if not any(T.order > S.order and (S.mask_int & ~T.mask_int) == 0
                       for T in proper)]


def frattini(H: Subgroup) -> Subgroup:
    """Phi(H) of the p-group H: by Burnside, the subgroup generated by the
    p-th powers and commutators of H, or by the squares alone when p = 2.
    Trivial H gives H itself; H of order divisible by two primes raises
    ``PreconditionError``."""
    return H.parent.memo(("frattini", H.mask_int), lambda: _frattini(H))


def _frattini(H: Subgroup) -> Subgroup:
    if H.order == 1:
        return H
    if prime_power(H.order) is None:
        raise PreconditionError(f"frattini requires a p-group, got order {H.order}")
    G = H.parent
    _, pth_power = _prime_powers(G)
    gens = pth_power[H.members]
    # for p = 2 the squares suffice: [a, b] = a^-2 (ab^-1)^2 b^2
    if H.order % 2:
        gens = sorted_distinct(np.concatenate((gens, _commutators(G, H.members))),
                               G.order)
    return subgroup_generated(G, gens.tolist())


def derived_subgroup(G: Group) -> Subgroup:
    """Subgroup generated by all commutators."""
    return G.memo("derived", lambda: subgroup_generated(
        G, _commutators(G, np.arange(G.order)).tolist()))


def center(G: Group) -> Subgroup:
    return G.memo("center", lambda: Subgroup(G, (G.mult == G.mult.T).all(axis=1)))


def normalizer(G: Group, H: Subgroup) -> Subgroup:
    ct = G.conj_table
    mask = H.mask[ct[:, H.members]].all(axis=1)
    return Subgroup(G, mask)


def _p_part(n: int, p: int) -> int:
    q = 1
    while n % (q * p) == 0:
        q *= p
    return q


def sylow(G: Group, p: int) -> Subgroup:
    """A Sylow p-subgroup of G, grown as in ``_sylow_within``."""
    if prime_power(p) != (p, 1):
        raise PreconditionError(f"sylow requires a prime, got {p}")
    return G.memo(("sylow", p), lambda: _sylow_within(G, full_subgroup(G), p, None))


def sylow_containing(G: Group, p: int, Q: Subgroup) -> Subgroup:
    """A Sylow p-subgroup of G containing the p-group Q, grown from Q."""
    if prime_power(p) != (p, 1):
        raise PreconditionError(f"sylow_containing requires a prime, got {p}")
    if Q.order != 1:
        pk = prime_power(Q.order)
        if pk is None or pk[0] != p:
            raise PreconditionError(
                f"sylow_containing requires a {p}-subgroup, got order {Q.order}")
    return _sylow_within(G, full_subgroup(G), p, Q)


def _sylow_within(G: Group, within: Subgroup, p: int,
                  containing: Subgroup | None) -> Subgroup:
    """A Sylow p-subgroup of ``within`` grown from its p-subgroup
    ``containing`` (default trivial): P becomes P<z>, the union of the cosets
    P z^i found by one ``Group.extend`` step, for the least p-element z of
    ``within`` that normalizes P, lies outside P and has z^p in P.  Such a z
    exists until P is Sylow, since P lies in a Sylow subgroup S and N_S(P)/P
    is a nontrivial p-group."""
    q = _p_part(within.order, p)
    if q == within.order:
        return within
    prime, pth_power = _prime_powers(G)
    candidates = np.flatnonzero(within.mask & (prime == p))
    P = trivial_subgroup(G) if containing is None else containing
    while P.order < q:
        extends = (P.mask[G.conj_table[np.ix_(candidates, P.members)]].all(axis=1)
                   & ~P.mask[candidates] & P.mask[pth_power[candidates]])
        z = int(candidates[np.argmax(extends)])
        mask = P.mask.copy()
        G.extend(P.members, mask, (z,))
        P = Subgroup(G, mask)
    return P


def involutions(G: Group) -> np.ndarray:
    """Indices of all solutions of x*x = identity, the identity included."""
    return np.flatnonzero(G.squares == 0).astype(np.int32)


def omega1(G: Group) -> Subgroup:
    """Subgroup generated by all solutions of x*x = identity."""
    return subgroup_generated(G, involutions(G).tolist())


def min_generators(H: Subgroup) -> int:
    """Minimal number of generators d(H).

    For p-groups this is log_p of the index of the Frattini subgroup
    (Burnside basis); otherwise a direct search over generating sets.
    """
    if H.order == 1:
        return 0
    pk = prime_power(H.order)
    if pk is not None:
        p, _ = pk
        quotient = H.order // frattini(H).order
        d = 0
        while quotient > 1:
            quotient //= p
            d += 1
        return d
    G = H.parent
    candidates = [int(m) for m in H.members if m != 0]
    for k in range(1, len(candidates) + 1):
        for combo in combinations(candidates, k):
            if G.closure(combo).size == H.order:
                return k
    raise RuntimeError("generator search failed")


def is_minimal_nonabelian(G: Group) -> bool:
    """Whether the p-group G is nonabelian with every proper subgroup abelian:
    by Rédei, exactly when it is nonabelian, |G'| = p and d(G) = 2.  G of
    order divisible by two primes raises ``PreconditionError``."""
    pk = prime_power(G.order)
    if pk is None and G.order > 1:
        raise PreconditionError(
            f"is_minimal_nonabelian requires a p-group, got order {G.order}")
    if G.is_abelian:
        return False
    return (derived_subgroup(G).order == pk[0]
            and min_generators(full_subgroup(G)) == 2)


@dataclass(frozen=True)
class FamilyRecognition:
    """Outcome of testing a 2-group against the minimal nonabelian families.

    ``tag`` is one of 'abelian', 'q8', 'metacyclic', 'nonmetacyclic' or
    'not_a1_or_a0'.  For the family tags, ``params`` holds the recovered
    exponent parameters and ``witness`` generator indices (a, b) or (a, b, c)
    that verify the defining relations and generate the group.
    """

    tag: str
    params: tuple[int, int] | None = None
    witness: tuple[int, ...] = ()


def _is_2group(G: Group) -> bool:
    return (G.order & (G.order - 1)) == 0


def recognize_a1_family(G: Group) -> FamilyRecognition:
    """Identify an abelian or minimal nonabelian 2-group, with witnesses.

    Above order 8 the family follows from the number of solutions of
    x^2 = 1 (4 metacyclic, 8 nonmetacyclic) and its parameters from the
    order and the exponent; where two metacyclic parameter pairs fit, the
    witness search decides.  The witness is the least generating pair
    satisfying the family's relations (``_least_generating_pair``).  The
    recognition is kept in the group memo, so every caller reads the same
    one.
    """
    if not _is_2group(G):
        raise PreconditionError(f"recognize_a1_family requires a 2-group, got order {G.order}")
    return G.memo("a1_recognition", lambda: _recognize_a1(G))


def _recognize_a1(G: Group) -> FamilyRecognition:
    if G.is_abelian:
        return FamilyRecognition("abelian")
    if not is_minimal_nonabelian(G):
        return FamilyRecognition("not_a1_or_a0")
    if G.order == 8:
        if involutions(G).size == 2:  # unique involution
            return FamilyRecognition("q8", None, _quaternion_pair(G))
        return FamilyRecognition("metacyclic", (2, 1), _metacyclic_pair(G, 2, 1))
    # above order 8 the solutions of x^2 = 1 form Omega_1, of order 4 in the
    # metacyclic family and 8 in the nonmetacyclic one; the exponent 2^e is
    # the larger generator order
    solutions = involutions(G).size
    log_order = G.order.bit_length() - 1
    e = int(G.element_orders().max()).bit_length() - 1
    if solutions == 4:
        for n1, m1 in sorted({(e, log_order - e), (log_order - e, e)}):
            witness = _metacyclic_pair(G, n1, m1)
            if witness is not None:
                return FamilyRecognition("metacyclic", (n1, m1), witness)
    elif solutions == 8:
        witness = _nonmetacyclic_triple(G, log_order - 1 - e, e)
        if witness is not None:
            return FamilyRecognition("nonmetacyclic", (log_order - 1 - e, e), witness)
    raise RuntimeError(f"minimal nonabelian 2-group {G.label} matched no family")


def _least_generating_pair(G: Group, order_a: int, order_b: int,
                           relation) -> tuple[int, int] | None:
    """The least (a, b), by a and then by b, with o(a) = ``order_a``,
    o(b) = ``order_b``, ``relation(a, b)`` and <a, b> = G; None if there is
    none.  ``relation`` takes one a and the array of every candidate b and
    returns a mask over that array."""
    orders = G.element_orders()
    bs = np.flatnonzero(orders == order_b)
    for a in np.flatnonzero(orders == order_a).tolist():
        for b in bs[relation(a, bs)].tolist():
            if G.closure([a, b]).size == G.order:
                return a, b
    return None


def _quaternion_pair(G: Group) -> tuple[int, int] | None:
    """a, b of order 4 with b^2 = a^2 and a^b = a^-1."""
    return _least_generating_pair(G, 4, 4, lambda a, b: (
        (G.squares[b] == G.squares[a]) & (G.conj_table[b, a] == G.inv[a])))


def _metacyclic_pair(G: Group, n1: int, m1: int) -> tuple[int, int] | None:
    """a of order 2^n1, b of order 2^m1 with a^b = a^(1 + 2^(n1-1))."""
    return _least_generating_pair(G, 2 ** n1, 2 ** m1, lambda a, b: (
        G.conj_table[b, a] == G.power(a, 1 + 2 ** (n1 - 1))))


def _nonmetacyclic_triple(G: Group, n2: int, m2: int) -> tuple[int, int, int] | None:
    """a of order 2^n2, b of order 2^m2 whose commutator c = [a, b] is an
    involution commuting with a and b; the triple (a, b, c)."""
    mult = G.mult

    def relation(a, b):
        c = mult[G.inv[a], G.conj_table[b, a]]
        return ((c != 0) & (G.squares[c] == 0) & (mult[a, c] == mult[c, a])
                & (mult[b, c] == mult[c, b]))

    pair = _least_generating_pair(G, 2 ** n2, 2 ** m2, relation)
    return None if pair is None else pair + (G.commutator(*pair),)


def recognize_dihedral(G: Group) -> tuple[int, int] | None:
    """The least (a, b) with o(a) = |G|/2, b an involution inverting a and
    <a, b> = G, if any."""
    if G.order % 2 != 0:
        return None
    return G.memo("dihedral_witness", lambda: _least_generating_pair(
        G, G.order // 2, 2, lambda a, b: G.conj_table[b, a] == G.inv[a]))


def subgroup_as_group(P: Subgroup, *inner: Subgroup) -> tuple[Group, list[Subgroup]]:
    """Re-index a subgroup as a standalone group; map inner subgroups along."""
    G = P.parent
    members = P.members
    position = np.full(G.order, -1, dtype=np.int32)
    position[members] = np.arange(members.size, dtype=np.int32)
    table = position[G.mult[np.ix_(members, members)]]
    group = Group(table, label=f"{G.label}|{P.order}")
    mapped = []
    for Q in inner:
        if (Q.mask_int & ~P.mask_int) != 0:
            raise PreconditionError("inner subgroup is not contained in the restriction")
        mask = np.zeros(members.size, dtype=bool)
        mask[position[Q.members]] = True
        mapped.append(Subgroup(group, mask))
    return group, mapped
