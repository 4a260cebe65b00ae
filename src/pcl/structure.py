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
from .groups import Group, max_order, prime_power, _is_prime, _readonly


class Subgroup:
    """A subgroup of a fixed parent group, as a membership mask.

    Members and generators are element indices of the parent; ``closure`` of
    the generators equals the member set.  Instances are immutable, hashable
    and compare equal exactly when they have the same parent object and the
    same member set.
    """

    __slots__ = ("parent", "mask", "members", "order", "generators", "mask_int", "_key")

    def __init__(self, parent: Group, mask: np.ndarray,
                 generators: tuple[int, ...] | None = None):
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
        if generators is None:
            generators = _reduced_generators(parent, members)
        self.generators = tuple(int(g) for g in generators)
        self.mask_int = int.from_bytes(np.packbits(mask).tobytes(), "big")
        self._key = (id(parent), self.mask_int)

    def __eq__(self, other) -> bool:
        return isinstance(other, Subgroup) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __contains__(self, element: int) -> bool:
        return bool(self.mask[element])

    def __repr__(self) -> str:
        return f"<Subgroup of {self.parent.label}, order {self.order}>"

    def __le__(self, other: "Subgroup") -> bool:
        return self.issubset(other)

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


def _reduced_generators(G: Group, members: np.ndarray) -> tuple[int, ...]:
    gens: list[int] = []
    closed = np.zeros(G.order, dtype=bool)
    closed[0] = True
    for m in members.tolist():
        if not closed[m]:
            gens.append(int(m))
            closed[:] = False
            closed[G.closure(gens)] = True
    return tuple(gens)


def trivial_subgroup(G: Group) -> Subgroup:
    mask = np.zeros(G.order, dtype=bool)
    mask[0] = True
    return Subgroup(G, mask, generators=())


def full_subgroup(G: Group) -> Subgroup:
    return G.memo("full_subgroup", lambda: Subgroup(G, np.ones(G.order, dtype=bool)))


def subgroup_generated(G: Group, gens) -> Subgroup:
    """Smallest subgroup containing ``gens`` (closure by repeated squaring of
    the product set)."""
    gens = sorted({int(g) for g in gens} - {0})
    members = G.closure(gens)
    mask = np.zeros(G.order, dtype=bool)
    mask[members] = True
    return Subgroup(G, mask, generators=tuple(gens))


def all_subgroups(G: Group) -> list[Subgroup]:
    """Every subgroup of G exactly once, sorted by (order, member tuple).

    Cyclic extension (Neubüser 1960): starting from the trivial subgroup,
    each layer extends every subgroup V of the last layer by each element z
    of prime-power order that normalizes V, lies outside V and has z^p in V
    (p the prime of o(z)); then V<z> is the union of the p cosets V z^i.
    Every nontrivial solvable subgroup has a normal subgroup of prime index,
    so this reaches every subgroup of a solvable group.  For a group that is
    not solvable (the derived series decides), one join pass against the
    cyclic subgroups, seeded with what the extension found, completes the
    lattice.  Generators are the canonical ones of ``Subgroup(G, mask)``, so
    they do not depend on how the lattice was found.
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
                U = np.zeros(n, dtype=bool)
                coset = members
                for _ in range(int(prime[z])):
                    U[coset] = True
                    coset = G.mult[coset, z]
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
    for k in np.unique(orders).tolist():
        pk = prime_power(k)
        if pk is not None:
            prime[orders == k] = pk[0]
    for p in np.unique(prime[prime > 0]).tolist():
        power = idx
        for _ in range(p - 1):
            power = G.mult[power, idx]
        pth_power[prime == p] = power[prime == p]
    return _readonly(prime), _readonly(pth_power)


def _is_solvable(G: Group) -> bool:
    """Whether the derived series of G reaches the trivial subgroup."""
    members = np.arange(G.order, dtype=np.int32)
    while members.size > 1:
        derived = G.closure(_commutators(G, members))
        if derived.size == members.size:
            return False
        members = derived
    return True


def _commutators(G: Group, members: np.ndarray) -> np.ndarray:
    """Sorted distinct commutators a^-1 b^-1 a b over members a, b."""
    a, b = members[:, None], members[None, :]
    return np.unique(G.mult[G.mult[G.inv[a], G.inv[b]], G.mult[a, b]])


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
        gens = np.union1d(gens, _commutators(G, H.members))
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
    if not _is_prime(p):
        raise PreconditionError(f"sylow requires a prime, got {p}")
    return G.memo(("sylow", p), lambda: _sylow_within(G, full_subgroup(G), p, None))


def sylow_containing(G: Group, p: int, Q: Subgroup) -> Subgroup:
    """A Sylow p-subgroup of G containing the p-group Q, grown from Q."""
    if not _is_prime(p):
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
    ``containing`` (default trivial): P becomes the union of the cosets P z^i
    for the least p-element z of ``within`` that normalizes P, lies outside P
    and has z^p in P.  Such a z exists until P is Sylow, since P lies in a
    Sylow subgroup S and N_S(P)/P is a nontrivial p-group."""
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
        mask = np.zeros(G.order, dtype=bool)
        coset = P.members
        for _ in range(p):
            mask[coset] = True
            coset = G.mult[coset, z]
        P = Subgroup(G, mask, generators=P.generators + (z,))
    return P


def involutions(G: Group) -> np.ndarray:
    """Indices of all solutions of x*x = identity, the identity included."""
    return np.flatnonzero(G.squares == 0).astype(np.int32)


def omega1(G: Group) -> Subgroup:
    """Subgroup generated by all solutions of x*x = identity."""
    return subgroup_generated(G, involutions(G).tolist())


def squares_set(G: Group) -> np.ndarray:
    """Sorted indices of elements of the form y*y."""
    return np.unique(G.squares)


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


def abelian_quotient_exponents(G: Group, N: Subgroup, p: int) -> tuple[int, ...]:
    """Cyclic factor exponents (descending) of the abelian p-group G/N.

    Counts solutions of x^(p^k) in N instead of building the quotient table;
    the counts determine the factor type.
    """
    comms = _commutators(G, np.arange(G.order))
    if not N.mask[comms].all():
        raise PreconditionError("quotient is not abelian: commutators leave N")
    n = G.order
    logs = [0]
    v = np.arange(n, dtype=np.int32)
    while True:
        u = v.copy()
        for _ in range(p - 1):
            u = G.mult[u, v]
        v = u
        count = int(N.mask[v].sum()) // N.order
        k = 0
        while count > 1:
            count //= p
            k += 1
        logs.append(k)
        if logs[-1] == logs[-2]:
            break
    at_least = [logs[k] - logs[k - 1] for k in range(1, len(logs))]
    exps: list[int] = []
    for k, m in enumerate(at_least, start=1):
        nxt = at_least[k] if k < len(at_least) else 0
        exps.extend([k] * (m - nxt))
    return tuple(sorted(exps, reverse=True))


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

    Parameter recovery starts from the order and the abelianization type;
    where two metacyclic parameter pairs share both invariants, the witness
    search decides.  The recovered witness always satisfies the presentation
    relations exactly and generates the group.
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
            witness = _find_quaternion_witness(G)
            return FamilyRecognition("q8", None, witness)
        witness = _find_metacyclic_witness(G, 2, 1)
        return FamilyRecognition("metacyclic", (2, 1), witness)
    om = omega1(G).order
    log_order = G.order.bit_length() - 1
    derived = derived_subgroup(G)
    ab_type = abelian_quotient_exponents(G, derived, 2)
    if om == 4:
        # abelianization of the metacyclic family is (2^(n1-1), 2^m1)
        alpha, beta = sorted(ab_type)
        for n1, m1 in sorted({(alpha + 1, beta), (beta + 1, alpha)}):
            if n1 >= 2 and m1 >= 1 and n1 + m1 == log_order:
                witness = _find_metacyclic_witness(G, n1, m1)
                if witness is not None:
                    return FamilyRecognition("metacyclic", (n1, m1), witness)
    elif om == 8:
        n2, m2 = sorted(ab_type)
        if n2 >= 1 and n2 + m2 + 1 == log_order:
            witness = _find_nonmetacyclic_witness(G, n2, m2)
            if witness is not None:
                return FamilyRecognition("nonmetacyclic", (n2, m2), witness)
    raise RuntimeError(f"minimal nonabelian 2-group {G.label} matched no family")


def _find_quaternion_witness(G: Group) -> tuple[int, int] | None:
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


def _find_metacyclic_witness(G: Group, n1: int, m1: int) -> tuple[int, int] | None:
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


def _find_nonmetacyclic_witness(G: Group, n2: int, m2: int) -> tuple[int, int, int] | None:
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


def recognize_dihedral(G: Group) -> tuple[int, int] | None:
    """Find (a, b) with o(a) = |G|/2, b an involution inverting a, if any."""
    if G.order % 2 != 0:
        return None
    return G.memo("dihedral_witness", lambda: _dihedral_witness(G))


def _dihedral_witness(G: Group) -> tuple[int, int] | None:
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
