"""Subgroup computations: lattices, characteristic subgroups, recognizers.

Subgroups are dense membership masks over a fixed parent group.  The full
subgroup lattice is enumerated by cyclic extension (grow each subgroup V by
each z of p-power order outside V, with z^p in V, that normalizes V, to the
union of the p cosets V z^i), which is complete for solvable groups; a group
that is not solvable gets one join pass on top, one step per conjugacy
class, against its cyclic subgroups of prime-power order.  The extension
grows a layer a block of subgroups at a time.  A mask is held once, as
bytes, until its Subgroup is made.  The lattice is cached on the parent; its
enumeration refuses to hold more membership masks, subgroups times |G|
bytes, than LATTICE_MASK_BYTES (128 MiB), so EA(2,9) is refused and EA(2,8)
is not.  Frattini and Sylow subgroups and the minimal nonabelian test come
from p-group identities and never build the lattice.  ``subgroup_generated``
refuses a generator outside range(|G|).  The derived and Frattini subgroups
are one normal closure each, read from canonical generators.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, SizeLimitError
from .groups import (Group, gather, index_mask, prime_power, sorted_distinct,
                     _blocks, _readonly)

# the bytes of membership masks, subgroups times |G|, a lattice may hold:
# EA(2,8) holds 106.8 MB at the end, EA(2,9) would hold 4.24 GB
LATTICE_MASK_BYTES = 1 << 27
# the subgroups cyclic extension grows at once: the most that
# test_cyclic_extension_holds_each_mask_once allows (32 traced 2.25x)
EXTENSION_BLOCK_ROWS = 16


class Subgroup:
    """A subgroup of a fixed parent group: a membership mask and its members.

    Members are element indices of the parent.  Instances are immutable,
    hashable and compare equal exactly when they have the same parent object
    and the same member set.
    """

    __slots__ = ("parent", "mask", "members", "order", "_generators")

    def __init__(self, parent: Group, mask: np.ndarray):
        mask = np.array(mask, dtype=bool, copy=True)
        if mask.shape != (parent.order,):
            raise ValueError("mask length must equal the parent order")
        if not mask[0]:
            raise ValueError("a subgroup contains the identity")
        mask.setflags(write=False)
        members = mask.nonzero()[0].astype(np.int32)
        members.setflags(write=False)
        self.parent = parent
        self.mask = mask
        self.members = members
        self.order = int(members.size)
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
        return self is other or (isinstance(other, Subgroup) and self.parent is other.parent
                                 and np.array_equal(self.mask, other.mask))

    def __hash__(self) -> int:
        return hash((id(self.parent), np.packbits(self.mask).tobytes()))

    def __contains__(self, element: int) -> bool:
        return bool(self.mask[element])

    def __repr__(self) -> str:
        return f"<Subgroup of {self.parent.label}, order {self.order}>"

    def issubset(self, other: "Subgroup") -> bool:
        """Whether every member lies in ``other`` of the same group object."""
        return self.parent is other.parent and bool(other.mask.take(self.members).all())

    @property
    def is_trivial(self) -> bool:
        return self.order == 1

    @property
    def is_full(self) -> bool:
        return self.order == self.parent.order

    @property
    def is_abelian(self) -> bool:
        return self.parent.commute(self.generators)

    @property
    def is_cyclic(self) -> bool:
        return bool((self.parent.element_orders()[self.members] == self.order).any())


def _require_subgroup_of(G: Group, H: Subgroup) -> None:
    """Every public (G, H) entry point refuses H of another group object."""
    if H.parent is not G:
        raise PreconditionError("subgroup belongs to a different group object")


def trivial_subgroup(G: Group) -> Subgroup:
    mask = np.zeros(G.order, dtype=bool)
    mask[0] = True
    return Subgroup(G, mask)


def full_subgroup(G: Group) -> Subgroup:
    return G.memo("full_subgroup", lambda: Subgroup(G, np.ones(G.order, dtype=bool)))


def subgroup_generated(G: Group, gens) -> Subgroup:
    """Smallest subgroup containing ``gens``, each in range(|G|)."""
    gens = list(gens)
    for g in gens:
        if not 0 <= g < G.order:
            raise PreconditionError(f"subgroup generator {g} out of range")
    return Subgroup(G, G.generate(gens)[0])


def all_subgroups(G: Group) -> list[Subgroup]:
    """Every subgroup of G exactly once, sorted by (order, member tuple).

    Cyclic extension (Neubüser 1960): starting from the trivial subgroup,
    each layer extends every subgroup V of the last layer by each element z
    of prime-power order that normalizes V, lies outside V and has z^p in V
    (p the prime of o(z)); then V<z> is the union of the p cosets z^i V,
    read for a block of subgroups at once (``_cyclic_extensions``).
    Every nontrivial solvable subgroup has a normal subgroup of prime index,
    so this reaches every subgroup of a solvable group; and a subgroup it
    reaches has a series with factors of prime order, so it reaches G exactly
    when G is solvable.  When it does not reach G, one join pass, seeded with
    what the extension found, completes the lattice: it joins one subgroup of
    each conjugacy class with each cyclic subgroup of prime-power order
    (``_join_completion``).  Generators are the canonical ones of ``Subgroup``, so they do
    not depend on how the lattice was found.
    """
    return G.memo("lattice", lambda: _lattice(G))


def _lattice(G: Group) -> list[Subgroup]:
    """The masks as bytes, sorted in reverse of (order, member tuple), that is
    of (count of ones, descending bytes), then popped in lattice order, each
    as its Subgroup copies it, so no mask is held twice."""
    masks = _cyclic_extensions(G)
    if 0 in masks[-1]:  # the last layer is {G} exactly when G is solvable
        masks = _join_completion(G, masks)
    masks.sort()
    masks.sort(key=lambda m: m.count(1), reverse=True)
    return [Subgroup(G, np.frombuffer(masks.pop(), dtype=bool)) for _ in range(len(masks))]


def _cyclic_extensions(G: Group) -> list[bytes]:
    """Membership masks, as bytes, of every subgroup reachable by cyclic
    extension, in layers by the number of prime factors of the order.  A
    layer is read in blocks of EXTENSION_BLOCK_ROWS subgroups V, one 2-D bool
    array and one array of generating sets, L each in layer L.  z of p-power
    order extends V when it lies outside V, has z^p in V and maps each
    generator of V into V, so normalizes V; that test is one pass over every
    (V, z) of a block.  Each round then grows every V by its least pending z
    and drops the z in V<z>, which would give V<z> again.  New masks are
    held once, as keys of the next layer's dict, and counted against
    LATTICE_MASK_BYTES every round."""
    n = G.order
    prime, pth_power = _prime_powers(G)
    candidates = prime.nonzero()[0]
    candidate_pth = pth_power.take(candidates)
    row_starts = np.arange(0, EXTENSION_BLOCK_ROWS * n, n)[:, None]
    masks, keys, gens = [], [b"\x01" + bytes(n - 1)], np.zeros((1, 0), dtype=G.mult.dtype)
    while True:
        masks += keys
        grown, parts = {}, []
        for i in range(0, len(keys), EXTENSION_BLOCK_ROWS):
            block = slice(i, i + EXTENSION_BLOCK_ROWS)
            V = np.frombuffer(b"".join(keys[block]), dtype=bool).reshape(-1, n)
            W = gens[block]
            # normality is read only for the z outside some V with z^p in it
            pending = V.take(candidate_pth, axis=1) & ~V.take(candidates, axis=1)
            cols = pending.any(axis=0).nonzero()[0]
            if not cols.size:
                continue
            zs, pending = candidates.take(cols), pending.take(cols, axis=1)
            for g in () if G.is_abelian else W.T:  # or every subgroup is normal
                pending &= V.ravel().take(G.conjugates(g, zs) + row_starts[:len(V)])
            p = int(prime.take(zs).max())  # cosets past a smaller prime's add nothing
            rows, grew, by = np.arange(len(V)), [], []
            while True:
                live = pending.any(axis=1)
                if not live.all():
                    if not live.any():
                        break
                    V, pending, rows = V[live], pending[live], rows[live]
                z = zs.take(pending.argmax(axis=1))
                # V<z> is the union of the z^i V, each read from the last through z^-1's row
                step = G.mult.take(G.inv.take(z), axis=0) + row_starts[:len(V)]
                U = V.copy()
                for _ in range(p - 1):
                    U |= U.ravel().take(step)
                pending &= ~U.take(zs, axis=1)
                made = U.tobytes()
                for r, (row, y) in enumerate(zip(rows.tolist(), z.tolist())):
                    key = made[r * n:(r + 1) * n]
                    if key not in grown:
                        grown[key] = None
                        grew.append(row)
                        by.append(y)
                _check_mask_budget(G, len(masks) + len(grown))
            parts.append(np.column_stack((W.take(grew, axis=0), by)).astype(G.mult.dtype))
        if not grown:
            return masks
        keys, gens = list(grown), np.concatenate(parts)


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


def _join_completion(G: Group, masks: list[bytes]) -> list[bytes]:
    """Close the conjugation-closed ``masks`` under joins with their cyclic
    subgroups of prime-power order.

    A subgroup U != 1 is <M, c> for M maximal in U and c in U outside M; c
    is a product of powers of itself of prime-power order, one of which lies
    outside M and so generates U with M.  Joins commute with conjugation, so
    joining one subgroup of each conjugacy class, old or new, with each of
    them reaches the whole lattice.  One step serves the extension's masks
    and every join: a mask not yet found is queued, its conjugates found.
    """
    everything = np.arange(G.order)
    found, queue = set(), []

    def add(mask: np.ndarray) -> None:
        if mask.tobytes() not in found:
            queue.append(mask)
            conjugates = np.zeros((G.order, G.order), dtype=bool)
            conjugates[everything, G.conjugates(mask.nonzero()[0], everything)] = True
            found.update(c.tobytes() for c in conjugates)
            _check_mask_budget(G, len(found))

    views = [np.frombuffer(m, dtype=bool) for m in masks]
    orders = G.element_orders()
    zuppos = [m for m in views if prime_power(k := int(m.sum())) and (orders[m] == k).any()]
    for m in views:
        add(m)
    while queue:
        current = queue.pop()
        for c in zuppos:
            if (c & ~current).any():
                add(G.generate(np.flatnonzero(current | c))[0])
    return list(found)


def _check_mask_budget(G: Group, count: int) -> None:
    """Refuse a lattice whose ``count`` membership masks held pass
    LATTICE_MASK_BYTES: a count, not a measure of memory, so the answer is
    the same on every machine."""
    if count * G.order > LATTICE_MASK_BYTES:
        raise SizeLimitError(f"subgroup lattice of order {G.order} holds more than "
                             f"{LATTICE_MASK_BYTES:,} bytes of membership masks")


def maximal_subgroups(H: Subgroup) -> list[Subgroup]:
    """Maximal proper subgroups of H, from the parent lattice."""
    proper = [S for S in all_subgroups(H.parent) if S.order < H.order and S.issubset(H)]
    proper.sort(key=lambda s: -s.order)
    return [S for S in proper
            if not any(T.order > S.order and S.issubset(T) for T in proper)]


def frattini(H: Subgroup) -> Subgroup:
    """Phi(H) of the p-group H: by Burnside, H^p [H, H], the normal closure
    in H of the p-th powers of its members.  Trivial H gives the trivial
    subgroup; H of order divisible by two primes raises
    ``PreconditionError``."""
    if H.order > 1 and prime_power(H.order) is None:
        raise PreconditionError(f"frattini requires a p-group, got order {H.order}")
    _, pth_power = _prime_powers(H.parent)
    return _normal_closure(H, pth_power.take(H.members).tolist())


def derived_subgroup(G: Group) -> Subgroup:
    """Subgroup generated by all commutators: the normal closure of those
    of G's canonical generators."""
    return G.memo("derived", lambda: _normal_closure(full_subgroup(G)))


def _normal_closure(H: Subgroup, gens=()) -> Subgroup:
    """The least subgroup N that H normalizes holding ``gens`` and the
    commutators of H's canonical generators xs: the images of the xs commute
    in H/N, so N holds [H, H].  N is grown by the conjugates of its greedy
    generators under the xs until conjugation keeps it."""
    G = H.parent
    xs = H.generators
    gens = [*gens, *(G.commutator(a, b) for a in xs for b in xs)]
    while True:
        mask, gens = G.generate(gens)
        conjugates = G.conjugates(gens, xs)
        if mask.take(conjugates).all():
            return Subgroup(G, mask)
        gens += tuple(conjugates.ravel().tolist())


def normalizer(G: Group, H: Subgroup) -> Subgroup:
    """N_G(H): the x with x^-1 g x in H for every canonical generator g of
    H, which is x^-1 H x = H, read from |G| x d conjugates for d
    generators, not |G| x |H|."""
    _require_subgroup_of(G, H)
    conjugates = G.conjugates(H.generators, np.arange(G.order))
    return Subgroup(G, H.mask.take(conjugates).all(axis=0))


def _p_part(n: int, p: int) -> int:
    q = 1
    while n % (q * p) == 0:
        q *= p
    return q


def sylow(G: Group, p: int, within: Subgroup | None = None,
          containing: Subgroup | None = None) -> Subgroup:
    """A Sylow p-subgroup of ``within`` (default G) grown from its p-subgroup
    ``containing`` (default trivial): P becomes P<z>, of order p |P|, for the
    least p-element z of ``within`` that lies outside P, has z^p in P and
    maps each generator of P into P, so normalizes P; P<z> is the union of
    the cosets z^i P, i < p, each read from the last through z^-1's row, and
    z joins P's generators.  Such a z exists until P is Sylow, since P lies
    in a Sylow subgroup S and N_S(P)/P is a nontrivial p-group."""
    if prime_power(p) != (p, 1):
        raise PreconditionError(f"sylow requires a prime, got {p}")
    within = full_subgroup(G) if within is None else within
    _require_subgroup_of(G, within)
    if containing is None:
        P = trivial_subgroup(G)
    else:
        P = containing
        _require_subgroup_of(G, P)
        if _p_part(P.order, p) != P.order:
            raise PreconditionError(f"sylow requires a {p}-subgroup, got order {P.order}")
        if not P.issubset(within):
            raise PreconditionError("sylow requires containing to lie in within")
    q = _p_part(within.order, p)
    if q == within.order:
        return within
    prime, pth_power = _prime_powers(G)
    candidates = (within.mask & (prime == p)).nonzero()[0]
    mask, gens, order = P.mask, P.generators, P.order
    while order < q:
        zs = candidates[~mask.take(candidates) & mask.take(pth_power.take(candidates))]
        z = int(zs[mask.take(G.conjugates(gens, zs)).all(axis=0)][0])
        for _ in range(p - 1):
            mask = mask | mask.take(G.mult[G.inv[z]])
        gens += (z,)
        order *= p
    return P if order == P.order else Subgroup(G, mask)


def sylow_containing(G: Group, p: int, Q: Subgroup) -> Subgroup:
    """A Sylow p-subgroup of G containing the p-group Q, grown from Q."""
    return sylow(G, p, containing=Q)


def involutions(G: Group) -> np.ndarray:
    """Indices of all solutions of x*x = identity, the identity included;
    memoised per group, like ``Group.squares``."""
    return G.memo("involutions", lambda: _readonly(
        np.flatnonzero(G.squares == 0).astype(np.int32)))


def min_generators(H: Subgroup) -> int:
    """Minimal number of generators d(H) of the p-group H: log_p of the
    index of the Frattini subgroup (Burnside basis).  Trivial H gives 0; H of
    order divisible by two primes raises ``PreconditionError``."""
    index = H.order // frattini(H).order
    return 0 if index == 1 else prime_power(index)[1]


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

    The family follows from the number of solutions of x^2 = 1 (2 for Q8,
    4 or 6 metacyclic, 8 nonmetacyclic) and its parameters from the order
    and the exponent; where two metacyclic parameter pairs fit, the witness
    search decides.  The witness is the least generating pair
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
    # the solutions of x^2 = 1 number 2 in Q8 and 6 in D8; otherwise they
    # form Omega_1, of order 4 in the metacyclic family and 8 in the
    # nonmetacyclic one.  The exponent 2^e is the larger generator order
    solutions = involutions(G).size
    if solutions == 2:
        return FamilyRecognition("q8", None, _quaternion_pair(G))
    log_order = G.order.bit_length() - 1
    e = int(G.element_orders().max()).bit_length() - 1
    if solutions in (4, 6):
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
        (G.squares[b] == G.squares[a]) & (G.conjugates([a], b)[0] == G.inv[a])))


def _metacyclic_pair(G: Group, n1: int, m1: int) -> tuple[int, int] | None:
    """a of order 2^n1, b of order 2^m1 with a^b = a^(1 + 2^(n1-1))."""
    return _least_generating_pair(G, 2 ** n1, 2 ** m1, lambda a, b: (
        G.conjugates([a], b)[0] == G.power(a, 1 + 2 ** (n1 - 1))))


def _nonmetacyclic_triple(G: Group, n2: int, m2: int) -> tuple[int, int, int] | None:
    """a of order 2^n2, b of order 2^m2 whose commutator c = [a, b] is an
    involution commuting with a and b; the triple (a, b, c)."""
    mult = G.mult

    def relation(a, b):
        c = mult[G.inv[a], G.conjugates([a], b)[0]]
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
        G, G.order // 2, 2, lambda a, b: G.conjugates([a], b)[0] == G.inv[a]))


def subgroup_as_group(P: Subgroup, *inner: Subgroup) -> tuple[Group, list[Subgroup]]:
    """Re-index a subgroup as a standalone group; map inner subgroups of P's
    group object along, read through a uint16 position map by row blocks."""
    if not all(Q.issubset(P) for Q in inner):
        raise PreconditionError("inner subgroup is not contained in the restriction")
    G = P.parent
    members = P.members
    position = np.zeros(G.order, dtype=G.mult.dtype)
    position[members] = np.arange(members.size)
    table = np.empty((members.size, members.size), dtype=G.mult.dtype)
    for rows in _blocks(members.size, members.size):
        table[rows] = position.take(gather(G.mult, members[rows], members))
    group = Group(table, label=f"{G.label}|{P.order}")
    return group, [Subgroup(group, index_mask(position.take(Q.members), members.size))
                   for Q in inner]
