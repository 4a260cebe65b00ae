"""Finite groups as dense multiplication tables over element indices.

A group of order n lives on the indices 0..n-1 with index 0 fixed as the
identity.  All arithmetic is table lookups, so multiplication, inversion and
element orders are constant time.  Constructors for the standard families fix
a canonical element enumeration (normal forms a^i b^j c^k in lexicographic
order of the exponent tuple) so that the presentation generators are
addressable by index; they are exposed on ``Group.witness``.
"""

from __future__ import annotations

import os
from math import isqrt
from typing import Iterable, Sequence

import numpy as np

from .errors import GroupSpecError, SizeLimitError

DEFAULT_MAX_ORDER = 512


def max_order() -> int:
    """Group-order cap, read from PCL_MAX_ORDER (default 512)."""
    raw = os.environ.get("PCL_MAX_ORDER")
    if raw is None:
        return DEFAULT_MAX_ORDER
    try:
        value = int(raw)
    except ValueError:
        raise GroupSpecError(f"PCL_MAX_ORDER must be an integer, got {raw!r}")
    if value < 1:
        raise GroupSpecError(f"PCL_MAX_ORDER must be positive, got {value}")
    return value


def _check_order(n: int) -> None:
    cap = max_order()
    if n > cap:
        raise SizeLimitError(f"group order {_named(n)} exceeds the cap PCL_MAX_ORDER={cap}")


def _check_power_order(p: int, k: int) -> None:
    """``_check_order(p ** k)`` for p >= 2, decided without building p ** k:
    for a large k that integer is slow to build and too long to print."""
    cap = max_order()
    n = 1
    for _ in range(k):
        n *= p
        if n > cap:
            raise SizeLimitError(f"group order {_named(p)}^{_named(k)} exceeds the cap "
                                 f"PCL_MAX_ORDER={cap}")


def _named(n: int) -> str:
    """n in decimal, or by its digit count past 30 digits."""
    digits = str(n)
    return digits if len(digits) <= 30 else f"<{len(digits)}-digit number>"


class Group:
    """Immutable finite group over element indices, identity at index 0.

    ``mult[i, j]`` is the index of the product of elements i and j, and
    ``inv[i]`` the index of the inverse of i.  Instances are safe to share
    between threads for reads; derived data (element orders, conjugation
    table, subgroup lattice) is memoised on first use by ``memo`` and
    recomputation is idempotent.
    """

    __slots__ = ("order", "mult", "inv", "label", "witness", "_cache")

    def __init__(self, mult: np.ndarray, label: str = "G",
                 witness: dict[str, int] | None = None):
        table = np.ascontiguousarray(mult, dtype=np.int32)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ValueError("multiplication table must be square")
        n = table.shape[0]
        if n == 0:
            raise ValueError("a group has at least one element")
        _check_order(n)
        idx = np.arange(n, dtype=np.int32)
        if not (np.array_equal(table[0], idx) and np.array_equal(table[:, 0], idx)):
            raise ValueError("element 0 is not a two-sided identity")
        if not (np.array_equal(np.sort(table, axis=1), np.tile(idx, (n, 1)))
                and np.array_equal(np.sort(table, axis=0), np.tile(idx, (n, 1)).T)):
            raise ValueError("multiplication table is not a Latin square")
        rows, cols = np.nonzero(table == 0)
        inv = np.empty(n, dtype=np.int32)
        inv[rows] = cols
        if not np.array_equal(table[idx, inv], np.zeros(n, dtype=np.int32)):
            raise ValueError("inverse table inconsistent")
        table.setflags(write=False)
        inv.setflags(write=False)
        self.order = n
        self.mult = table
        self.inv = inv
        self.label = label
        self.witness = dict(witness) if witness else {}
        self._cache: dict = {}

    def __repr__(self) -> str:
        return f"<Group {self.label} of order {self.order}>"

    def mul(self, a: int, b: int) -> int:
        return int(self.mult[a, b])

    def conjugate(self, h: int, x: int) -> int:
        """x^-1 h x."""
        return int(self.mult[self.mult[self.inv[x], h], x])

    def power(self, g: int, k: int) -> int:
        if k < 0:
            g, k = int(self.inv[g]), -k
        result, base = 0, int(g)
        while k:
            if k & 1:
                result = int(self.mult[result, base])
            base = int(self.mult[base, base])
            k >>= 1
        return result

    def commutator(self, a: int, b: int) -> int:
        """a^-1 b^-1 a b."""
        left = self.mult[self.inv[a], self.inv[b]]
        return int(self.mult[left, self.mult[a, b]])

    def memo(self, key, compute):
        """The value of ``compute()``, computed once per group and ``key``.

        Every derived value of a group (element orders, conjugation table,
        lattice, per-subgroup verdicts keyed on ``(name, H.mask_int)``) is
        memoised here.
        """
        try:
            return self._cache[key]
        except KeyError:
            value = self._cache[key] = compute()
            return value

    @property
    def squares(self) -> np.ndarray:
        """Vector of g*g for every g."""
        return self.memo("squares", lambda: _readonly(self.mult.diagonal().copy()))

    @property
    def square_mask(self) -> np.ndarray:
        """Mask of the elements of the form y*y."""
        return self.memo("square_mask",
                         lambda: _readonly(index_mask(self.squares, self.order)))

    @property
    def conj_table(self) -> np.ndarray:
        """Table ct[x, h] = x^-1 h x."""
        return self.memo("conj", self._conj_table)

    def _conj_table(self) -> np.ndarray:
        left = self.mult[self.inv, :]
        return _readonly(self.mult[left, np.arange(self.order, dtype=np.int32)[:, None]])

    def element_orders(self) -> np.ndarray:
        return self.memo("orders", self._element_orders)

    def _element_orders(self) -> np.ndarray:
        n = self.order
        orders = np.ones(n, dtype=np.int32)
        idx = np.arange(n, dtype=np.int32)
        current = idx.copy()
        pending = current != 0
        k = 1
        while pending.any():
            current = self.mult[current, idx]
            k += 1
            closed = pending & (current == 0)
            orders[closed] = k
            pending &= ~closed
        return _readonly(orders)

    def element_order(self, g: int) -> int:
        return int(self.element_orders()[g])

    @property
    def is_abelian(self) -> bool:
        return self.memo("abelian", lambda: bool(np.array_equal(self.mult, self.mult.T)))

    def closure(self, elems: Iterable[int]) -> np.ndarray:
        """Sorted member indices of the subgroup generated by ``elems``."""
        return np.flatnonzero(self.generate(elems)[0]).astype(np.int32)

    def generate(self, elems: Iterable[int]) -> tuple[np.ndarray, tuple[int, ...]]:
        """(mask, gens): the membership mask of the subgroup generated by
        ``elems`` and its greedy generators, the elements of ``elems`` that,
        in their order, lie outside the subgroup generated by those before
        them.  Each greedy generator costs one ``extend`` step."""
        mask = np.zeros(self.order, dtype=bool)
        mask[0] = True
        members = np.zeros(1, dtype=np.int32)
        gens: list[int] = []
        for g in elems:
            g = int(g)
            if not mask[g]:
                gens.append(g)
                members = self.extend(members, mask, gens)
        return mask, tuple(gens)

    def extend(self, members: np.ndarray, mask: np.ndarray, gens) -> np.ndarray:
        """Members of K<gens>, for the subgroup K of ``members``, also marked
        in ``mask`` (which marks K on entry).

        Dimino's step (G. Butler, *Fundamental Algorithms for Permutation
        Groups*, LNCS 559, 1991): as (K r) s = K (r s), K<gens> is the union
        of the right cosets K r for every r reached from the identity by
        right multiplication with ``gens``.  It is the subgroup <K, gens>
        when ``gens`` holds generators of K or normalizes K.
        """
        mult = self.mult
        cosets = [members]
        reps = [0]
        for r in reps:  # reps grows as cosets are found
            for s in gens:
                e = int(mult[r, s])
                if not mask[e]:
                    coset = mult[members, e]
                    mask[coset] = True
                    cosets.append(coset)
                    reps.append(e)
        return np.concatenate(cosets)

    def check_axioms(self) -> None:
        """Exact associativity check by Light's test.

        (xy)g = x(yg) is checked for all x, y and every greedy generator g
        of the table from ``generate``.  The elements g passing the check are
        closed under products (Clifford & Preston, *The Algebraic Theory of
        Semigroups* I, section 1.2), so when all generators pass, what each
        ``extend`` step touched is an associative Latin sub-table, a group,
        and the steps found the whole table.  The cost is O(n^2 d) for d
        generators.  Identity, Latin-square and inverse checks already run at
        construction.  Raises ValueError on a violation.
        """
        t = self.mult
        for g in self.generate(range(self.order))[1]:
            column = t[:, g]
            if not np.array_equal(column[t], t[:, column]):
                raise ValueError(f"associativity fails in {self.label}")


def index_mask(values, n: int) -> np.ndarray:
    """Boolean mask over range(n) of the integer array ``values``, whose
    entries lie in range(n)."""
    mask = np.zeros(n, dtype=bool)
    mask[values] = True
    return mask


def sorted_distinct(values, n: int) -> np.ndarray:
    """``np.unique(values)`` for integers in range(n), read off
    ``index_mask``.  It sorts nothing, and it keeps numpy.ma unloaded,
    which np.unique, np.union1d and np.isin import on first call."""
    return np.flatnonzero(index_mask(values, n)).astype(np.int32)


def _readonly(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def cyclic(n: int, label: str | None = None) -> Group:
    if n < 1:
        raise GroupSpecError(f"C(n) requires n >= 1, got n={n}")
    _check_order(n)
    idx = np.arange(n, dtype=np.int32)
    table = (idx[:, None] + idx[None, :]) % n
    witness = {"a": 1} if n > 1 else {"a": 0}
    return Group(table, label=label or f"C({n})", witness=witness)


def elementary_abelian(p: int, k: int, label: str | None = None) -> Group:
    # trial division stops at the cap: a p past the cap with no factor up to
    # it is refused by the size limit, not trial divided for good
    cap = max_order()
    if p < 2 or any(p % d == 0 for d in range(2, min(isqrt(p), cap) + 1)):
        raise GroupSpecError(f"EA(p,k) requires p prime, got p={p}")
    if k < 0:
        raise GroupSpecError(f"EA(p,k) requires k >= 0, got k={k}")
    _check_power_order(p, k)
    if p > cap:
        raise SizeLimitError(
            f"EA(p,k) parameter p={_named(p)} exceeds the cap PCL_MAX_ORDER={cap}")
    group = cyclic(1)
    for _ in range(k):
        group = direct_product(group, cyclic(p))
    # basis vectors sit at indices p^(k-1), ..., p, 1
    witness = {f"e{i + 1}": p ** (k - 1 - i) for i in range(k)}
    return Group(group.mult, label=label or f"EA({p},{k})", witness=witness)


def dihedral(order: int, label: str | None = None) -> Group:
    """Dihedral group of the given (even) order, rotations a, reflection b.

    Normal form a^i b^j with 0 <= i < n, j in {0, 1}; index = 2*i + j.
    """
    if order < 2 or order % 2 != 0:
        raise GroupSpecError(f"D(2n) requires an even order >= 2, got {order}")
    _check_order(order)
    n = order // 2
    idx = np.arange(order)
    i1, j1 = (idx // 2)[:, None], (idx % 2)[:, None]
    i2, j2 = (idx // 2)[None, :], (idx % 2)[None, :]
    ii = (i1 + np.where(j1 == 1, -i2, i2)) % n
    jj = (j1 + j2) % 2
    witness = {"a": 2 if n >= 2 else 0, "b": 1}
    return Group(ii * 2 + jj, label=label or f"D({order})", witness=witness)


def quaternion(label: str = "Q8") -> Group:
    """Quaternion group of order 8: a^4 = 1, b^2 = a^2, b^-1 a b = a^-1."""
    idx = np.arange(8)
    i1, j1 = (idx // 2)[:, None], (idx % 2)[:, None]
    i2, j2 = (idx // 2)[None, :], (idx % 2)[None, :]
    ii = (i1 + np.where(j1 == 1, -i2, i2) + 2 * (j1 & j2)) % 4
    jj = (j1 + j2) % 2
    return Group(ii * 2 + jj, label=label, witness={"a": 2, "b": 1})


def metacyclic_m2(n1: int, m1: int, label: str | None = None) -> Group:
    """The minimal nonabelian group <a, b> with a^(2^n1) = b^(2^m1) = 1 and
    b^-1 a b = a^(1 + 2^(n1-1)).

    Normal form a^i b^j, index = i * 2^m1 + j.  Requires n1 >= 2, m1 >= 1.
    """
    if n1 < 2:
        raise GroupSpecError(f"M2(n1,m1) requires n1 >= 2, got n1={n1}")
    if m1 < 1:
        raise GroupSpecError(f"M2(n1,m1) requires m1 >= 1, got m1={m1}")
    _check_power_order(2, n1 + m1)
    na, nb = 2 ** n1, 2 ** m1
    r = 1 + 2 ** (n1 - 1)  # r*r = 1 mod 2^n1, so conjugation by any odd b-power is x -> x^r
    idx = np.arange(na * nb)
    i1, j1 = (idx // nb)[:, None], (idx % nb)[:, None]
    i2, j2 = (idx // nb)[None, :], (idx % nb)[None, :]
    ii = (i1 + i2 * np.where(j1 % 2 == 1, r, 1)) % na
    jj = (j1 + j2) % nb
    return Group(ii * nb + jj, label=label or f"M2({n1},{m1})",
                 witness={"a": nb, "b": 1})


def nonmetacyclic_m2(n2: int, m2: int, label: str | None = None) -> Group:
    """The minimal nonabelian group <a, b> with a^(2^n2) = b^(2^m2) = c^2 = 1,
    where c = [a, b] is central; order 2^(n2+m2+1).

    Normal form a^i b^j c^k, index = (i * 2^m2 + j) * 2 + k.  The parameters
    are put in the order n2 <= m2 (swapping the two generators); then
    n2 >= 1 and n2 + m2 >= 3 are required.
    """
    n2, m2 = sorted((n2, m2))
    if n2 < 1:
        raise GroupSpecError(f"M2(n2,m2,1) requires n2 >= 1, got n2={n2}")
    if n2 + m2 < 3:
        raise GroupSpecError(f"M2(n2,m2,1) requires n2 + m2 >= 3, got ({n2},{m2})")
    _check_power_order(2, n2 + m2 + 1)
    na, nb = 2 ** n2, 2 ** m2
    idx = np.arange(na * nb * 2)
    i1, j1, k1 = (idx // (2 * nb))[:, None], ((idx // 2) % nb)[:, None], (idx % 2)[:, None]
    i2, j2, k2 = (idx // (2 * nb))[None, :], ((idx // 2) % nb)[None, :], (idx % 2)[None, :]
    ii = (i1 + i2) % na
    jj = (j1 + j2) % nb
    kk = (k1 + k2 + j1 * i2) % 2  # b^j a^i = a^i b^j c^(ij)
    return Group((ii * nb + jj) * 2 + kk, label=label or f"M2({n2},{m2},1)",
                 witness={"a": 2 * nb, "b": 2, "c": 1})


def direct_product(a: Group, b: Group, label: str | None = None) -> Group:
    """Componentwise product; index (x, y) -> x * |B| + y."""
    n = a.order * b.order
    _check_order(n)
    idx = np.arange(n)
    xa, ya = (idx // b.order)[:, None], (idx % b.order)[:, None]
    xb, yb = (idx // b.order)[None, :], (idx % b.order)[None, :]
    table = a.mult[xa, xb] * b.order + b.mult[ya, yb]
    return Group(table, label=label or f"{a.label} x {b.label}")


def semidirect_product(normal: Group, acting: Group,
                       action: Sequence[tuple[int, int]],
                       label: str | None = None) -> Group:
    """Split extension of ``normal`` by a cyclic ``acting`` factor.

    ``acting`` must have been built with its generator at index 1 (as C(m)
    is).  ``action`` lists pairs (g, h) meaning conjugation by the acting
    generator sends element g of the normal factor to h; the listed g must
    generate the normal factor.  The induced map is validated to be an
    automorphism whose order divides the acting order.

    Elements are pairs (x, y) with x in the normal factor and y an exponent
    of the acting generator; index = x * |acting| + y.
    """
    m = acting.order
    if m > 1 and acting.element_order(1) != m:
        raise GroupSpecError(
            "SD acting factor must be cyclic with its generator at index 1")
    phi = _extend_action(normal, action)
    if m > 1:
        power = phi.copy()
        for _ in range(m - 1):
            power = phi[power]
        if not np.array_equal(power, np.arange(normal.order)):
            raise GroupSpecError(
                f"SD action order does not divide the acting order {m}")
    n = normal.order * m
    _check_order(n)
    phi_pows = [np.arange(normal.order, dtype=np.int32)]
    for _ in range(m - 1):
        phi_pows.append(phi[phi_pows[-1]])
    phi_stack = np.stack(phi_pows)
    idx = np.arange(n)
    x1, y1 = (idx // m)[:, None], (idx % m)[:, None]
    x2, y2 = (idx // m)[None, :], (idx % m)[None, :]
    # (x1, y1)(x2, y2) = (x1 * phi^y1(x2), y1 + y2)
    table = normal.mult[x1, phi_stack[y1, x2]] * m + (y1 + y2) % m
    return Group(table, label=label or f"SD({normal.label};{acting.label})")


def _extend_action(normal: Group, action: Sequence[tuple[int, int]]) -> np.ndarray:
    """Extend generator images to a full automorphism of ``normal``."""
    n = normal.order
    pairs = [(int(g), int(h)) for g, h in action]
    for g, h in pairs:
        if not (0 <= g < n and 0 <= h < n):
            raise GroupSpecError(f"SD action pair {g}->{h} out of range for order {n}")
    phi = np.full(n, -1, dtype=np.int32)
    phi[0] = 0
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for g, h in pairs:
                y = int(normal.mult[x, g])
                image = int(normal.mult[phi[x], h])
                if phi[y] == -1:
                    phi[y] = image
                    nxt.append(y)
                elif phi[y] != image:
                    raise GroupSpecError("SD action is not a homomorphism")
        frontier = nxt
    if (phi == -1).any():
        raise GroupSpecError("SD action generators do not generate the normal factor")
    if not index_mask(phi, n).all():
        raise GroupSpecError("SD action is not a bijection")
    if not np.array_equal(phi[normal.mult], normal.mult[np.ix_(phi, phi)]):
        raise GroupSpecError("SD action is not an automorphism")
    return phi


def from_permutations(perms: Sequence[Sequence[int]], label: str | None = None) -> Group:
    """Group generated by permutations, given as image tuples on 0..k-1.

    Elements are enumerated breadth first from the identity by right
    multiplication with the generators, so element 0 is the identity and the
    enumeration is deterministic in the generator order.
    """
    if not perms:
        raise GroupSpecError("perm spec requires at least one generator")
    k = len(perms[0])
    gens: list[tuple[int, ...]] = []
    for p in perms:
        t = tuple(int(x) for x in p)
        if len(t) != k or sorted(t) != list(range(k)):
            raise GroupSpecError(f"not a permutation of 0..{k - 1}: {t}")
        if t not in gens:
            gens.append(t)
    identity = tuple(range(k))
    elems: list[tuple[int, ...]] = [identity]
    index = {identity: 0}
    queue = [identity]
    cap = max_order()
    while queue:
        nxt: list[tuple[int, ...]] = []
        for x in queue:
            for g in gens:
                y = tuple(g[p] for p in x)
                if y not in index:
                    if len(elems) + 1 > cap:
                        raise SizeLimitError(
                            f"permutation closure exceeds the cap PCL_MAX_ORDER={cap}")
                    index[y] = len(elems)
                    elems.append(y)
                    nxt.append(y)
        queue = nxt
    n = len(elems)
    table = np.empty((n, n), dtype=np.int32)
    for i, u in enumerate(elems):
        for j, v in enumerate(elems):
            table[i, j] = index[tuple(v[p] for p in u)]
    return Group(table, label=label or f"perm[{n}]")


def from_raw_table_text(text: str, label: str = "table") -> Group:
    """Import a group from a whitespace separated index matrix.

    Row i, column j holds the index of the product of elements i and j, and
    element 0 must act as the identity.  The full set of group axioms is
    validated, associativity exactly by Light's test.
    """
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows:
        raise GroupSpecError("raw table is empty")
    try:
        table = np.array([[int(x) for x in row] for row in rows], dtype=np.int64)
    except ValueError as exc:
        raise GroupSpecError(f"raw table has a non-integer entry: {exc}")
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise GroupSpecError("raw table is not square")
    if table.min() < 0 or table.max() >= n:
        raise GroupSpecError(f"raw table entries must lie in 0..{n - 1}")
    try:
        group = Group(table, label=label)
        group.check_axioms()
    except ValueError as exc:
        raise GroupSpecError(f"raw table is not a group table: {exc}")
    return group


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, k) with n = p^k and p prime, or None. n = 1 gives None."""
    if n < 2:
        return None
    p = 2
    while p * p <= n:
        if n % p == 0:
            k, m = 0, n
            while m % p == 0:
                m //= p
                k += 1
            return (p, k) if m == 1 else None
        p += 1
    return (n, 1)
