"""Finite groups as dense multiplication tables over element indices.

A group of order n lives on the indices 0..n-1 with index 0 fixed as the
identity.  All arithmetic is table lookups, so multiplication, inversion and
element orders are constant time.  Constructors for the standard families fix
a canonical element enumeration (normal forms a^i b^j c^k in lexicographic
order of the exponent tuple) so that the presentation generators are
addressable by index; they are exposed on ``Group.witness``.  One extension
formula, ``_extension``, builds D, Q8, M2(n1,m1), EA, SD and direct products
from uint16 tables, so a constructor validates only the group it returns;
``nonmetacyclic_m2`` keeps its own, as its normal form puts no normal subgroup
in the high coordinates.

Every table is uint16 (``TABLE_DTYPE``), written so by its constructor: no
order the program holds passes TABLE_MAX_ORDER = 65,536, whatever
PCL_MAX_ORDER says, so the |G| x |G| table, the only array of that size,
takes two bytes an entry.  Every other index array (inverses, members,
transversals, connection sets, evidence) is int32.  A cyclic factor is a
read-only window of 2n entries, and ``commute`` reads a generators' block.
"""

from __future__ import annotations

import os
from itertools import product
from math import isqrt
from typing import Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GroupSpecError, SizeLimitError

DEFAULT_MAX_ORDER = 512
TABLE_DTYPE = np.uint16
TABLE_MAX_ORDER = int(np.iinfo(TABLE_DTYPE).max) + 1  # 65,536
DIGITS = frozenset("0123456789")  # not str.isdigit, true of "³"; a set holds no ""


def read_integer(raw: str, what: str) -> int:
    """``raw``, whitespace around it aside, as an integer in ASCII digits,
    the digits of a group spec; a GroupSpecError naming ``what`` otherwise.
    ``int`` alone would also read "٢", "1_0" and "+2"."""
    text = raw.strip()
    if not text or not all(ch in DIGITS for ch in text):
        raise GroupSpecError(f"{what} must be an integer in ASCII digits, got {raw!r}")
    try:
        return int(text)
    except ValueError:  # longer than the interpreter's digit limit
        raise GroupSpecError(f"{what} is too long an integer, {len(text)} digits") from None


def max_order() -> int:
    """Group-order cap: PCL_MAX_ORDER (default 512), but never above
    TABLE_MAX_ORDER, the most elements a uint16 table indexes."""
    raw = os.environ.get("PCL_MAX_ORDER")
    if raw is None:
        return DEFAULT_MAX_ORDER
    value = read_integer(raw, "PCL_MAX_ORDER")
    if value < 1:
        raise GroupSpecError(f"PCL_MAX_ORDER must be positive, got {value}")
    return min(value, TABLE_MAX_ORDER)


def _size_limit(what: str, cap: int) -> SizeLimitError:
    """The error for ``what`` passing the cap ``cap`` of ``max_order``, which
    names the limit that set the cap."""
    limit = (f"{TABLE_MAX_ORDER}, the most elements a uint16 table indexes"
             if cap == TABLE_MAX_ORDER else f"the cap PCL_MAX_ORDER={cap}")
    return SizeLimitError(f"{what} exceeds {limit}")


def _check_order(n: int) -> None:
    cap = max_order()
    if n > cap:
        raise _size_limit(f"group order {_named(n)}", cap)


def _check_power_order(p: int, k: int) -> None:
    """``_check_order(p ** k)`` for p >= 2, decided without building p ** k:
    for a large k that integer is slow to build and too long to print."""
    cap = max_order()
    n = 1
    for _ in range(k):
        n *= p
        if n > cap:
            raise _size_limit(f"group order {_named(p)}^{_named(k)}", cap)


def _named(n: int) -> str:
    """n in decimal, or by its digit count past 30 digits."""
    digits = str(n)
    return digits if len(digits) <= 30 else f"<{len(digits)}-digit number>"


class Group:
    """Immutable finite group over element indices, identity at index 0.

    ``mult[i, j]`` is the index of the product of elements i and j, and
    ``inv[i]`` the index of the inverse of i.  Instances are safe to share
    between threads for reads; derived data (element orders, squares,
    subgroup lattice) is memoised on first use by ``memo`` and recomputation
    is idempotent.  ``mult`` is the only |G| x |G| array a group keeps, in
    uint16: ``conjugates`` reads conjugates from it on demand.  A table of
    any integer dtype is taken, once its entries are checked to lie in
    range(n); a uint16 one is kept without a copy.
    """

    __slots__ = ("order", "mult", "inv", "label", "witness", "_cache")

    def __init__(self, mult: np.ndarray, label: str = "G",
                 witness: dict[str, int] | None = None):
        table = np.asarray(mult)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ValueError("multiplication table must be square")
        n = table.shape[0]
        if n == 0:
            raise ValueError("a group has at least one element")
        _check_order(n)
        # checked in the given dtype: narrowed first, 65,536 would wrap to 0
        # and a float would be truncated
        if table.dtype.kind not in "iu":
            raise ValueError(f"multiplication table entries must be integers, not {table.dtype}")
        if table.min() < 0 or table.max() >= n:
            raise ValueError(f"multiplication table entries must lie in range({n})")
        table = np.ascontiguousarray(table, dtype=TABLE_DTYPE)  # no copy when uint16
        idx = np.arange(n, dtype=np.int32)
        if not (np.array_equal(table[0], idx) and np.array_equal(table[:, 0], idx)):
            raise ValueError("element 0 is not a two-sided identity")
        if not _is_latin(table):
            raise ValueError("multiplication table is not a Latin square")
        # each row of a Latin square holds exactly one 0, its least entry
        inv = table.argmin(axis=1).astype(np.int32)
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

        Every derived value of a group (element orders, squares, the flat
        index where each inverse's row starts, lattice) is memoised here,
        and no key names a subgroup; a pair's transversal and Frattini
        masks live only while it is decided.  No value is a |G| x |G| array.
        """
        try:
            return self._cache[key]
        except KeyError:
            value = self._cache[key] = compute()
            return value

    @property
    def squares(self) -> np.ndarray:
        """Vector of g*g for every g."""
        return self.memo("squares", lambda: _readonly(self.mult.diagonal().astype(np.int32)))

    @property
    def square_mask(self) -> np.ndarray:
        """Mask of the elements of the form y*y."""
        return self.memo("square_mask",
                         lambda: _readonly(index_mask(self.squares, self.order)))

    def conjugates(self, hs, xs) -> np.ndarray:
        """Table c[j, i] = xs[i]^-1 hs[j] xs[i] of the conjugates of ``hs``
        by ``xs``: the products h x, read from ``mult`` in the rows hs and
        columns xs, then x^-1 (h x), read through the flat table from the
        memoised flat index where row x^-1 starts.  So |hs| x |xs| entries
        are read twice, and no |G| x |G| table is built or kept.  Indices
        are intp, which ``take`` reads without converting them; the
        conjugates are uint16, as read from the table."""
        xs = np.asarray(xs, dtype=np.intp)
        starts = self.memo("inverse_row_starts",
                           lambda: _readonly(self.inv.astype(np.intp) * self.order))
        flat = gather(self.mult, np.asarray(hs, dtype=np.intp), xs) + starts.take(xs)
        return self.mult.ravel().take(flat)

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
        return self.memo("abelian", lambda: self.commute(self.generate(range(self.order))[1]))

    def commute(self, elems) -> bool:
        """Whether the elements ``elems`` commute pairwise: whether their
        d x d block of the table is symmetric.  Read from the generators of
        a subgroup, it tells whether the subgroup is abelian."""
        elems = np.asarray(elems, dtype=np.intp)
        block = gather(self.mult, elems, elems)
        return bool(np.array_equal(block, block.T))

    def closure(self, elems: Iterable[int]) -> np.ndarray:
        """Sorted member indices of the subgroup generated by ``elems``."""
        return np.flatnonzero(self.generate(elems)[0]).astype(np.int32)

    def generate(self, elems: Iterable[int]) -> tuple[np.ndarray, tuple[int, ...]]:
        """(mask, gens): the membership mask of the subgroup generated by
        ``elems`` and its greedy generators, the elements of ``elems`` that,
        in their order, lie outside the subgroup generated by those before
        them.

        Each greedy generator is one Dimino step (G. Butler, *Fundamental
        Algorithms for Permutation Groups*, LNCS 559, 1991): as
        (K r) s = K (r s), the subgroup <K, gens> is the union of the right
        cosets K r of the subgroup K found so far, for every r reached from
        the identity by right multiplication with ``gens``.  The loop reads
        the table through a memoryview, one Python int per product.
        """
        if isinstance(elems, np.ndarray):
            elems = elems.tolist()
        table = memoryview(self.mult)
        mask = bytearray(self.order)
        mask[0] = 1
        members = [0]
        gens: list[int] = []
        for g in elems:
            g = int(g)
            if mask[g]:
                continue
            gens.append(g)
            K = members
            members = K[:]
            reps = [0]
            for r in reps:  # reps grows as cosets are found
                for s in gens:
                    e = table[r, s]
                    if not mask[e]:
                        coset = [table[k, e] for k in K]
                        for c in coset:
                            mask[c] = 1
                        members += coset
                        reps.append(e)
        return np.frombuffer(mask, dtype=bool), tuple(gens)

    def check_axioms(self) -> None:
        """Exact associativity check by Light's test.

        (xy)g = x(yg) is checked for all x, y and every greedy generator g
        of the table from ``generate``.  The elements g passing the check are
        closed under products (Clifford & Preston, *The Algebraic Theory of
        Semigroups* I, section 1.2), so when all generators pass, what each
        Dimino step touched is an associative Latin sub-table, a group, and
        the steps found the whole table.  The cost is O(n^2 d) for d
        generators.  Identity, Latin-square and inverse checks already run at
        construction.  Raises ValueError on a violation.
        """
        t = self.mult
        for g in self.generate(range(self.order))[1]:
            column = t[:, g]
            if not np.array_equal(column[t], t[:, column]):
                raise ValueError(f"associativity fails in {self.label}")


BLOCK_CELLS = 1 << 18


def _blocks(count: int, width: int) -> Sequence[slice]:
    """Slices of range(count) for the row blocks of a table ``width``
    entries wide, each of at most BLOCK_CELLS entries and at least one row:
    every blocked read of the table, or of a gather from it, copies one such
    block at a time.  One block, the common case, is one slice, with no list
    built; no rows are no block, so a read of none makes no pass."""
    if count * width <= BLOCK_CELLS:
        return (slice(0, count),) if count else ()
    step = max(1, BLOCK_CELLS // width)
    return [slice(i, i + step) for i in range(0, count, step)]


def _is_latin(table: np.ndarray) -> bool:
    """Whether every row and every column of the n x n ``table`` is a
    permutation of range(n), by sorting blocks of rows and of columns."""
    n = len(table)
    idx = np.arange(n, dtype=np.int32)
    return all((_sorted_int32(table[block], 1) == idx).all()
               and (_sorted_int32(table[:, block], 0) == idx[:, None]).all()
               for block in _blocks(n, n))


def _sorted_int32(cells: np.ndarray, axis: int) -> np.ndarray:
    """``cells`` sorted along ``axis``, in one int32 copy.  The program's
    other sorts are of int32 too: numpy's uint16 sort is a second kernel,
    whose code pages added about 0.2 MB to the resident peak of one-group
    `pcl verify` of EA(2,7) (x86-64, numpy 2.4)."""
    copy = cells.astype(np.int32)
    copy.sort(axis=axis)
    return copy


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
    return index_mask(values, n).nonzero()[0].astype(np.int32)


GATHER_TAKE_CELLS = 1 << 15


def gather(table: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """``table[rows[:, None], cols]``, the sub-table of ``rows`` by ``cols``.

    While the copy of the whole rows is small (at most GATHER_TAKE_CELLS
    entries) it is read as two ``take`` calls, rows and then columns, which
    skip the broadcast index's fixed cost: 1.7-3.6 µs against 3.0-11.5 µs
    for 16x8 to 64x16 reads of order-64 and order-128 tables.  Past that,
    copying whole rows costs more than it saves (753 µs against 55 µs for
    1,024x8 of an order-2048 table), so the broadcast index is read.  Timed
    on a 2-core Xeon, Python 3.11, numpy 2.4.
    """
    if len(rows) * table.shape[1] <= GATHER_TAKE_CELLS:
        return table.take(rows, 0).take(cols, 1)
    return table[rows[:, None], cols]


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
    witness = {"a": 1} if n > 1 else {"a": 0}
    return Group(_cyclic_table(n).copy(), label=label or f"C({n})", witness=witness)


def _cyclic_table(n: int) -> np.ndarray:
    """Table of C(n), index = exponent of the generator: row i is range(n)
    rotated left by i, a read-only window of range(n) twice over, which
    holds 2n entries, not n^2.  No sum i + j is formed, which would pass
    65,535 in uint16 once n > 32,768."""
    twice = np.tile(np.arange(n, dtype=TABLE_DTYPE), 2)
    return sliding_window_view(twice, n)[:n]


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
        raise _size_limit(f"EA(p,k) parameter p={_named(p)}", cap)
    table = _cyclic_table(1)
    for _ in range(k):
        table = _extension(table, _cyclic_table(p), np.arange(len(table)))
    # basis vectors sit at indices p^(k-1), ..., p, 1
    witness = {f"e{i + 1}": p ** (k - 1 - i) for i in range(k)}
    return Group(table, label=label or f"EA({p},{k})", witness=witness)


def dihedral(order: int, label: str | None = None) -> Group:
    """Dihedral group of the given (even) order, rotations a, reflection b:
    C(n) extended by C(2) acting by inversion.

    Normal form a^i b^j with 0 <= i < n, j in {0, 1}; index = 2*i + j.
    """
    if order < 2 or order % 2 != 0:
        raise GroupSpecError(f"D(2n) requires an even order >= 2, got {order}")
    _check_order(order)
    n = order // 2
    return Group(_extension(_cyclic_table(n), _cyclic_table(2), -np.arange(n) % n),
                 label=label or f"D({order})", witness={"a": 2 if order >= 4 else 0, "b": 1})


def quaternion(label: str = "Q8") -> Group:
    """Quaternion group of order 8: a^4 = 1, b^2 = a^2, b^-1 a b = a^-1, as
    C(4) extended by C(2) acting by inversion; index = 2*i + j for a^i b^j."""
    return Group(_extension(_cyclic_table(4), _cyclic_table(2), np.array([0, 3, 2, 1]), wrap=2),
                 label=label, witness={"a": 2, "b": 1})


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
    phi = np.arange(na) * (1 + 2 ** (n1 - 1)) % na
    return Group(_extension(_cyclic_table(na), _cyclic_table(nb), phi),
                 label=label or f"M2({n1},{m1})", witness={"a": nb, "b": 1})


def nonmetacyclic_m2(n2: int, m2: int, label: str | None = None) -> Group:
    """The minimal nonabelian group <a, b> with a^(2^n2) = b^(2^m2) = c^2 = 1,
    where c = [a, b] is central; order 2^(n2+m2+1).

    Normal form a^i b^j c^k, index = (i * 2^m2 + j) * 2 + k.  The parameters
    are put in the order n2 <= m2 (swapping the two generators); then
    n2 >= 1 and n2 + m2 >= 3 are required.  The table keeps its own formula:
    ``_extension``'s layout needs a normal subgroup in the high coordinates,
    but <a> is not normal and the a^i b^j are no subgroup.
    """
    n2, m2 = sorted((n2, m2))
    if n2 < 1:
        raise GroupSpecError(f"M2(n2,m2,1) requires n2 >= 1, got n2={n2}")
    if n2 + m2 < 3:
        raise GroupSpecError(f"M2(n2,m2,1) requires n2 + m2 >= 3, got ({n2},{m2})")
    _check_power_order(2, n2 + m2 + 1)
    na, nb = 2 ** n2, 2 ** m2
    idx = np.arange(na * nb * 2, dtype=TABLE_DTYPE)  # the in-place ops below need uint16
    i, u, k = idx // (2 * nb), idx // 2, idx % 2  # u = i * nb + j, the index in C(na) x C(nb)
    # a^i1 b^j1 c^k1 a^i2 b^j2 c^k2 = a^(i1+i2) b^(j1+j2) c^(k1+k2+j1*i2), as
    # b^j a^i = a^i b^j c^(ij); the c exponent is the low bit, so its sum is an xor
    table = _extension(_cyclic_table(na), _cyclic_table(nb), np.arange(na))[np.ix_(u, u)]
    table *= 2
    table ^= k[:, None]
    table ^= k
    table.reshape(-1, 4, len(idx))[:, 2:] ^= i % 2  # rows 4r+2 and 4r+3 have j1 odd
    return Group(table, label=label or f"M2({n2},{m2},1)",
                 witness={"a": 2 * nb, "b": 2, "c": 1})


def direct_product(*factors: Group, label: str | None = None) -> Group:
    """Componentwise product, folded left over the factors' tables as the
    extension with trivial action; index (x, y) -> x * |B| + y at each step."""
    table = factors[0].mult
    for factor in factors[1:]:
        table = _extension(table, factor.mult, np.arange(len(table)))
    return Group(table, label=label or " x ".join(f.label for f in factors))


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
    return Group(_extension(normal.mult, _cyclic_table(m), phi),
                 label=label or f"SD({normal.label};{acting.label})")


def _extension(normal: np.ndarray, top: np.ndarray, phi: np.ndarray, wrap: int = 0) -> np.ndarray:
    """Table of the extension of the group with table ``normal`` by the one
    with table ``top`` on pairs (x, y), at index x * |top| + y, with

        (x1, y1)(x2, y2) = (x1 * phi^y1(x2) * w, y1 * y2),

    where w is ``wrap`` when y1 + y2 >= |top| and the identity otherwise.
    ``phi`` is an automorphism of ``normal`` as an index map; unless it is
    the identity, ``top`` is C(m), whose index y is the generator's exponent
    (Holt, Eick and O'Brien, *Handbook of Computational Group Theory*, 2005).
    In uint16, as ``normal`` and ``top`` are: the products with one y1 are
    written into one preallocated table, one ``_blocks`` row block of x1 at
    a time, so beside it only a block of BLOCK_CELLS entries is held.  Every
    entry x * |top| + y lies below k * m, at most TABLE_MAX_ORDER.
    """
    k, m = len(normal), len(top)
    _check_order(k * m)
    if k == 1:  # top itself; ``left *= m`` below needs m < 65,536
        return top
    powers = np.empty((m + 1, k), dtype=TABLE_DTYPE)  # row y is phi^y
    powers[0] = np.arange(k)
    for y in range(m):
        powers[y + 1] = phi[powers[y]]
    if not np.array_equal(powers[m], powers[0]):
        raise GroupSpecError(f"SD action order does not divide the acting order {m}")
    table = np.empty((k, m, k, m), dtype=TABLE_DTYPE)  # (x1, y1)(x2, y2) at [x1, y1, x2, y2]
    for y1, rows in product(range(m), _blocks(k, k)):
        left = normal[rows].take(powers[y1], axis=1)  # x1 * phi^y1(x2) at [x1, x2]
        cut = m - y1 if wrap else m  # y2 >= cut carries: y1 + y2 >= m
        if cut < m:
            carried = normal[:, wrap].take(left) * m
            np.add(carried[..., None], top[y1, cut:], out=table[rows, y1, :, cut:])
        left *= m
        np.add(left[..., None], top[y1, :cut], out=table[rows, y1, :, :cut])
    return table.reshape(k * m, k * m)


def _extend_action(normal: Group, action: Sequence[tuple[int, int]]) -> np.ndarray:
    """Extend generator images to a full automorphism of ``normal``: phi is
    grown breadth first by phi(x g) = phi(x) h for every element x and pair
    (g, h), which gives phi(x w) = phi(x) phi(w) for every word w in the g.
    So once the g generate, phi is an automorphism iff it is a bijection."""
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
    right: list[int] = []  # right[x * len(gens) + s]: the index of x * gens[s]
    found: list[tuple[int, int]] = []  # (x, s) with y = x * gens[s], for y = 1, 2, ...
    cap = max_order()
    for x, u in enumerate(elems):  # elems grows in breadth-first order
        for s, g in enumerate(gens):
            y = tuple(g[p] for p in u)
            if y not in index:
                if len(elems) + 1 > cap:
                    raise _size_limit("permutation closure", cap)
                index[y] = len(elems)
                elems.append(y)
                found.append((x, s))
            right.append(index[y])
    n = len(elems)
    right_mult = np.array(right, dtype=TABLE_DTYPE).reshape(n, len(gens))
    table = np.empty((n, n), dtype=TABLE_DTYPE)
    table[:, 0] = np.arange(n)
    # z * y = (z * x) * gens[s] for every z, and x was found, so filled, before y
    for y, (x, s) in enumerate(found, start=1):
        table[:, y] = right_mult[table[:, x], s]
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
    n = len(rows)
    _check_order(n)
    try:
        entries = [[int(x) for x in row] for row in rows]
    except ValueError as exc:
        raise GroupSpecError(f"raw table has a non-integer entry: {exc}")
    if any(len(row) != n for row in rows):
        raise GroupSpecError("raw table is not square")
    # checked as Python ints: the uint16 cast raises OverflowError past 65,535
    if min(map(min, entries)) < 0 or max(map(max, entries)) >= n:
        raise GroupSpecError(f"raw table entries must lie in 0..{n - 1}")
    try:
        group = Group(np.array(entries, dtype=TABLE_DTYPE), label=label)
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
