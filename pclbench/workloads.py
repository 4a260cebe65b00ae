"""The benchmark's inputs: fixed group lists and the seed's only effect.

Every list here is (label, spec) pairs written out in full, so that a change
to the program's own default catalog does not change the benchmark's work.
"""

from __future__ import annotations

import random

# Every sixth entry of the default catalog (offsets 1, 7, 13, ...) less D(116)
# and D(140), which would take a quarter of the run, plus the small groups
# that exercise the other catalog branches: the quaternion group,
# an order-16 elementary abelian group (exhaustive Cayley sweeps), the
# nonmetacyclic group holding the smallest known classifier finding, and the
# mixed-order permutation and semidirect groups.  Lattice work is about 80% of
# a serial pass over it, as over the whole catalog.  D(8) stays first: it is the
# record a streaming `pcl verify` emits first, and the checker's self-test uses it.
CATALOG = [
    ("D(8)", "D(8)"),
    ("EA(2,1)", "EA(2,1)"),
    ("C(16)", "C(16)"),
    ("C(16)xC(2)", "C(16)xC(2)"),
    ("C(64)", "C(64)"),
    ("C(8)xC(2)xC(2)xC(2)", "C(8)xC(2)xC(2)xC(2)"),
    ("EA(2,4)", "EA(2,4)"),
    ("Q8", "Q8"),
    ("D(20)", "D(20)"),
    ("D(32)", "D(32)"),
    ("D(44)", "D(44)"),
    ("D(56)", "D(56)"),
    ("D(68)", "D(68)"),
    ("D(80)", "D(80)"),
    ("D(92)", "D(92)"),
    ("D(104)", "D(104)"),
    ("D(128)", "D(128)"),
    ("M2(2,1)", "M2(2,1)"),
    ("M2(3,2)", "M2(3,2)"),
    ("M2(5,1)", "M2(5,1)"),
    ("M2(1,5,1)", "M2(1,5,1)"),
    ("M2(2,2,1)", "M2(2,2,1)"),
    ("S3", "perm:(1 2 3),(1 2)"),
    ("A4", "perm:(1 2 3),(1 2)(3 4)"),
    ("A5", "perm:(1 2 3 4 5),(1 2 3)"),
    ("F20", "SD(C(5);C(4);1->2)"),
    ("C7:C3", "SD(C(7);C(3);1->2)"),
]


def _abelian_2groups() -> list[tuple[str, str]]:
    """Abelian 2-groups of order 2..64 in the catalog's spelling, without
    EA(2,6): its 2,825 subgroups would make the set-up alone ~10 s."""
    def partitions(total, cap):
        if total == 0:
            yield ()
            return
        for part in range(min(total, cap), 0, -1):
            for rest in partitions(total - part, part):
                yield (part,) + rest
    out = []
    for k in range(1, 7):
        for parts in partitions(k, k):
            if all(p == 1 for p in parts):
                spec = f"EA(2,{len(parts)})"
            else:
                spec = "x".join(f"C({2 ** p})" for p in parts)
            if spec != "EA(2,6)":
                out.append((spec, spec))
    return out


# The catalog's 2-groups, where the classifiers for A_0 and A_1 apply, plus
# the five small mixed-order groups.  D(128) is left out with EA(2,6): their
# lattices cost ~13 s of set-up against ~1 s of routes.  What remains spends
# about as long in the routes as in set-up, so a route change shows in
# pairs_per_s and a lattice change only in setup_s.
ROUTE_SWEEP = (
    _abelian_2groups()
    + [("Q8", "Q8")]
    + [(f"D({n})", f"D({n})") for n in (8, 16, 32, 64)]
    + [(f"M2({n1},{m1})", f"M2({n1},{m1})")
       for n1 in range(2, 7) for m1 in range(1, 8 - n1)]
    + [(f"M2({n2},{m2},1)", f"M2({n2},{m2},1)")
       for n2 in range(1, 4) for m2 in range(n2, 7 - n2) if n2 + m2 >= 3]
    + [("S3", "perm:(1 2 3),(1 2)"),
       ("A4", "perm:(1 2 3),(1 2)(3 4)"),
       ("A5", "perm:(1 2 3 4 5),(1 2 3)"),
       ("F20", "SD(C(5);C(4);1->2)"),
       ("C7:C3", "SD(C(7);C(3);1->2)")]
)


def catalog_order(seed: int) -> list[tuple[str, str]]:
    """The catalog in the seed's order: the first entry stays first, the rest
    are shuffled.  The work is the same for every seed."""
    head, rest = CATALOG[0], list(CATALOG[1:])
    random.Random(seed).shuffle(rest)
    return [head] + rest


def pair_order(count: int, seed: int) -> list[int]:
    """The seed's order of the route sweep's pairs (a permutation of range)."""
    order = list(range(count))
    random.Random(seed).shuffle(order)
    return order
