"""Independent checks of `pcl verify` records, written apart from the program.

Nothing here imports ``pcl``.  The inputs are the group tables that
``pcl build`` emits and the JSON records of ``pcl verify``; every verdict is
checked against a certificate with this module's own numpy code:

* a positive verdict by its connection set, against the perfect-code
  definition, and by its inverse-closed transversal;
* a negative verdict by its violating element x: x^2 in H, |H : H meet H^x|
  odd, and no y in Hx with y^2 = 1.

The subgroup lists are checked by properties that do not depend on how the
program enumerates subgroups: closure, distinctness, every cyclic subgroup
present, Frobenius' congruence, exact counts for families with a closed
formula, and a brute-force enumeration for orders up to 16.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field

import numpy as np

ROUTES = ("criterion3", "criterion4", "oracle", "cayley")
METHODS = ROUTES + ("theorem",)
BRUTE_FORCE_LIMIT = 16
# subgroup counts of groups without a closed formula here
KNOWN_COUNTS = {"Q8": 6, "S3": 6, "A4": 10, "A5": 59}


@dataclass
class Outcome:
    failed_pairs: dict[int, list[str]] = field(default_factory=dict)
    group_problems: list[str] = field(default_factory=list)
    findings: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return len(self.failed_pairs)


# ---------------------------------------------------------------- tables

def table_problems(table: dict, expected_order: int | None) -> list[str]:
    """Group axioms on a table from `pcl build`, identity at index 0."""
    t = np.asarray(table["mult"], dtype=np.int64)
    inv = np.asarray(table["inv"], dtype=np.int64)
    n = int(table["order"])
    label = table.get("label", "?")
    if t.shape != (n, n) or inv.shape != (n,):
        return [f"{label}: table shape {t.shape} for order {n}"]
    if expected_order is not None and n != expected_order:
        return [f"{label}: order {n}, expected {expected_order}"]
    if t.min() < 0 or t.max() >= n or inv.min() < 0 or inv.max() >= n:
        return [f"{label}: table entry out of range"]
    idx = np.arange(n)
    if int(table.get("identity", 0)) != 0 or not (
            np.array_equal(t[0], idx) and np.array_equal(t[:, 0], idx)):
        return [f"{label}: index 0 is not a two-sided identity"]
    if not ((t[idx, inv] == 0).all() and (t[inv, idx] == 0).all()):
        return [f"{label}: inverse table wrong"]
    for a in range(n):  # (a b) c == a (b c), one row of a at a time
        if not np.array_equal(t[t[a], :], t[a][t]):
            return [f"{label}: not associative at a={a}"]
    return []


# orders of the permutation and semidirect groups the workloads use
SPECIAL_ORDERS = {"perm:(1 2 3),(1 2)": 6, "perm:(1 2 3),(1 2)(3 4)": 12,
                  "perm:(1 2 3 4 5),(1 2 3)": 60, "SD(C(5);C(4);1->2)": 20,
                  "SD(C(7);C(3);1->2)": 21}


def expected_order(spec: str) -> int | None:
    """Order of a group from its spec: a product of family atoms, or one of
    SPECIAL_ORDERS; None for any other spec."""
    if spec in SPECIAL_ORDERS:
        return SPECIAL_ORDERS[spec]
    total = 1
    for atom in spec.split("x"):
        if m := re.fullmatch(r"C\((\d+)\)|D\((\d+)\)", atom):
            total *= int(m[1] or m[2])
        elif m := re.fullmatch(r"EA\((\d+),(\d+)\)", atom):
            total *= int(m[1]) ** int(m[2])
        elif atom == "Q8":
            total *= 8
        elif m := re.fullmatch(r"M2\((\d+),(\d+)(,1)?\)", atom):
            total *= 2 ** (int(m[1]) + int(m[2]) + (1 if m[3] else 0))
        else:
            return None
    return total


# ---------------------------------------------------------------- helpers

class Table:
    """A checked group table with the derived arrays the checks share."""

    def __init__(self, table: dict):
        self.label = table.get("label", "?")
        self.t = np.asarray(table["mult"], dtype=np.int64)
        self.inv = np.asarray(table["inv"], dtype=np.int64)
        self.n = int(table["order"])
        self.sq = self.t[np.arange(self.n), np.arange(self.n)]

    def mask(self, elements) -> np.ndarray:
        m = np.zeros(self.n, dtype=bool)
        m[np.asarray(elements, dtype=np.int64)] = True
        return m

    def generated(self, gens) -> np.ndarray:
        """Mask of the subgroup generated by ``gens``, by right multiplication."""
        members = self.mask([0])
        gens = np.asarray(list(gens), dtype=np.int64)
        if gens.size == 0:
            return members
        while True:
            grown = members.copy()
            grown[self.t[np.ix_(np.flatnonzero(members), gens)].ravel()] = True
            if grown.sum() == members.sum():
                return members
            members = grown

    def cyclic_masks(self) -> np.ndarray:
        """Row g is the mask of <g>."""
        n = self.n
        out = np.zeros((n, n), dtype=bool)
        idx = np.arange(n)
        power = np.zeros(n, dtype=np.int64)
        for _ in range(n):
            power = self.t[power, idx]
            out[idx, power] = True
        return out


def _bits(mask: np.ndarray) -> int:
    """The mask as an integer with bit i set for element i."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _prime_powers(n: int) -> list[tuple[int, int]]:
    """(p, p^k) for every prime power p^k > 1 dividing n."""
    out = []
    m, p = n, 2
    while m > 1:
        if m % p == 0:
            q = p
            while n % q == 0:
                out.append((p, q))
                q *= p
            while m % p == 0:
                m //= p
        p += 1
    return out


def brute_force_subgroups(tab: Table) -> set[int]:
    """Bitmasks of all subsets containing the identity that are closed under
    multiplication (in a finite group, exactly the subgroups)."""
    n = tab.n
    rows = np.arange(1 << (n - 1), dtype=np.int64)
    member = np.zeros((rows.size, n), dtype=bool)
    member[:, 0] = True
    for e in range(1, n):
        member[:, e] = (rows >> (e - 1)) & 1
    closed = np.ones(rows.size, dtype=bool)
    for a in range(1, n):
        for b in range(1, n):
            closed &= ~(member[:, a] & member[:, b]) | member[:, tab.t[a, b]]
    return {(int(r) << 1) | 1 for r in rows[closed]}


def expected_subgroup_count(spec: str, label: str) -> int | None:
    """Exact subgroup counts of families with a closed formula."""
    if m := re.fullmatch(r"C\((\d+)\)", spec):
        return len(_divisors(int(m[1])))
    if m := re.fullmatch(r"D\((\d+)\)", spec):
        n = int(m[1]) // 2
        return len(_divisors(n)) + sum(_divisors(n))
    if m := re.fullmatch(r"EA\(2,(\d+)\)", spec):
        k = int(m[1])
        total = 0
        for j in range(k + 1):  # Gaussian binomial [k, j]_2
            num = den = 1
            for i in range(j):
                num *= 2 ** (k - i) - 1
                den *= 2 ** (i + 1) - 1
            total += num // den
        return total
    return KNOWN_COUNTS.get(label)


def expected_code_count(spec: str) -> int | None:
    """Perfect codes of D(2n): sigma(n) reflection subgroups plus the rotation
    subgroups whose order d or index n/d is odd."""
    if m := re.fullmatch(r"D\((\d+)\)", spec):
        n = int(m[1]) // 2
        divs = _divisors(n)
        return sum(divs) + sum(1 for d in divs if d % 2 or (n // d) % 2)
    return None


# ---------------------------------------------------------------- verdicts

def connection_set_problem(tab: Table, h: np.ndarray, s) -> str | None:
    """None when S is identity-free, inverse-closed and makes H a perfect
    code: every vertex at distance at most 1 from exactly one member of H."""
    s = np.asarray(s, dtype=np.int64)
    if s.size and (s.min() < 0 or s.max() >= tab.n):
        return "connection set out of range"
    smask = tab.mask(s) if s.size else np.zeros(tab.n, dtype=bool)
    if smask[0]:
        return "connection set holds the identity"
    if not np.array_equal(smask[tab.inv], smask):
        return "connection set not inverse-closed"
    hmask = tab.mask(h)
    # g is adjacent to c in H when g c^-1 lies in S
    hits = smask[tab.t[:, tab.inv[h]]].sum(axis=1) + hmask
    if not (hits == 1).all():
        return "H is not a perfect code of Cay(G, S)"
    return None


def transversal_problem(tab: Table, h: np.ndarray, reps) -> str | None:
    reps = np.asarray(reps, dtype=np.int64)
    if reps.size * h.size != tab.n or (reps.size and (reps.min() < 0 or reps.max() >= tab.n)):
        return "transversal has the wrong size"
    cosets = tab.t[np.ix_(h, reps)]  # column j is the coset H reps[j]
    if np.unique(cosets).size != tab.n:
        return "transversal does not meet every right coset once"
    if not np.array_equal(np.sort(tab.inv[reps]), np.sort(reps)):
        return "transversal not inverse-closed"
    return None


def violator_problem(tab: Table, h: np.ndarray, x, double_coset: bool) -> str | None:
    """None when x certifies that H is not a perfect code."""
    if not isinstance(x, int) or not 0 <= x < tab.n:
        return f"violating x {x!r} out of range"
    hmask = tab.mask(h)
    t, inv = tab.t, tab.inv
    if not hmask[tab.sq[x]]:
        return f"violating x={x}: x^2 not in H"
    conj = t[t[inv[x], h], x]  # H^x = x^-1 H x
    if (h.size // int(hmask[conj].sum())) % 2 == 0:
        return f"violating x={x}: |H : H meet H^x| even"
    if (tab.sq[t[h, x]] == 0).any():
        return f"violating x={x}: Hx holds a solution of y^2 = 1"
    if double_coset and not (t[np.ix_(t[h, x], h)] == inv[x]).any():
        return f"violating x={x}: HxH differs from Hx^-1H"
    return None


def record_problems(tab: Table, record: dict) -> tuple[list[str], bool]:
    """(problems, theorem finding) for one record."""
    sub = record.get("subgroup", {})
    h = np.asarray(sub.get("elements", []), dtype=np.int64)
    verdicts = record.get("verdicts", {})
    if set(verdicts) != set(METHODS):
        return [f"methods {sorted(verdicts)}"], False
    if h.size == 0 or h.size != sub.get("order") or h.min() < 0 or h.max() >= tab.n:
        return ["subgroup elements or order field wrong"], False
    votes = {m: verdicts[m]["is_code"] for m in ROUTES if "is_code" in verdicts[m]}
    if not {"criterion3", "criterion4", "oracle"} <= set(votes):
        return ["a route gave no verdict"], False
    if len(set(votes.values())) != 1:
        return [f"routes disagree: {votes}"], False
    truth = votes["criterion3"]
    problems = []
    if truth:
        evidence = verdicts["cayley"].get("evidence") or {}
        if "connection_set" not in evidence:
            problems.append("positive verdict without a connection set")
        elif (p := connection_set_problem(tab, h, evidence["connection_set"])):
            problems.append(p)
        reps = (verdicts["oracle"].get("evidence") or {}).get("transversal")
        if reps is None:
            problems.append("positive verdict without a transversal")
        elif (p := transversal_problem(tab, h, reps)):
            problems.append(p)
    else:
        for method in ("criterion3", "criterion4"):
            x = (verdicts[method].get("evidence") or {}).get("violating_x")
            if (p := violator_problem(tab, h, x, method == "criterion4")):
                problems.append(f"{method}: {p}")
    theorem = verdicts["theorem"]
    finding = "is_code" in theorem and theorem["is_code"] != truth
    all_votes = set(votes.values()) | ({theorem["is_code"]} if "is_code" in theorem else set())
    if record.get("agreement") != (len(all_votes) <= 1):
        problems.append("agreement flag inconsistent with the verdicts")
    return problems, finding


# ---------------------------------------------------------------- lattices

def lattice_problems(tab: Table, spec: str, records: list[dict]) -> list[str]:
    """Checks on the subgroup list of one group, independent of how it was
    enumerated, plus the code counts that follow from the verdicts."""
    label = tab.label
    problems = []
    seen: set[int] = set()
    for r in records:
        elements = r["subgroup"]["elements"]
        if not all(isinstance(e, int) and 0 <= e < tab.n for e in elements):
            problems.append(f"{label}: subgroup element out of range")
            continue
        m = tab.mask(elements)
        if not m[0] or len(set(elements)) != len(elements):
            problems.append(f"{label}: subgroup {elements[:8]}... malformed")
            continue
        h = np.flatnonzero(m)
        if not m[tab.t[np.ix_(h, h)]].all():
            problems.append(f"{label}: subgroup of order {h.size} not closed")
            continue
        if not np.array_equal(tab.generated(r["subgroup"].get("generators", [])), m):
            problems.append(f"{label}: generators do not generate their subgroup")
        key = _bits(m)
        if key in seen:
            problems.append(f"{label}: subgroup of order {h.size} listed twice")
        seen.add(key)
    cyclic_masks = tab.cyclic_masks()
    cyclic = {_bits(row) for row in cyclic_masks}
    if missing := cyclic - seen:
        problems.append(f"{label}: {len(missing)} cyclic subgroups missing")
    orders: dict[int, int] = {}
    for key in seen:
        size = bin(key).count("1")
        orders[size] = orders.get(size, 0) + 1
    for p, q in _prime_powers(tab.n):
        if orders.get(q, 0) % p != 1:
            problems.append(f"{label}: {orders.get(q, 0)} subgroups of order {q}, "
                            f"not 1 mod {p}")
    expected = expected_subgroup_count(spec, label)
    if expected is not None and len(seen) != expected:
        problems.append(f"{label}: {len(seen)} subgroups, expected {expected}")
    if tab.n <= BRUTE_FORCE_LIMIT and seen != brute_force_subgroups(tab):
        problems.append(f"{label}: subgroups differ from the brute-force list")
    codes = sum(1 for r in records if r["verdicts"].get("criterion3", {}).get("is_code"))
    expected = expected_code_count(spec)
    if expected is not None and codes != expected:
        problems.append(f"{label}: {codes} codes, expected {expected}")
    no_order4 = not (cyclic_masks.sum(axis=1) == 4).any()
    if no_order4 != (codes == len(records)):
        problems.append(f"{label}: every subgroup a code is {codes == len(records)}, "
                        f"no element of order 4 is {no_order4}")
    return problems


# ---------------------------------------------------------------- a run

def check_records(groups: list[tuple[str, str]], tables: dict[str, dict],
                  records: list[dict]) -> Outcome:
    """Check every record of a run.  ``groups`` are the (label, spec) pairs the
    run was given and ``tables`` the `pcl build` output by label."""
    out = Outcome()
    by_label: dict[str, list[int]] = {}
    for i, r in enumerate(records):
        by_label.setdefault(r.get("group"), []).append(i)
    labels = [label for label, _ in groups]
    if set(by_label) != set(labels):
        out.group_problems.append(
            f"groups in the output differ from the input: "
            f"missing {sorted(set(labels) - set(by_label))}, "
            f"extra {sorted(map(str, set(by_label) - set(labels)))}")
    for label, spec in groups:
        if label not in tables:
            out.group_problems.append(f"{label}: no table")
            continue
        if (problems := table_problems(tables[label], expected_order(spec))):
            out.group_problems.extend(problems)
            continue
        tab = Table(tables[label])
        indices = by_label.get(label, [])
        for i in indices:
            problems, finding = record_problems(tab, records[i])
            if problems:
                out.failed_pairs[i] = problems
            if finding:
                out.findings.append(
                    f"{label} <{','.join(map(str, records[i]['subgroup']['generators']))}>")
        out.group_problems.extend(
            lattice_problems(tab, spec, [records[i] for i in indices]))
    return out


def strip_times(record: dict) -> dict:
    """The deterministic content of a record: everything except time_ms."""
    out = dict(record)
    out["verdicts"] = {m: {k: v for k, v in payload.items() if k != "time_ms"}
                       for m, payload in record.get("verdicts", {}).items()}
    return out


def digest(groups: list[tuple[str, str]], records: list[dict]) -> str:
    """sha256 of the time-stripped records in the groups' canonical order
    (records of one group keep the program's order)."""
    rank = {label: i for i, (label, _) in enumerate(groups)}
    ordered = sorted(records, key=lambda r: rank.get(r.get("group"), len(rank)))
    h = hashlib.sha256()
    for r in ordered:
        h.update(json.dumps(strip_times(r), sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()
