"""Fast-path classifiers for the perfect-code decision.

Each classifier implements a closed-form rule for one class of groups and is
differentially tested against the coset criterion.  All rules are evaluated
against a recognition witness (explicit generators inside the concrete
group), never against an abstract presentation; membership in the classified
two-generator shapes is decided by Burnside's basis theorem against the
Frattini subgroup.  Those shapes form one flat table, ``_family_table``: one
row per shape and parameter values, each with the exponent words of its two
generators in the witness, in a fixed enumeration order.  ``classify``
chooses the rule that applies to a group.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import WrongClassifierError
from .groups import Group
from .structure import (FamilyRecognition, Subgroup, frattini, full_subgroup,
                        recognize_a1_family, recognize_dihedral,
                        subgroup_generated, sylow, sylow_containing,
                        _sylow_within, _is_2group)

CLAUSE_TRIVIAL = "trivial-subgroup"
CLAUSE_FRATTINI = "frattini-containment"
CLAUSE_Q8 = "quaternion-no-nontrivial-codes"
CLAUSE_NONSQUARE = "cyclic-nonsquare-generator"
CLAUSE_KLEIN_D8 = "klein-four-in-dihedral-8"
CLAUSE_METACYCLIC_NONCYCLIC = "metacyclic-noncyclic-excluded"
CLAUSE_FAMILY = "noncyclic-family-match"
CLAUSE_DIHEDRAL = "dihedral-rule"
CLAUSE_SYLOW2 = "sylow2-frattini-containment"


@dataclass(frozen=True)
class FamilyMatch:
    """A noncyclic subgroup matched to one of the classified shapes."""

    family: str
    params: dict[str, int]
    generators: tuple[int, ...]


@dataclass(frozen=True)
class ClassificationOutcome:
    is_code: bool
    clause: str
    match: FamilyMatch | None = None


def classify(G: Group, H: Subgroup) -> ClassificationOutcome | None:
    """The verdict on H of the first rule whose class holds G, in priority
    order: abelian 2-groups, minimal nonabelian 2-groups, dihedral groups,
    groups with a nontrivial abelian Sylow 2-subgroup; None when none does.
    Each class is decided by its classifier's guard alone."""
    for rule in (classify_abelian_2group, classify_a1_2group, dihedral_classify,
                 classify_abelian_sylow2):
        try:
            return rule(G, H)
        except WrongClassifierError:
            pass
    return None


def classify_abelian_2group(G: Group, H: Subgroup) -> ClassificationOutcome:
    """Abelian 2-group rule: H is a perfect code iff H meet Phi(G) <= Phi(H)."""
    if not (G.is_abelian and _is_2group(G)):
        raise WrongClassifierError(
            f"classify_abelian_2group requires an abelian 2-group, got {G.label}")
    if H.is_trivial or H.is_full:
        return ClassificationOutcome(True, CLAUSE_TRIVIAL)
    phi_g = frattini(full_subgroup(G))
    phi_h = frattini(H)
    ok = ((H.mask_int & phi_g.mask_int) & ~phi_h.mask_int) == 0
    return ClassificationOutcome(ok, CLAUSE_FRATTINI)


def classify_a1_2group(G: Group, H: Subgroup) -> ClassificationOutcome:
    """Minimal nonabelian 2-group rule.

    Cyclic subgroups are codes exactly when some generator is a nonsquare
    (never in the quaternion group); noncyclic codes exist only in the
    dihedral group of order 8 (the Klein four subgroups) and in the
    nonmetacyclic family, where membership in an explicit list of
    two-generator shapes decides.
    """
    rec = recognize_a1_family(G) if _is_2group(G) else None
    if rec is None or rec.tag not in ("q8", "metacyclic", "nonmetacyclic"):
        raise WrongClassifierError(
            f"classify_a1_2group requires a minimal nonabelian 2-group, got {G.label}")
    if H.is_trivial or H.is_full:
        return ClassificationOutcome(True, CLAUSE_TRIVIAL)
    if rec.tag == "q8":
        return ClassificationOutcome(False, CLAUSE_Q8)
    if H.is_cyclic:
        orders = G.element_orders()
        gens = H.members[orders[H.members] == H.order]
        nonsquare = bool((~G.square_mask[gens]).any())
        return ClassificationOutcome(nonsquare, CLAUSE_NONSQUARE)
    if rec.tag == "metacyclic":
        if rec.params == (2, 1):
            klein = H.order == 4 and bool((G.element_orders()[H.members] <= 2).all())
            if klein:
                match = FamilyMatch("Z2xZ2 in D8", {}, H.generators)
                return ClassificationOutcome(True, CLAUSE_KLEIN_D8, match)
            return ClassificationOutcome(False, CLAUSE_KLEIN_D8)
        return ClassificationOutcome(False, CLAUSE_METACYCLIC_NONCYCLIC)
    match = match_theorem_family(rec, H)
    return ClassificationOutcome(match is not None, CLAUSE_FAMILY, match)


def _family_table(n2: int, m2: int):
    """Shape table for the nonmetacyclic group with parameters (n2, m2):
    (label, params, (word1, word2)) for every candidate, where a word is the
    exponent triple (x, y, z) of a generator a^x b^y c^z.

    Exponent parameters range over residues modulo the relevant element
    orders, so every subgroup the unbounded shapes describe is produced:
    t over all residues, d and r over odd ones, s over {0, 1}.  In
    b^(2^k r), 2^k divides 2^n2 * j (always met when j = 0)."""
    qa, qb = 2 ** n2, 2 ** m2
    S, odd_a, odd_b = (0, 1), range(1, qa, 2), range(1, qb, 2)

    def k_r(j: int):
        top = m2 - 1 if j == 0 else min(m2 - 1, n2 + (j & -j).bit_length() - 1)
        return [(k, r) for k in range(1, top + 1) for r in range(1, 2 ** (m2 - k), 2)]

    l_r = [(l, r) for l in range(1, n2) for r in range(1, 2 ** (n2 - l), 2)]
    # (label, one letter per parameter, parameter values, generator words)
    if n2 == 1:
        shapes = [
            ("<a c^s, b^2>", "s", product(S),
             lambda s: ((1, 0, s), (0, 2, 0))),
            ("<a b^2j c^s, b^(2^k r) c>", "jskr",
             [(j, s, k, r) for j, s in product(range(qb // 2), S) for k, r in k_r(j)],
             lambda j, s, k, r: ((1, 2 * j, s), (0, 2 ** k * r, 1))),
            ("<a b^t, c>", "t", product(range(qb)),
             lambda t: ((1, t, 0), (0, 0, 1))),
            ("<a^t b^d, c>", "td", product(range(qa), odd_b),
             lambda t, d: ((t, d, 0), (0, 0, 1))),
        ]
    else:
        shapes = [
            ("<a^d c^s, b^2>", "ds", product(odd_a, S),
             lambda d, s: ((d, 0, s), (0, 2, 0))),
            ("<a^d b^2j c^s, b^(2^k r) c>", "djskr",
             [(d, j, s, k, r) for d, j, s in product(odd_a, range(qb // 2), S)
              for k, r in k_r(j)],
             lambda d, j, s, k, r: ((d, 2 * j, s), (0, 2 ** k * r, 1))),
            ("<a^t b^d c^s, a^2>", "tds", product(range(qa), odd_b, S),
             lambda t, d, s: ((t, d, s), (2, 0, 0))),
            ("<a^t b^d c^s, a^(2^l r) c>", "tdslr",
             [(t, d, s, l, r) for t, d, s in product(range(qa), odd_b, S) for l, r in l_r],
             lambda t, d, s, l, r: ((t, d, s), (2 ** l * r, 0, 1))),
            ("<a^d b^t, c>", "dt", product(odd_a, range(qb)),
             lambda d, t: ((d, t, 0), (0, 0, 1))),
            ("<a^t b^d, c>", "td", product(range(qa), odd_b),
             lambda t, d: ((t, d, 0), (0, 0, 1))),
        ]
    return [(label, dict(zip(names, values)), words(*values))
            for label, names, table, words in shapes for values in table]


def _family_candidates(G: Group, rec: FamilyRecognition):
    """((label, params) of each candidate, g1 array, g2 array), cached."""
    return G.memo("family_candidates", lambda: _build_family_candidates(G, rec))


def _build_family_candidates(G: Group, rec: FamilyRecognition):
    table = _family_table(*rec.params)
    # axes: candidate, generator, witness a/b/c
    exps = np.array([words for _, _, words in table])
    factors = []
    for i, g in enumerate(rec.witness):
        powers = np.array([G.power(g, k) for k in range(G.element_order(g))])
        factors.append(powers[exps[..., i]])
    mult = G.mult
    gens = mult[mult[factors[0], factors[1]], factors[2]]
    return [(label, params) for label, params, _ in table], gens[:, 0], gens[:, 1]


def match_theorem_family(rec: FamilyRecognition, H: Subgroup) -> FamilyMatch | None:
    """First classified shape, in enumeration order, whose two generators
    generate H, if any.

    By Burnside's basis theorem, g1 and g2 generate a noncyclic 2-group H
    exactly when |H : Phi(H)| = 4, both lie in H, and none of g1, g2 and
    g1 g2 lies in Phi(H).  The test runs over every candidate pair at once
    and builds no subgroup.  Only noncyclic proper nontrivial subgroups can
    match; other inputs return None.
    """
    if rec.tag != "nonmetacyclic":
        raise WrongClassifierError("match_theorem_family needs a nonmetacyclic recognition")
    G = H.parent
    if H.is_trivial or H.is_full or H.is_cyclic:
        return None
    phi = frattini(H)
    if H.order != 4 * phi.order:
        return None
    entries, g1, g2 = _family_candidates(G, rec)
    outside_phi = H.mask & ~phi.mask
    hits = np.flatnonzero(outside_phi[g1] & outside_phi[g2] & outside_phi[G.mult[g1, g2]])
    if hits.size == 0:
        return None
    i = int(hits[0])
    label, params = entries[i]
    return FamilyMatch(label, dict(params), (int(g1[i]), int(g2[i])))


def dihedral_classify(G: Group, H: Subgroup) -> ClassificationOutcome:
    """Dihedral rule: subgroups of the rotation subgroup <a> are codes iff
    |H| or n/|H| is odd; everything else is a code."""
    witness = recognize_dihedral(G)
    if witness is None:
        raise WrongClassifierError(f"{G.label} is not dihedral")
    n = G.order // 2
    rotations = G.memo("rotations", lambda: subgroup_generated(G, [witness[0]]))
    if H.issubset(rotations):
        ok = (H.order % 2 == 1) or ((n // H.order) % 2 == 1)
        return ClassificationOutcome(ok, CLAUSE_DIHEDRAL)
    return ClassificationOutcome(True, CLAUSE_DIHEDRAL)


def classify_abelian_sylow2(G: Group, H: Subgroup) -> ClassificationOutcome:
    """Rule for groups with a nontrivial abelian Sylow 2-subgroup: with Q a
    Sylow 2-subgroup of H inside a Sylow 2-subgroup P of G, H is a perfect
    code iff Q meet Phi(P) <= Phi(Q)."""
    P0 = sylow(G, 2)
    if P0.order == 1 or not P0.is_abelian:
        raise WrongClassifierError(
            f"classify_abelian_sylow2 requires a nontrivial abelian Sylow 2-subgroup, got {G.label}")
    Q = _sylow_within(G, H, 2, None)
    P = sylow_containing(G, 2, Q)
    phi_p = frattini(P)
    phi_q = frattini(Q)
    ok = ((Q.mask_int & phi_p.mask_int) & ~phi_q.mask_int) == 0
    return ClassificationOutcome(ok, CLAUSE_SYLOW2)
