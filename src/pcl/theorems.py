"""Fast-path classifiers for the perfect-code decision.

Each classifier implements a closed-form rule for one class of groups and is
differentially tested against the coset criterion.  All rules are evaluated
against a recognition witness (explicit generators inside the concrete
group), never against an abstract presentation; membership in the classified
two-generator shapes is decided by Burnside's basis theorem against the
Frattini subgroup.  ``classify`` chooses the rule that applies to a group.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    if not _is_2group(G) or recognize_a1_family(G).tag not in (
            "q8", "metacyclic", "nonmetacyclic"):
        raise WrongClassifierError(
            f"classify_a1_2group requires a minimal nonabelian 2-group, got {G.label}")
    rec = recognize_a1_family(G)
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


def _odd_residues(modulus: int) -> list[int]:
    return [d for d in range(1, max(modulus, 2)) if d % 2 == 1]


def _family_shapes(n2: int, m2: int):
    """Shape table for the nonmetacyclic group with parameters (n2, m2).

    Each entry is (label, parameter names, range lists, generator builder);
    a builder returns the exponent triples (x, y, z) of the two generators
    a^x b^y c^z.  Exponent parameters range over residues modulo the
    relevant element orders, so every subgroup the unbounded shapes describe
    is produced.
    The constraint on k is 2^k divides 2^n2 * j (always met when j = 0).
    """
    qa, qb = 2 ** n2, 2 ** m2

    def v2(x: int) -> int:
        return (x & -x).bit_length() - 1 if x else 10 ** 9

    shapes = []
    if n2 == 1:
        shapes.append(("<a c^s, b^2>", ("s",), lambda s: ((1, 0, s), (0, 2, 0))))
        shapes.append(("<a b^2j c^s, b^(2^k r) c>", ("j", "s", "k", "r"),
                       lambda j, s, k, r: ((1, 2 * j, s), (0, (2 ** k) * r, 1))))
        shapes.append(("<a b^t, c>", ("t",), lambda t: ((1, t, 0), (0, 0, 1))))
        shapes.append(("<a^t b^d, c>", ("t", "d"), lambda t, d: ((t, d, 0), (0, 0, 1))))
    else:
        shapes.append(("<a^d c^s, b^2>", ("d", "s"), lambda d, s: ((d, 0, s), (0, 2, 0))))
        shapes.append(("<a^d b^2j c^s, b^(2^k r) c>", ("d", "j", "s", "k", "r"),
                       lambda d, j, s, k, r: ((d, 2 * j, s), (0, (2 ** k) * r, 1))))
        shapes.append(("<a^t b^d c^s, a^2>", ("t", "d", "s"),
                       lambda t, d, s: ((t, d, s), (2, 0, 0))))
        shapes.append(("<a^t b^d c^s, a^(2^l r) c>", ("t", "d", "s", "l", "r"),
                       lambda t, d, s, l, r: ((t, d, s), ((2 ** l) * r, 0, 1))))
        shapes.append(("<a^d b^t, c>", ("d", "t"), lambda d, t: ((d, t, 0), (0, 0, 1))))
        shapes.append(("<a^t b^d, c>", ("t", "d"), lambda t, d: ((t, d, 0), (0, 0, 1))))

    def ranges(label: str, names: tuple[str, ...],
               partial: dict[str, int]) -> list[int]:
        name = names[len(partial)]
        if name == "s":
            return [0, 1]
        if name == "t":
            # position decides the modulus: t exponentiates a in a^t forms
            return list(range(qa)) if "a^t" in label else list(range(qb))
        if name == "d":
            return _odd_residues(qb) if "b^d" in label else _odd_residues(qa)
        if name == "j":
            return list(range(max(qb // 2, 1)))
        if name == "k":
            j = partial["j"]
            top = n2 + v2(j) if j else m2 - 1
            return [k for k in range(1, m2) if k <= top]
        if name == "l":
            return list(range(1, n2))
        if name == "r":
            if "b^(2^k r)" in label:
                return _odd_residues(2 ** (m2 - partial["k"]))
            return _odd_residues(2 ** (n2 - partial["l"]))
        raise AssertionError(name)

    expanded = []
    for label, names, builder in shapes:
        combos: list[dict[str, int]] = [{}]
        for _ in names:
            combos = [dict(c, **{names[len(c)]: v}) for c in combos
                      for v in ranges(label, names, c)]
        expanded.append((label, names, combos, builder))
    return expanded


def _family_candidates(G: Group, rec: FamilyRecognition):
    """((label, params) of each candidate, g1 array, g2 array), cached."""
    return G.memo("family_candidates", lambda: _build_family_candidates(G, rec))


def _build_family_candidates(G: Group, rec: FamilyRecognition):
    entries, words = [], []
    for label, _, combos, builder in _family_shapes(*rec.params):
        for params in combos:
            entries.append((label, params))
            words.append(builder(**params))
    exps = np.array(words)  # axes: candidate, generator, witness a/b/c
    factors = []
    for i, g in enumerate(rec.witness):
        powers = np.array([G.power(g, k) for k in range(G.element_order(g))])
        factors.append(powers[exps[..., i]])
    mult = G.mult
    gens = mult[mult[factors[0], factors[1]], factors[2]]
    return entries, gens[:, 0], gens[:, 1]


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
