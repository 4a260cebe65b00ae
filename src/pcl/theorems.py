"""Fast-path classifiers for the perfect-code decision.

Each classifier implements a closed-form rule for one class of groups and is
differentially tested against the coset criterion.  All rules are evaluated
against a recognition witness (explicit generators inside the concrete
group), never against an abstract presentation; membership in the classified
two-generator shapes is decided by Burnside's basis theorem against the
Frattini subgroup.  Those shapes form one table, ``_family_table``: per shape,
an array of parameter values with one row per candidate and an array of the
exponent words of each candidate's two generators in the witness, in a fixed
enumeration order.  ``classify`` chooses the rule that applies to a group.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product

import numpy as np

from .codes import zhang_reduce
from .errors import WrongClassifierError
from .groups import Group, index_mask
from .structure import (FamilyRecognition, Subgroup, full_subgroup,
                        recognize_a1_family, recognize_dihedral,
                        subgroup_generated, _is_2group, _require_subgroup_of)

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
    """The verdict on H of the first rule whose class holds the pair, in
    priority order: abelian 2-groups, minimal nonabelian 2-groups, dihedral
    groups, pairs whose reduced P is nontrivial and abelian; None when none
    does.  Each class is decided by its classifier's guard alone."""
    for rule in (classify_abelian_2group, classify_a1_2group, dihedral_classify,
                 classify_abelian_sylow2):
        try:
            return rule(G, H)
        except WrongClassifierError:
            pass
    return None


def classify_abelian_2group(G: Group, H: Subgroup) -> ClassificationOutcome:
    """Abelian 2-group rule: H is a perfect code iff H meet Phi(G) <= Phi(H)."""
    _require_subgroup_of(G, H)
    if not (G.is_abelian and _is_2group(G)):
        raise WrongClassifierError(
            f"classify_abelian_2group requires an abelian 2-group, got {G.label}")
    if H.is_trivial or H.is_full:
        return ClassificationOutcome(True, CLAUSE_TRIVIAL)
    return ClassificationOutcome(_frattini_contained(H, full_subgroup(G)), CLAUSE_FRATTINI)


def _frattini_contained(Q: Subgroup, P: Subgroup) -> bool:
    """Whether Q meet Phi(P) <= Phi(Q), for subgroups Q <= P of an abelian
    2-group P, where Phi of each is its set of squares (``_squares``)."""
    return not (Q.mask & _squares(P) & ~_squares(Q)).any()


def _squares(H: Subgroup) -> np.ndarray:
    """Mask of the squares of H's members.  In an abelian 2-group H,
    Phi(H) = H^2 [H, H] = H^2 and (ab)^2 = a^2 b^2, so this is Phi(H); at
    odd order it is not (C3 is its own set of squares, Phi(C3) = 1)."""
    G = H.parent
    return G.square_mask if H.is_full else index_mask(G.squares[H.members], G.order)


def classify_a1_2group(G: Group, H: Subgroup) -> ClassificationOutcome:
    """Minimal nonabelian 2-group rule.

    Cyclic subgroups are codes exactly when some generator is a nonsquare
    (never in the quaternion group); noncyclic codes exist only in the
    dihedral group of order 8 (the Klein four subgroups) and in the
    nonmetacyclic family, where membership in an explicit list of
    two-generator shapes decides.
    """
    _require_subgroup_of(G, H)
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
    match = _match_theorem_family(G, rec, H)
    return ClassificationOutcome(match is not None, CLAUSE_FAMILY, match)


def _family_table(n2: int, m2: int):
    """Shape table for the nonmetacyclic group with parameters (n2, m2),
    yielded shape by shape as (label, names, values, words): one parameter
    per letter of names, one row of values per candidate, and in words, per
    candidate and generator, the exponent triple (x, y, z) of a^x b^y c^z.

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
    # (label, one letter per parameter, parameter values, words of value columns)
    if n2 == 1:
        shapes = [
            ("<a c^s, b^2>", "s", product(S),
             lambda s: ((1, 0, s), (0, 2, 0))),
            ("<a b^2j c^s, b^(2^k r) c>", "jskr",
             ((j, s, k, r) for j, s in product(range(qb // 2), S) for k, r in k_r(j)),
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
             ((d, j, s, k, r) for d, j, s in product(odd_a, range(qb // 2), S)
              for k, r in k_r(j)),
             lambda d, j, s, k, r: ((d, 2 * j, s), (0, 2 ** k * r, 1))),
            ("<a^t b^d c^s, a^2>", "tds", product(range(qa), odd_b, S),
             lambda t, d, s: ((t, d, s), (2, 0, 0))),
            ("<a^t b^d c^s, a^(2^l r) c>", "tdslr",
             ((t, d, s, l, r) for t, d, s in product(range(qa), odd_b, S) for l, r in l_r),
             lambda t, d, s, l, r: ((t, d, s), (2 ** l * r, 0, 1))),
            ("<a^d b^t, c>", "dt", product(odd_a, range(qb)),
             lambda d, t: ((d, t, 0), (0, 0, 1))),
            ("<a^t b^d, c>", "td", product(range(qa), odd_b),
             lambda t, d: ((t, d, 0), (0, 0, 1))),
        ]
    for label, names, table, words in shapes:
        values = np.fromiter(chain.from_iterable(table), np.int32).reshape(-1, len(names))
        columns = np.broadcast_arrays(*chain.from_iterable(words(*values.T)))
        yield label, names, values, np.stack(columns, axis=1).reshape(-1, 2, 3)


def _build_family_candidates(G: Group, rec: FamilyRecognition):
    """Each ``_family_table`` entry with its words read as g1 and g2 arrays,
    and beside them g1 g2, which depends on G alone, not on the subgroup."""
    powers = [np.array([G.power(g, k) for k in range(G.element_order(g))]) for g in rec.witness]
    out = []
    for label, names, values, words in _family_table(*rec.params):
        # axes of words: candidate, generator, witness a/b/c
        a, b, c = (p[words[..., i]] for i, p in enumerate(powers))
        gens = G.mult[G.mult[a, b], c]
        g1, g2 = gens[:, 0], gens[:, 1]
        out.append((label, names, values, g1, g2, G.mult[g1, g2]))
    return tuple(out)


def _match_theorem_family(G: Group, rec: FamilyRecognition, H: Subgroup) -> FamilyMatch | None:
    """First classified shape of G's nonmetacyclic family, in enumeration
    order, whose two generators generate H, if any.  The shapes are built
    from ``rec``, G's own recognition, so H must be a subgroup of G.

    By Burnside's basis theorem, g1 and g2 generate a noncyclic 2-group H
    exactly when |H : Phi(H)| = 4, both lie in H, and none of g1, g2 and
    g1 g2 lies in Phi(H).  H is a proper subgroup of a minimal nonabelian
    group, so abelian, and Phi(H) is its set of squares.  The test runs over
    each shape's candidate pairs at once and builds no subgroup.  Only noncyclic
    proper nontrivial subgroups can match: a trivial or cyclic H fails the
    index test, and every shape generates a proper subgroup.
    """
    _require_subgroup_of(G, H)
    phi = _squares(H)
    if H.order != 4 * np.count_nonzero(phi):
        return None
    outside_phi = H.mask & ~phi
    for label, names, values, g1, g2, g12 in G.memo(
            "family_candidates", lambda: _build_family_candidates(G, rec)):
        hits = np.flatnonzero(outside_phi[g1] & outside_phi[g2] & outside_phi[g12])
        if hits.size:
            i = hits[0]
            return FamilyMatch(label, dict(zip(names, values[i].tolist())),
                               (int(g1[i]), int(g2[i])))
    return None


def dihedral_classify(G: Group, H: Subgroup) -> ClassificationOutcome:
    """Dihedral rule: subgroups of the rotation subgroup <a> are codes iff
    |H| or n/|H| is odd; everything else is a code."""
    _require_subgroup_of(G, H)
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
    """Rule for pairs whose reduced P is nontrivial and abelian: with (Q, P)
    from ``codes.zhang_reduce``, H is a perfect code of G iff Q is one of P,
    and by the abelian 2-group rule iff Q meet Phi(P) <= Phi(Q)."""
    Q, P = zhang_reduce(G, H)
    if P.order == 1 or not P.is_abelian:
        raise WrongClassifierError(
            f"classify_abelian_sylow2 requires a nontrivial abelian reduced P, got {G.label}")
    return ClassificationOutcome(_frattini_contained(Q, P), CLAUSE_SYLOW2)
