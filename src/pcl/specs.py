"""The group description mini-language.

Grammar (whitespace insignificant, except that points inside a permutation
cycle are whitespace separated)::

    spec   := atom { "x" atom }
    atom   := "C(" int ")" | "EA(" prime "," int ")" | "D(" int ")"
            | "Q8" | "M2(" int "," int ")" | "M2(" int "," int ",1)"
            | "SD(" spec ";" spec ";" action ")"
            | "perm:" cycles { "," cycles }
    action := int "->" int { "," int "->" int }
    cycles := "(" int { int } ")" { "(" int { int } ")" }

D(2n) is the dihedral group of order 2n.  The SD action lists the images of
enough elements to generate the normal factor under conjugation by the
canonical generator of the (cyclic) acting factor.

The parser turns each spec into its canonical label and a function that
builds the group with the ``groups`` constructors, which check the
parameters.  ``build_family`` parses the whole spec before it builds any of
it, so a syntax error is reported first and parameter errors after it, from
left to right.
"""

from __future__ import annotations

from typing import Callable

from . import groups
from .errors import GroupSpecError
from .groups import DIGITS, Group

# a spec's canonical label and the function that builds its group, named as given
Parsed = tuple[str, Callable[[str], Group]]

# atom prefix -> (constructor, parameter count); M2 takes an optional ",1"
_FAMILIES = {"C(": (groups.cyclic, 1), "EA(": (groups.elementary_abelian, 2),
             "D(": (groups.dihedral, 1), "M2(": (groups.metacyclic_m2, 2)}


def _call(label: str, constructor, *params) -> Parsed:
    return label, lambda name: constructor(*params, label=name)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> GroupSpecError:
        return GroupSpecError(message, position=self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if not self.text.startswith(ch, self.pos):
            raise self.error(f"expected {ch!r}")
        self.pos += len(ch)

    def accept(self, ch: str) -> bool:
        self.skip_ws()
        if self.text.startswith(ch, self.pos):
            self.pos += len(ch)
            return True
        return False

    def parse_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in DIGITS:
            self.pos += 1
        if start == self.pos:
            raise self.error("expected an integer")
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # longer than the interpreter's digit limit
            raise self.error("integer too long") from None

    def parse_list(self, parse_item, starts_item) -> list:
        """One or more items separated by ",".  A "," that ``starts_item``
        does not see followed by an item is left unread, for the caller."""
        items = [parse_item()]
        while True:
            save = self.pos
            if self.accept(",") and starts_item():
                items.append(parse_item())
            else:
                self.pos = save
                return items

    def parse_spec(self) -> Parsed:
        factors = [self.parse_atom()]
        while self.accept("x"):
            factors.append(self.parse_atom())
        if len(factors) == 1:
            return factors[0]
        label = "x".join(factor_label for factor_label, _ in factors)
        return label, lambda name: groups.direct_product(
            *(make(factor_label) for factor_label, make in factors), label=name)

    def parse_atom(self) -> Parsed:
        self.skip_ws()
        if self.accept("Q8"):
            return "Q8", groups.quaternion
        for prefix, (constructor, count) in _FAMILIES.items():
            if self.accept(prefix):
                params = [self.parse_int()]
                for _ in range(count - 1):
                    self.expect(",")
                    params.append(self.parse_int())
                if prefix == "M2(" and self.accept(","):
                    if self.parse_int() != 1:
                        raise self.error("the third M2 parameter must be 1")
                    self.expect(")")
                    # the label names the family as groups.nonmetacyclic_m2 does
                    label = "M2({},{},1)".format(*sorted(params))
                    return _call(label, groups.nonmetacyclic_m2, *params)
                self.expect(")")
                return _call(prefix + ",".join(map(str, params)) + ")", constructor, *params)
        if self.accept("SD("):
            normal_label, normal = self.parse_spec()
            self.expect(";")
            acting_label, acting = self.parse_spec()
            self.expect(";")
            action = self.parse_list(self.parse_action_pair, lambda: self.peek() in DIGITS)
            self.expect(")")
            pairs = ",".join(f"{g}->{h}" for g, h in action)
            label = f"SD({normal_label};{acting_label};{pairs})"
            return label, lambda name: groups.semidirect_product(
                normal(normal_label), acting(acting_label), action, label=name)
        if self.accept("perm:"):
            return self.parse_perm()
        raise self.error("expected a group atom (C, EA, D, Q8, M2, SD or perm:)")

    def parse_action_pair(self) -> tuple[int, int]:
        g = self.parse_int()
        self.expect("->")
        h = self.parse_int()
        return (g, h)

    def parse_perm(self) -> Parsed:
        generators = self.parse_list(self.parse_cycles, lambda: self.peek() == "(")
        label = "perm:" + ",".join(
            "".join("(" + " ".join(map(str, c)) + ")" for c in cycles)
            for cycles in generators)
        return _call(label, groups.from_permutations, _perm_images(generators))

    def parse_cycles(self) -> list[tuple[int, ...]]:
        cycles = []
        if self.peek() != "(":
            raise self.error("expected a cycle '(...)'")
        while self.peek() == "(":
            self.expect("(")
            points = []
            while self.peek() != ")":
                points.append(self.parse_int())
            self.expect(")")
            if len(set(points)) != len(points):
                raise self.error(f"repeated point in cycle {tuple(points)}")
            if points:
                cycles.append(tuple(points))
        if not cycles:
            raise self.error("a permutation generator needs at least one nonempty cycle")
        return cycles


def _perm_images(generators: list[list[tuple[int, ...]]]) -> list[tuple[int, ...]]:
    points = sorted({p for cycles in generators for c in cycles for p in c})
    where = {p: i for i, p in enumerate(points)}
    n = len(points)
    images = []
    for cycles in generators:
        gen = list(range(n))
        for cycle in cycles:
            # cycles of one generator compose left to right
            step = list(range(n))
            for i, p in enumerate(cycle):
                step[where[p]] = where[cycle[(i + 1) % len(cycle)]]
            gen = [step[x] for x in gen]
        images.append(tuple(gen))
    return images


def build_family(text: str, label: str | None = None) -> Group:
    """Build the group a spec string describes, labelled ``label`` or else
    by the spec's canonical form.  Raises GroupSpecError, with a position
    for a syntax error, or SizeLimitError."""
    parser = _Parser(text)
    canonical, build = parser.parse_spec()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("trailing input after group spec")
    return build(label or canonical)
