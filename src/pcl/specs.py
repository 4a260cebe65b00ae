"""The group description mini-language and its abstract syntax.

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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from . import groups
from .errors import GroupSpecError
from .groups import Group


@dataclass(frozen=True)
class CyclicSpec:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise GroupSpecError(f"C(n) requires n >= 1, got n={self.n}")

    def render(self) -> str:
        return f"C({self.n})"


@dataclass(frozen=True)
class ElementaryAbelianSpec:
    p: int
    k: int

    def __post_init__(self):
        if not groups._is_prime(self.p):
            raise GroupSpecError(f"EA(p,k) requires p prime, got p={self.p}")
        if self.k < 0:
            raise GroupSpecError(f"EA(p,k) requires k >= 0, got k={self.k}")

    def render(self) -> str:
        return f"EA({self.p},{self.k})"


@dataclass(frozen=True)
class DihedralSpec:
    order: int

    def __post_init__(self):
        if self.order < 2 or self.order % 2 != 0:
            raise GroupSpecError(f"D(2n) requires an even order >= 2, got {self.order}")

    def render(self) -> str:
        return f"D({self.order})"


@dataclass(frozen=True)
class QuaternionSpec:
    def render(self) -> str:
        return "Q8"


@dataclass(frozen=True)
class MetacyclicSpec:
    n1: int
    m1: int

    def __post_init__(self):
        if self.n1 < 2:
            raise GroupSpecError(f"M2(n1,m1) requires n1 >= 2, got n1={self.n1}")
        if self.m1 < 1:
            raise GroupSpecError(f"M2(n1,m1) requires m1 >= 1, got m1={self.m1}")

    def render(self) -> str:
        return f"M2({self.n1},{self.m1})"


@dataclass(frozen=True)
class NonmetacyclicSpec:
    """Parameters are normalized so that n2 <= m2 (swap the two generators)."""

    n2: int
    m2: int

    def __post_init__(self):
        lo, hi = sorted((self.n2, self.m2))
        object.__setattr__(self, "n2", lo)
        object.__setattr__(self, "m2", hi)
        if lo < 1:
            raise GroupSpecError(f"M2(n2,m2,1) requires n2 >= 1, got n2={lo}")
        if lo + hi < 3:
            raise GroupSpecError(
                f"M2(n2,m2,1) requires n2 + m2 >= 3, got ({lo},{hi})")

    def render(self) -> str:
        return f"M2({self.n2},{self.m2},1)"


@dataclass(frozen=True)
class SemidirectSpec:
    normal: "GroupSpec"
    acting: "GroupSpec"
    action: tuple[tuple[int, int], ...]

    def render(self) -> str:
        pairs = ",".join(f"{g}->{h}" for g, h in self.action)
        return f"SD({self.normal.render()};{self.acting.render()};{pairs})"


@dataclass(frozen=True)
class PermSpec:
    """Generators as tuples of cycles; cycles as tuples of point labels."""

    generators: tuple[tuple[tuple[int, ...], ...], ...]

    def render(self) -> str:
        gens = []
        for cycles in self.generators:
            gens.append("".join("(" + " ".join(map(str, c)) + ")" for c in cycles))
        return "perm:" + ",".join(gens)


@dataclass(frozen=True)
class ProductSpec:
    factors: tuple["GroupSpec", ...]

    def render(self) -> str:
        return "x".join(f.render() for f in self.factors)


GroupSpec = Union[CyclicSpec, ElementaryAbelianSpec, DihedralSpec, QuaternionSpec,
                  MetacyclicSpec, NonmetacyclicSpec, SemidirectSpec, PermSpec,
                  ProductSpec]


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
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            raise self.error("expected an integer")
        try:
            return int(self.text[start:self.pos])
        except ValueError:  # longer than the interpreter's digit limit
            raise self.error("integer too long") from None

    def parse_spec(self) -> GroupSpec:
        factors = [self.parse_atom()]
        while self.accept("x"):
            factors.append(self.parse_atom())
        if len(factors) == 1:
            return factors[0]
        return ProductSpec(tuple(factors))

    def parse_atom(self) -> GroupSpec:
        self.skip_ws()
        if self.accept("Q8"):
            return QuaternionSpec()
        if self.accept("C("):
            n = self.parse_int()
            self.expect(")")
            return CyclicSpec(n)
        if self.accept("EA("):
            p = self.parse_int()
            self.expect(",")
            k = self.parse_int()
            self.expect(")")
            return ElementaryAbelianSpec(p, k)
        if self.accept("D("):
            order = self.parse_int()
            self.expect(")")
            return DihedralSpec(order)
        if self.accept("M2("):
            first = self.parse_int()
            self.expect(",")
            second = self.parse_int()
            if self.accept(","):
                flag = self.parse_int()
                if flag != 1:
                    raise self.error("the third M2 parameter must be 1")
                self.expect(")")
                lo, hi = sorted((first, second))
                return NonmetacyclicSpec(lo, hi)
            self.expect(")")
            return MetacyclicSpec(first, second)
        if self.accept("SD("):
            normal = self.parse_spec()
            self.expect(";")
            acting = self.parse_spec()
            self.expect(";")
            action = [self.parse_action_pair()]
            while True:
                save = self.pos
                if not self.accept(","):
                    break
                self.skip_ws()
                if self.pos < len(self.text) and self.text[self.pos].isdigit():
                    action.append(self.parse_action_pair())
                else:
                    self.pos = save
                    break
            self.expect(")")
            return SemidirectSpec(normal, acting, tuple(action))
        if self.accept("perm:"):
            return self.parse_perm()
        raise self.error("expected a group atom (C, EA, D, Q8, M2, SD or perm:)")

    def parse_action_pair(self) -> tuple[int, int]:
        g = self.parse_int()
        self.expect("->")
        h = self.parse_int()
        return (g, h)

    def parse_perm(self) -> PermSpec:
        generators = [self.parse_cycles()]
        while True:
            save = self.pos
            if not self.accept(","):
                break
            if self.peek() == "(":
                generators.append(self.parse_cycles())
            else:
                self.pos = save
                break
        return PermSpec(tuple(generators))

    def parse_cycles(self) -> tuple[tuple[int, ...], ...]:
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
        return tuple(cycles)


def parse_group_spec(text: str) -> GroupSpec:
    """Parse the mini-language; raises GroupSpecError with a position."""
    parser = _Parser(text)
    spec = parser.parse_spec()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("trailing input after group spec")
    return spec


def _perm_images(spec: PermSpec) -> list[tuple[int, ...]]:
    points = sorted({p for cycles in spec.generators for c in cycles for p in c})
    where = {p: i for i, p in enumerate(points)}
    n = len(points)
    images = []
    for cycles in spec.generators:
        gen = list(range(n))
        for cycle in cycles:
            # cycles of one generator compose left to right
            step = list(range(n))
            for i, p in enumerate(cycle):
                step[where[p]] = where[cycle[(i + 1) % len(cycle)]]
            gen = [step[x] for x in gen]
        images.append(tuple(gen))
    return images


def build_family(spec: GroupSpec | str, label: str | None = None) -> Group:
    """Build the group described by a GroupSpec or a spec string."""
    if isinstance(spec, str):
        spec = parse_group_spec(spec)
    if isinstance(spec, CyclicSpec):
        return groups.cyclic(spec.n, label=label)
    if isinstance(spec, ElementaryAbelianSpec):
        return groups.elementary_abelian(spec.p, spec.k, label=label)
    if isinstance(spec, DihedralSpec):
        return groups.dihedral(spec.order, label=label)
    if isinstance(spec, QuaternionSpec):
        return groups.quaternion(label=label or "Q8")
    if isinstance(spec, MetacyclicSpec):
        return groups.metacyclic_m2(spec.n1, spec.m1, label=label)
    if isinstance(spec, NonmetacyclicSpec):
        return groups.nonmetacyclic_m2(spec.n2, spec.m2, label=label)
    if isinstance(spec, SemidirectSpec):
        normal = build_family(spec.normal)
        acting = build_family(spec.acting)
        return groups.semidirect_product(normal, acting, spec.action,
                                         label=label or spec.render())
    if isinstance(spec, PermSpec):
        return groups.from_permutations(_perm_images(spec), label=label or spec.render())
    if isinstance(spec, ProductSpec):
        built = build_family(spec.factors[0])
        for factor in spec.factors[1:]:
            built = groups.direct_product(built, build_family(factor))
        return Group(built.mult, label=label or spec.render())
    raise GroupSpecError(f"unknown spec node {spec!r}")
