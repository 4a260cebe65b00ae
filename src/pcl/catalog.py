"""The default verification catalog."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import GroupSpecError
from .groups import Group
from .specs import build_family


@dataclass
class CatalogEntry:
    label: str
    group: Group


def build_entry(label: str, spec_text: str) -> CatalogEntry:
    return CatalogEntry(label, build_family(spec_text, label=label))


def _partitions(total: int, cap: int | None = None):
    """Partitions of ``total`` into nonincreasing positive parts of at most
    ``cap`` (default ``total``)."""
    if total == 0:
        yield ()
        return
    for part in range(min(total, total if cap is None else cap), 0, -1):
        for rest in _partitions(total - part, part):
            yield (part,) + rest


def default_catalog_specs() -> list[tuple[str, str]]:
    """(label, spec) pairs covering abelian 2-groups up to order 64, the
    minimal nonabelian families, small dihedral groups, and mixed-order
    groups with abelian Sylow 2-subgroups."""
    pairs: list[tuple[str, str]] = []
    for k in range(0, 7):
        for partition in _partitions(k):
            if not partition:
                spec = "C(1)"
            elif all(part == 1 for part in partition):
                spec = f"EA(2,{len(partition)})"
            else:
                spec = "x".join(f"C({2 ** part})" for part in partition)
            pairs.append((spec, spec))
    pairs.append(("Q8", "Q8"))
    # the dihedral and minimal nonabelian ranges reach order 150 and 128 so
    # that the agreement matrix quantifies over >= 10^4 (G, H) pairs
    for order in range(8, 152, 2):
        pairs.append((f"D({order})", f"D({order})"))
    for n1 in range(2, 7):
        for m1 in range(1, 8 - n1):
            pairs.append((f"M2({n1},{m1})", f"M2({n1},{m1})"))
    for n2 in range(1, 4):
        for m2 in range(n2, 7 - n2):
            if n2 + m2 >= 3:
                pairs.append((f"M2({n2},{m2},1)", f"M2({n2},{m2},1)"))
    pairs.extend([
        ("S3", "perm:(1 2 3),(1 2)"),
        ("A4", "perm:(1 2 3),(1 2)(3 4)"),
        ("A5", "perm:(1 2 3 4 5),(1 2 3)"),
        ("F20", "SD(C(5);C(4);1->2)"),
        ("C7:C3", "SD(C(7);C(3);1->2)"),
    ])
    return pairs


def default_catalog() -> list[CatalogEntry]:
    return [build_entry(label, spec) for label, spec in default_catalog_specs()]


def load_catalog_pairs(path: str) -> list[tuple[str, str]]:
    """(label, spec) pairs from a JSON file: a list of spec strings or of
    objects with ``spec`` and optional ``label`` keys.  A label is never
    empty."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise GroupSpecError(f"cannot read catalog file: {exc}")
    except ValueError as exc:
        raise GroupSpecError(f"catalog file {path!r} is not valid JSON: {exc}")
    if not isinstance(data, list) or not data:
        raise GroupSpecError("catalog file must hold a nonempty JSON list")
    pairs = []
    for item in data:
        spec = item.get("spec") if isinstance(item, dict) else item
        label = item.get("label", spec) if isinstance(item, dict) else spec
        if not (isinstance(spec, str) and isinstance(label, str) and label):
            raise GroupSpecError(f"bad catalog item: {item!r}")
        pairs.append((label, spec))
    return pairs
