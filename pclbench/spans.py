"""Spans around the program's public functions, for the traced runs.

The tracer replaces functions of the ``pcl`` modules by wrappers that record
a span (name, start, end, parent span) per call.  Spans stay in memory; the
per-layer metrics are computed from them when the run ends.  Untraced runs do not
import this module.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time

# span name -> (module, attribute); "Group.closure" is a method.
WRAPPED = {
    "groups.closure": ("pcl.groups", "Group.closure"),
    "specs.build_family": ("pcl.specs", "build_family"),
    "structure.all_subgroups": ("pcl.structure", "all_subgroups"),
    "structure.sylow": ("pcl.structure", "sylow"),
    "structure.sylow_containing": ("pcl.structure", "sylow_containing"),
    "structure.frattini": ("pcl.structure", "frattini"),
    "structure.maximal_subgroups": ("pcl.structure", "maximal_subgroups"),
    "structure.recognize_a1_family": ("pcl.structure", "recognize_a1_family"),
    "structure.recognize_dihedral": ("pcl.structure", "recognize_dihedral"),
    "catalog.build_entry": ("pcl.catalog", "build_entry"),
    "catalog.default_catalog": ("pcl.catalog", "default_catalog"),
    "codes.criterion3": ("pcl.codes", "criterion3"),
    "codes.criterion4": ("pcl.codes", "criterion4"),
    "codes.transversal": ("pcl.codes", "find_inverse_closed_transversal"),
    "codes.connection_set": ("pcl.codes", "connection_set_from_transversal"),
    "codes.verify_cayley": ("pcl.codes", "verify_perfect_code_in_cayley"),
    "codes.exhaustive": ("pcl.codes", "exhaustive_connection_set_search"),
    "theorems.abelian_2group": ("pcl.theorems", "classify_abelian_2group"),
    "theorems.a1_2group": ("pcl.theorems", "classify_a1_2group"),
    "theorems.dihedral": ("pcl.theorems", "dihedral_classify"),
    "theorems.abelian_sylow2": ("pcl.theorems", "classify_abelian_sylow2"),
    "report.record_for": ("pcl.report", "record_for"),
    "report.run_verification_matrix": ("pcl.report", "run_verification_matrix"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._stack: list[int] = []
        self.lattice_sizes: dict[int, tuple[object, int]] = {}

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
        return traced

    def install(self) -> None:
        """Wrap every function in WRAPPED, wherever a ``pcl`` module holds it."""
        import pcl.groups
        for name, (module_name, attr) in WRAPPED.items():
            module = sys.modules[module_name]
            if attr == "Group.closure":
                pcl.groups.Group.closure = self._wrap(name, pcl.groups.Group.closure)
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            if name == "structure.all_subgroups":
                wrapper = self._count_lattice(wrapper)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "pcl" or mod_name.startswith("pcl."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def _count_lattice(self, wrapper):
        sizes = self.lattice_sizes

        @functools.wraps(wrapper)
        def counted(G, *args, **kwargs):
            result = wrapper(G, *args, **kwargs)
            # the group is held so that its id cannot be reused by another
            sizes.setdefault(id(G), (G, len(result)))
            return result
        return counted

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def _union_s(spans, names) -> float:
    """Time in spans named in ``names`` that have no ancestor named in it."""
    total = 0.0
    for span in spans:
        if span[0] not in names:
            continue
        parent = span[3]
        nested = False
        while parent >= 0:
            if spans[parent][0] in names:
                nested = True
                break
            parent = spans[parent][3]
        if not nested:
            total += span[2] - span[1]
    return total


def _self_s(spans, name) -> float:
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    return sum((span[2] - span[1] - child_time[i]
                for i, span in enumerate(spans) if span[0] == name), 0.0)


def _per_pair_p99_ms(spans, name) -> float:
    """99th percentile over record_for calls of the time spent in ``name``
    spans under each call (0 when the process made no records)."""
    totals: dict[int, float] = {}
    for i, span in enumerate(spans):
        if span[0] == "report.record_for":
            totals.setdefault(i, 0.0)
    for span in spans:
        if span[0] != name:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != "report.record_for":
            parent = spans[parent][3]
        if parent >= 0:
            totals[parent] += span[2] - span[1]
    values = sorted(totals.values())
    if not values:
        return 0.0
    if len(values) < 100:
        return values[-1] * 1000.0
    return statistics.quantiles(values, n=100)[98] * 1000.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics by name, each as (value, unit)."""
    spans = tracer.spans
    count = {}
    for span in spans:
        count[span[0]] = count.get(span[0], 0) + 1

    closures_in_lattice = 0
    for span in spans:
        if span[0] != "groups.closure":
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] != "structure.all_subgroups":
            parent = spans[parent][3]
        closures_in_lattice += parent >= 0
    found = sum(size for _, size in tracer.lattice_sizes.values())

    def union(*names):
        return _union_s(spans, set(names))

    return {
        "groups.closure_calls": (count.get("groups.closure", 0), "count"),
        "groups.closure_s": (union("groups.closure"), "s"),
        "structure.all_subgroups_s": (union("structure.all_subgroups"), "s"),
        "structure.closures_per_subgroup": (
            closures_in_lattice / found if found else 0.0, "count"),
        "structure.sylow_s": (union("structure.sylow", "structure.sylow_containing"), "s"),
        "structure.frattini_s": (
            union("structure.frattini", "structure.maximal_subgroups"), "s"),
        "structure.recognize_s": (
            union("structure.recognize_a1_family", "structure.recognize_dihedral"), "s"),
        "specs.build_family_s": (union("specs.build_family"), "s"),
        "catalog.build_entry_s": (_self_s(spans, "catalog.build_entry"), "s"),
        "catalog.default_catalog_s": (union("catalog.default_catalog"), "s"),
        "codes.criterion3_s": (union("codes.criterion3"), "s"),
        "codes.criterion4_s": (union("codes.criterion4"), "s"),
        "codes.transversal_s": (union("codes.transversal"), "s"),
        "codes.cayley_check_s": (union("codes.connection_set", "codes.verify_cayley"), "s"),
        "codes.exhaustive_s": (union("codes.exhaustive"), "s"),
        "codes.criterion4_p99_ms": (_per_pair_p99_ms(spans, "codes.criterion4"), "ms"),
        "codes.transversal_p99_ms": (_per_pair_p99_ms(spans, "codes.transversal"), "ms"),
        "codes.transversal_calls": (count.get("codes.transversal", 0), "count"),
        "theorems.classify_s": (union("theorems.abelian_2group", "theorems.a1_2group",
                                      "theorems.dihedral", "theorems.abelian_sylow2"), "s"),
        "report.record_self_s": (_self_s(spans, "report.record_for"), "s"),
        # with workers the parent's time in the matrix outside its children is
        # its wait on the pool; serially it is only the summary pass
        "report.pool_wait_s": (_self_s(spans, "report.run_verification_matrix"), "s"),
    }
