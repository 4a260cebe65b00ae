"""Self-test of the checker: mutated records must be flagged.

Each benchmark run feeds the checker mutated copies of the D(8) records it
just produced.  A mutation the checker lets through fails the run, so every
check shown passing in a run is also shown able to fail.
"""

from __future__ import annotations

import copy

import check


def _first(records, predicate) -> int:
    return next(i for i, r in enumerate(records) if predicate(r))


def _is_code(record) -> bool:
    return record["verdicts"]["criterion3"]["is_code"]


def _flip_all_routes(records):
    i = _first(records, lambda r: _is_code(r) and r["subgroup"]["order"] > 1)
    for method in check.ROUTES:
        if "is_code" in records[i]["verdicts"][method]:
            records[i]["verdicts"][method]["is_code"] = False


def _flip_one_route(records):
    i = _first(records, lambda r: not _is_code(r))
    records[i]["verdicts"]["oracle"]["is_code"] = True


def _shrink_connection_set(records):
    i = _first(records, lambda r: _is_code(r) and r["verdicts"]["cayley"]
               .get("evidence", {}).get("connection_set"))
    del records[i]["verdicts"]["cayley"]["evidence"]["connection_set"][0]


def _wrong_violator(records):
    i = _first(records, lambda r: not _is_code(r))
    evidence = records[i]["verdicts"]["criterion3"]["evidence"]
    # the identity never violates: the coset H holds y = 1
    evidence["violating_x"] = 0


def _drop_subgroup(records):
    del records[_first(records, lambda r: r["subgroup"]["order"] == 2)]


MUTATIONS = {
    "flipped verdict": _flip_all_routes,
    "flipped route": _flip_one_route,
    "connection set minus one element": _shrink_connection_set,
    "wrong violating x": _wrong_violator,
    "dropped subgroup": _drop_subgroup,
}


def missed(label: str, spec: str, table: dict, records: list[dict]) -> list[str]:
    """Names of the mutations the checker does not flag; the unmutated
    records must pass."""
    groups = [(label, spec)]
    base = check.check_records(groups, {label: table}, records)
    if base.failed or base.group_problems:
        return ["unmutated records are flagged"]
    out = []
    for name, mutate in MUTATIONS.items():
        mutated = copy.deepcopy(records)
        try:
            mutate(mutated)
        except StopIteration:
            out.append(f"{name} (no record to mutate)")
            continue
        outcome = check.check_records(groups, {label: table}, mutated)
        if not (outcome.failed or outcome.group_problems):
            out.append(name)
    return out
