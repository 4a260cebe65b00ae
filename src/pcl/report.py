"""The verification matrix: run every decision method over every subgroup.

Each (group, subgroup) pair yields one report record holding the verdict of
every requested method, an agreement flag, and per-method wall timings.
Record content other than the timing fields is deterministic; entries may be
processed in parallel worker processes, with emission serialized in catalog
order.
"""

from __future__ import annotations

import json
import time
from contextlib import closing

import numpy as np

from . import catalog, codes, theorems
from .catalog import CatalogEntry
from .errors import GroupSpecError, PclError, SizeLimitError
from .structure import Subgroup, all_subgroups, normalizer

EXHAUSTIVE_CAYLEY_LIMIT = 16

# The routes look every function up on its module at call time, so a
# wrapper installed there (a tracer, a test double) sees every call.


def _verdict(v: codes.Verdict) -> dict:
    return {"is_code": v.is_code, "evidence": v.evidence}


def _oracle(entry: CatalogEntry, H: Subgroup) -> dict:
    transversal = codes.find_inverse_closed_transversal(entry.group, H)
    if transversal is None:
        return {"is_code": False, "evidence": None}
    return {"is_code": True, "evidence": {"transversal": list(transversal.reps)}}


def _cayley(entry: CatalogEntry, H: Subgroup) -> dict | None:
    """Definition-level verdict: re-check a connection set built from the
    transversal, or exhaust all inverse-closed sets on small groups and
    re-check the one found.  None when neither route applies (no witness
    and the group is too large to sweep)."""
    G = entry.group
    transversal = codes.find_inverse_closed_transversal(G, H)
    if transversal is not None:
        connection = codes.connection_set_from_transversal(G, H, transversal)
        return {"is_code": codes.verify_perfect_code_in_cayley(G, connection, H),
                "evidence": {"connection_set": list(connection.members)}}
    if G.order > EXHAUSTIVE_CAYLEY_LIMIT:
        return None
    found = codes.exhaustive_connection_set_search(G, H)
    if found is None:
        return {"is_code": False, "evidence": {"exhausted_all_sets": True}}
    return {"is_code": codes.verify_perfect_code_in_cayley(G, found, H),
            "evidence": {"connection_set": list(found.members)}}


def _theorem(entry: CatalogEntry, H: Subgroup) -> dict | None:
    outcome = theorems.classify(entry.group, H)
    if outcome is None:
        return None
    payload = {"is_code": outcome.is_code, "clause": outcome.clause}
    if outcome.match is not None:
        payload["match"] = {"family": outcome.match.family,
                            "params": outcome.match.params,
                            "generators": list(outcome.match.generators)}
    return payload


# Decision routes in record order: name -> (entry, H) -> payload, or None
# where the route does not apply.  All but the theorem classifiers decide
# the question exactly and form the correctness gate.
ROUTES = {
    "criterion3": lambda e, H: _verdict(codes.criterion3(e.group, H)),
    "criterion4": lambda e, H: _verdict(codes.criterion4(e.group, H)),
    "oracle": _oracle,
    "cayley": _cayley,
    "theorem": _theorem,
}
METHODS = tuple(ROUTES)
GROUND_TRUTH_METHODS = frozenset(ROUTES) - {"theorem"}


def parse_methods(methods) -> tuple[str, ...]:
    """Route names from a comma separated string or a sequence of names;
    None selects every route."""
    if methods is None:
        return METHODS
    if isinstance(methods, str):
        methods = methods.split(",")
    chosen = tuple(m.strip() for m in methods if m.strip())
    for m in chosen:
        if m not in ROUTES:
            raise GroupSpecError(
                f"unknown method {m!r}; choose from {', '.join(METHODS)}")
    if not chosen:
        raise GroupSpecError("no methods selected")
    return chosen


def _timed_payload(entry: CatalogEntry, H: Subgroup, method: str) -> dict:
    start = time.perf_counter()
    payload = ROUTES[method](entry, H)
    if payload is None:
        payload = {"not_applicable": True}
    payload["time_ms"] = (time.perf_counter() - start) * 1000.0
    return payload


def _subgroup_json(H: Subgroup) -> dict:
    """The JSON form of a subgroup in records and ``pcl subgroups``."""
    return {"elements": H.members.tolist(), "order": H.order,
            "generators": list(H.generators)}


def record_for(entry: CatalogEntry, H: Subgroup, methods=METHODS) -> dict:
    verdicts = {m: _timed_payload(entry, H, m) for m in methods}
    votes = {v["is_code"] for v in verdicts.values() if "is_code" in v}
    return {
        "group": entry.label,
        "subgroup": _subgroup_json(H),
        "verdicts": verdicts,
        "agreement": len(votes) <= 1,
    }


def _split_disagreement(record: dict) -> tuple[bool, bool]:
    """(ground-truth routes disagree, theorem clause mismatches them).

    The equivalence routes are the correctness gate; a theorem verdict that
    contradicts their agreed answer is a reported finding about the
    classification, not an engine failure.
    """
    truth_votes = {v["is_code"] for m, v in record["verdicts"].items()
                   if m in GROUND_TRUTH_METHODS and "is_code" in v}
    theorem = record["verdicts"].get("theorem", {})
    route_split = len(truth_votes) > 1
    finding = ("is_code" in theorem and len(truth_votes) == 1
               and theorem["is_code"] not in truth_votes)
    return route_split, finding


def entry_records(entry: CatalogEntry, methods=METHODS) -> list[dict]:
    return [record_for(entry, H, methods) for H in all_subgroups(entry.group)]


def _run_entry(job: tuple[str, str, tuple[str, ...]]) -> tuple[dict, list[dict]] | PclError:
    """Build one catalog entry and run it: its summary row and its records.
    A bad or too-large spec gives its error instead."""
    label, spec_text, methods = job
    try:
        entry = catalog.build_entry(label, spec_text)
        records = entry_records(entry, methods)
    except (GroupSpecError, SizeLimitError) as exc:
        return exc.with_traceback(None)
    G = entry.group
    coded = np.array([next((v["is_code"] for v in r["verdicts"].values()
                            if "is_code" in v), False) for r in records], dtype=bool)
    # Conjugation is an automorphism, so a class of conjugate subgroups is all
    # codes or none, and counting orbits gives the classes: each subgroup H
    # adds |N_G(H)| / |G| to the count of its class.
    normalizer_orders = np.array([normalizer(G, H).order for H in all_subgroups(G)])
    splits = [_split_disagreement(r) for r in records]
    return {"group": label, "order": G.order, "subgroups": len(records),
            "codes": int(coded.sum()),
            "classes": int(normalizer_orders.sum()) // G.order,
            "code_classes": int(normalizer_orders[coded].sum()) // G.order,
            "disagreements": sum(split for split, _ in splits),
            "findings": sum(finding for _, finding in splits)}, records


def _entry_results(jobs: list, workers: int):
    """Each job's result of ``_run_entry``, in job order, as each arrives.
    Closing the generator early cancels the jobs no worker has taken up.
    The pool machinery is imported only here, so a serial run never loads it."""
    if workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            yield from pool.map(_run_entry, jobs)
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        yield from map(_run_entry, jobs)


def run_verification_matrix(entries: list[tuple[str, str]], methods=METHODS,
                            out=None, workers: int = 1) -> dict:
    """Run the matrix over (label, spec) pairs; returns a summary with
    per-group rows and counters.

    Each entry is built in the process that runs it, so a malformed or
    too-large spec surfaces in that entry's row instead of aborting the run.
    Entries run in catalog order (or across ``workers`` processes, results
    still taken in catalog order).  As each entry arrives its records are
    written to the text stream ``out``, one JSON line each, and flushed.  A
    record disagrees when two applicable methods return different verdicts.
    A row counts its subgroups and codes both one by one and up to
    conjugacy (``classes``, ``code_classes``).
    """
    methods = parse_methods(methods)
    jobs = [(label, spec, methods) for label, spec in entries]
    summary = {"rows": [], "disagreements": 0, "findings": 0,
               "size_limited": 0, "spec_errors": 0}
    # closed on the way out, so a failing write cancels the jobs not started
    with closing(_entry_results(jobs, workers)) as results:
        for (label, _, _), result in zip(jobs, results):
            if isinstance(result, PclError):
                summary["size_limited"] += isinstance(result, SizeLimitError)
                summary["spec_errors"] += isinstance(result, GroupSpecError)
                summary["rows"].append(
                    {"group": label, "order": "", "subgroups": 0, "codes": 0,
                     "classes": 0, "code_classes": 0, "disagreements": 0,
                     "findings": 0, "error": str(result)})
                continue
            row, records = result
            if out is not None:
                out.writelines(json.dumps(r, sort_keys=True) + "\n" for r in records)
                out.flush()
            summary["disagreements"] += row["disagreements"]
            summary["findings"] += row["findings"]
            summary["rows"].append(row)
    return summary


def render_summary_table(rows: list[dict]) -> str:
    headers = ("group", "order", "subgroups", "codes", "disagreements", "findings")
    headers = tuple(h for h in headers if any(h in r for r in rows))
    widths = [max(len(h), max((len(str(r.get(h, ""))) for r in rows), default=0))
              for h in headers]
    lines = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for r in rows:
        cells = "  ".join(str(r.get(h, "")).ljust(w) for h, w in zip(headers, widths))
        if "error" in r:
            cells += "  ! " + r["error"]
        lines.append(cells)
    total = {h: sum(r.get(h, 0) for r in rows
                    if isinstance(r.get(h, 0), int))
             for h in headers if h not in ("group", "order")}
    total["group"] = "TOTAL"
    total["order"] = ""
    lines.append("  ".join(str(total[h]).ljust(w) for h, w in zip(headers, widths)))
    return "\n".join(lines)
