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
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import catalog, codes, theorems
from .catalog import (CatalogEntry, TAG_A1_2GROUP, TAG_ABELIAN_2,
                      TAG_ABELIAN_SYLOW2, TAG_DIHEDRAL)
from .errors import GroupSpecError, PclError, SizeLimitError
from .structure import Subgroup, all_subgroups

EXHAUSTIVE_CAYLEY_LIMIT = 16

# The tables below look every function up on its module at call time, so a
# wrapper installed there (a tracer, a test double) sees every call.

# Theorem classifiers by structural tag, in priority order: an entry uses the
# first of its tags listed here.
CLASSIFIERS = {
    TAG_ABELIAN_2: lambda e, H: theorems.classify_abelian_2group(e.group, H),
    TAG_A1_2GROUP: lambda e, H: theorems.classify_a1_2group(e.group, H, e.recognition),
    TAG_DIHEDRAL: lambda e, H: theorems.dihedral_classify(e.group, H, e.dihedral_rotation),
    TAG_ABELIAN_SYLOW2: lambda e, H: theorems.classify_abelian_sylow2(e.group, H),
}


def _verdict(v: codes.Verdict) -> dict:
    return {"is_code": v.is_code, "evidence": v.evidence}


def _oracle(entry: CatalogEntry, H: Subgroup) -> dict:
    transversal = codes.find_inverse_closed_transversal(entry.group, H)
    if transversal is None:
        return {"is_code": False, "evidence": None}
    return {"is_code": True, "evidence": {"transversal": list(transversal.reps)}}


def _cayley(entry: CatalogEntry, H: Subgroup) -> dict | None:
    """Definition-level verdict: re-check a constructed connection set, or
    exhaust all inverse-closed sets on small groups.  None when neither
    route applies (no witness and the group is too large to sweep)."""
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
    return {"is_code": True, "evidence": {"connection_set": list(found.members)}}


def _theorem(entry: CatalogEntry, H: Subgroup) -> dict | None:
    tag = next((t for t in CLASSIFIERS if t in entry.tags), None)
    if tag is None:
        return None
    outcome = CLASSIFIERS[tag](entry, H)
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


def record_for(entry: CatalogEntry, H: Subgroup, methods=METHODS) -> dict:
    verdicts = {m: _timed_payload(entry, H, m) for m in methods}
    votes = {v["is_code"] for v in verdicts.values() if "is_code" in v}
    return {
        "group": entry.label,
        "subgroup": {
            "elements": H.members.tolist(),
            "order": H.order,
            "generators": list(H.generators),
        },
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


def _records_for_pair(job: tuple[str, str, tuple[str, ...]]) -> list[dict] | PclError:
    """Build one catalog entry and run it; a bad or too-large spec gives its
    error instead."""
    label, spec_text, methods = job
    try:
        return entry_records(catalog.build_entry(label, spec_text), methods)
    except (GroupSpecError, SizeLimitError) as exc:
        return exc.with_traceback(None)


def run_verification_matrix(entries: list[tuple[str, str]], methods=METHODS,
                            out=None, workers: int = 1) -> dict:
    """Run the matrix over (label, spec) pairs; returns a summary with
    per-group rows and the records.

    Each entry is built in the process that runs it, so a malformed or
    too-large spec surfaces in that entry's row instead of aborting the run.
    Entries run in catalog order (or across ``workers`` processes, results
    still emitted in catalog order).  A record disagrees when two applicable
    methods return different verdicts.
    """
    methods = parse_methods(methods)
    jobs = [(label, spec, methods) for label, spec in entries]
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_entry = list(pool.map(_records_for_pair, jobs))
    else:
        per_entry = list(map(_records_for_pair, jobs))
    rows = []
    records = []
    disagreements = 0
    findings = 0
    size_limited = 0
    spec_errors = 0
    for (label, _, _), recs in zip(jobs, per_entry):
        if isinstance(recs, PclError):
            size_limited += isinstance(recs, SizeLimitError)
            spec_errors += isinstance(recs, GroupSpecError)
            rows.append({"group": label, "order": "", "subgroups": 0,
                         "codes": 0, "disagreements": 0, "findings": 0,
                         "error": str(recs)})
            continue
        codes_found = sum(1 for r in recs
                          if next((v["is_code"] for v in r["verdicts"].values()
                                   if "is_code" in v), False))
        bad = found = 0
        for r in recs:
            route_split, finding = _split_disagreement(r)
            bad += route_split
            found += finding
        disagreements += bad
        findings += found
        rows.append({"group": label,
                     "order": max(r["subgroup"]["order"] for r in recs),
                     "subgroups": len(recs), "codes": codes_found,
                     "disagreements": bad, "findings": found})
        records.extend(recs)
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    return {"rows": rows, "records": records, "disagreements": disagreements,
            "findings": findings, "size_limited": size_limited,
            "spec_errors": spec_errors}


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


def conjugacy_class_rows(entries: list[CatalogEntry]) -> list[dict]:
    """Summary rows with subgroups collapsed to conjugacy classes.

    Perfect-code status is constant on a conjugacy class (the records stay
    per-subgroup; only this summary collapses), so each class reports the
    verdict of its canonical representative.
    """
    rows = []
    for entry in entries:
        G = entry.group
        ct = G.conj_table
        seen: set[int] = set()
        classes = 0
        code_classes = 0
        for H in all_subgroups(G):
            if H.mask_int in seen:
                continue
            classes += 1
            for x in range(G.order):
                conj = np.zeros(G.order, dtype=bool)
                conj[ct[x, H.members]] = True
                seen.add(int.from_bytes(np.packbits(conj).tobytes(), "big"))
            if codes.criterion3(G, H).is_code:
                code_classes += 1
        rows.append({"group": entry.label, "order": G.order,
                     "subgroups": classes, "codes": code_classes,
                     "disagreements": 0})
    return rows
