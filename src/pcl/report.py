"""The verification matrix: run every decision method over every subgroup.

Each (group, subgroup) pair yields one report record holding the verdict of
every requested method, an agreement flag, and per-method wall timings.
Record content other than the timing fields is deterministic; entries may be
processed in parallel worker processes, with emission serialized in catalog
order.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time

from . import catalog, codes, theorems
from .catalog import CatalogEntry
from .errors import GroupSpecError, PclError, PreconditionError, SizeLimitError
from .structure import Subgroup, all_subgroups, normalizer

# The routes look every function up on its module at call time, so a
# wrapper installed there (a tracer, a test double) sees every call.


def _verdict(v: codes.Verdict) -> dict:
    return {"is_code": v.is_code, "evidence": v.evidence}


def _oracle(entry: CatalogEntry, H: Subgroup, search) -> dict:
    transversal = search()
    if transversal is None:
        return {"is_code": False, "evidence": None}
    return {"is_code": True, "evidence": {"transversal": transversal.tolist()}}


def _cayley(entry: CatalogEntry, H: Subgroup, search) -> dict | None:
    """Definition-level verdict: re-check a connection set built from the
    transversal, or exhaust all inverse-closed sets on small groups and
    re-check the one found; a transversal that yields no set is refuted.
    None when neither route applies (no witness, group too large to sweep)."""
    G = entry.group
    transversal = search()
    if transversal is not None:
        try:
            connection = codes.connection_set_from_transversal(G, H, transversal)
        except PreconditionError as exc:
            return {"is_code": False, "evidence": {"invalid_transversal": str(exc)}}
    elif G.order > codes.SWEEP_MAX_ORDER:
        return None
    else:
        connection = codes.exhaustive_connection_set_search(G, H)
        if connection is None:
            return {"is_code": False, "evidence": {"exhausted_all_sets": True}}
    return {"is_code": codes.verify_perfect_code_in_cayley(G, connection, H),
            "evidence": {"connection_set": connection.members.tolist()}}


def _theorem(entry: CatalogEntry, H: Subgroup, search) -> dict | None:
    outcome = theorems.classify(entry.group, H)
    if outcome is None:
        return None
    payload = {"is_code": outcome.is_code, "clause": outcome.clause}
    if outcome.match is not None:
        payload["match"] = {"family": outcome.match.family,
                            "params": outcome.match.params,
                            "generators": list(outcome.match.generators)}
    return payload


# Decision routes in record order: name -> (entry, H, transversal search) ->
# payload, or None where the route does not apply.  All but the theorem
# classifiers decide the question exactly and form the correctness gate.
ROUTES = {
    "criterion3": lambda e, H, _: _verdict(codes.criterion3(e.group, H)),
    "criterion4": lambda e, H, _: _verdict(codes.criterion4(e.group, H)),
    "oracle": _oracle,
    "cayley": _cayley,
    "theorem": _theorem,
}
METHODS = tuple(ROUTES)
GROUND_TRUTH_METHODS = frozenset(ROUTES) - {"theorem"}


def parse_methods(methods) -> tuple[str, ...]:
    """Route names from a comma separated string or a sequence of names,
    each kept at its first listing; None selects every route."""
    if methods is None:
        return METHODS
    if isinstance(methods, str):
        methods = methods.split(",")
    chosen = tuple(dict.fromkeys(m.strip() for m in methods if m.strip()))
    for m in chosen:
        if m not in ROUTES:
            raise GroupSpecError(
                f"unknown method {m!r}; choose from {', '.join(METHODS)}")
    if not chosen:
        raise GroupSpecError("no methods selected")
    return chosen


def _timed_payload(entry: CatalogEntry, H: Subgroup, method: str, search) -> dict:
    start = time.perf_counter()
    payload = ROUTES[method](entry, H, search)
    if payload is None:
        payload = {"not_applicable": True}
    payload["time_ms"] = (time.perf_counter() - start) * 1000.0
    return payload


def subgroup_json(H: Subgroup) -> dict:
    """The JSON form of a subgroup in records and ``pcl subgroups``."""
    return {"elements": H.members.tolist(), "order": H.order,
            "generators": list(H.generators)}


def record_for(entry: CatalogEntry, H: Subgroup, methods=METHODS) -> dict:
    # oracle and cayley share one search, run (and timed) for the first to ask
    found = []

    def search():
        if not found:
            found.append(codes.find_inverse_closed_transversal(entry.group, H))
        return found[0]

    verdicts = {m: _timed_payload(entry, H, m, search) for m in methods}
    votes = {v["is_code"] for v in verdicts.values() if "is_code" in v}
    return {
        "group": entry.label,
        "subgroup": subgroup_json(H),
        "verdicts": verdicts,
        "agreement": len(votes) <= 1,
    }


def _blank_row(label: str, order) -> dict:
    return {"group": label, "order": order, "subgroups": 0, "codes": 0,
            "classes": 0, "code_classes": 0, "disagreements": 0, "findings": 0}


def write_records(entry: CatalogEntry, subgroups, methods, out) -> dict:
    """Write each subgroup's record to the text stream ``out`` as one JSON
    line once it is made, then flush; the entry's summary row, where only
    each record's counts outlive it.  A split among the equivalence routes is
    a disagreement; a theorem verdict against their agreed answer is a
    finding about the classification.  A class of conjugate subgroups is all
    codes or none, and each subgroup H adds |N_G(H)| / |G| to its count."""
    G = entry.group
    row = _blank_row(entry.label, G.order)
    for H in subgroups:
        record = record_for(entry, H, methods)
        out.write(json.dumps(record, sort_keys=True) + "\n")
        verdicts = record["verdicts"]
        truth = {v["is_code"] for m, v in verdicts.items()
                 if m in GROUND_TRUTH_METHODS and "is_code" in v}
        theorem = verdicts.get("theorem", {})
        is_code = next((v["is_code"] for v in verdicts.values() if "is_code" in v), False)
        weight = normalizer(G, H).order  # orbit sums, divided by |G| below
        row["subgroups"] += 1
        row["codes"] += is_code
        row["classes"] += weight
        row["code_classes"] += weight * is_code
        row["disagreements"] += len(truth) > 1
        row["findings"] += ("is_code" in theorem and len(truth) == 1
                            and theorem["is_code"] not in truth)
    row["classes"] //= G.order
    row["code_classes"] //= G.order
    out.flush()
    return row


def _run_entry(job: tuple[str, str, tuple[str, ...]], out):
    """Build one entry and its lattice and write its records to ``out``, a
    text stream or a file name: its row, or a bad or too-large spec's error."""
    if isinstance(out, str):
        with open(out, "w", encoding="utf-8") as fh:
            return _run_entry(job, fh)
    label, spec_text, methods = job
    try:
        entry = catalog.build_entry(label, spec_text)
        lattice = all_subgroups(entry.group)
    except (GroupSpecError, SizeLimitError) as exc:
        return exc.with_traceback(None)
    return write_records(entry, lattice, methods, out)


def _entry_results(jobs: list, workers: int, out):
    """Each job's result of ``_run_entry`` in job order, its records written
    to ``out``, by a pool worker through a file in one temporary directory,
    which goes however the run ends.  A failing write cancels the jobs no
    worker has taken up.  The pool is imported only here, so a serial run
    never loads it, and forks no more workers than there are jobs."""
    workers = min(workers, len(jobs))
    if workers <= 1:
        yield from (_run_entry(job, out) for job in jobs)
        return
    from concurrent.futures import ProcessPoolExecutor
    with tempfile.TemporaryDirectory(prefix="pcl-") as tmp:
        paths = [os.path.join(tmp, f"{i}.jsonl") for i in range(len(jobs))]
        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            for path, result in zip(paths, pool.map(_run_entry, jobs, paths)):
                with open(path, encoding="utf-8") as fh:
                    shutil.copyfileobj(fh, out)
                out.flush()
                os.remove(path)
                yield result
        finally:
            pool.shutdown(cancel_futures=True)


def run_verification_matrix(entries: list[tuple[str, str]], methods=METHODS,
                            out=None, workers: int = 1) -> dict:
    """Run the matrix over (label, spec) pairs; returns a summary with
    per-group rows and counters.

    Each entry is built in the process that runs it, so a malformed or
    too-large spec surfaces in that entry's row instead of aborting the run.
    Each record goes to the text stream ``out`` (default: nowhere) as one
    JSON line once its pair is decided; ``out`` is flushed per entry.  Under
    ``workers`` processes an entry's lines wait in a file under the system
    temporary directory, not in memory, until ``out`` takes them in catalog
    order.  A record disagrees when two applicable methods return different
    verdicts.  A row counts its subgroups and codes both one by one and up
    to conjugacy (``classes``, ``code_classes``).
    """
    methods = parse_methods(methods)
    if out is None:
        with open(os.devnull, "w", encoding="utf-8") as null:
            return run_verification_matrix(entries, methods, null, workers)
    jobs = [(label, spec, methods) for label, spec in entries]
    summary = {"rows": [], "disagreements": 0, "findings": 0,
               "size_limited": 0, "spec_errors": 0}
    for (label, _, _), result in zip(jobs, _entry_results(jobs, workers, out)):
        if isinstance(result, PclError):
            summary["size_limited"] += isinstance(result, SizeLimitError)
            summary["spec_errors"] += isinstance(result, GroupSpecError)
            result = _blank_row(label, "") | {"error": str(result)}
        summary["disagreements"] += result["disagreements"]
        summary["findings"] += result["findings"]
        summary["rows"].append(result)
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
