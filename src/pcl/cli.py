"""Command line front end.

Exit codes: 0 success (and agreement), 1 a disagreement was found,
2 input error (a bad catalog spec included), 3 size limit exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager

from . import catalog, codes, report
from .errors import GroupSpecError, PclError, PreconditionError, SizeLimitError
from .specs import build_family
from .structure import all_subgroups, subgroup_generated

EXIT_OK = 0
EXIT_DISAGREEMENT = 1
EXIT_INPUT = 2
EXIT_SIZE = 3


@contextmanager
def _output(path: str | None):
    """The stream for ``--out``: the named file, opened for writing, else stdout."""
    if path is None:
        yield sys.stdout
        return
    try:
        fh = open(path, "w", encoding="utf-8")
    except OSError as exc:
        raise GroupSpecError(f"cannot write --out file: {exc}") from None
    with fh:
        yield fh


def _write(payload: str, out: str | None) -> None:
    with _output(out) as fh:
        fh.write(payload if payload.endswith("\n") else payload + "\n")


def _cmd_build(args) -> int:
    group = build_family(args.spec)
    payload = {
        "label": group.label,
        "spec": args.spec,
        "order": group.order,
        "identity": 0,
        "mult": group.mult.tolist(),
        "inv": group.inv.tolist(),
    }
    _write(json.dumps(payload, sort_keys=True), args.out)
    return EXIT_OK


def _cmd_subgroups(args) -> int:
    group = build_family(args.spec)
    subgroups = all_subgroups(group)
    payload = {
        "label": group.label,
        "order": group.order,
        "count": len(subgroups),
        "subgroups": [{"elements": s.members.tolist(), "order": s.order,
                       "generators": list(s.generators)} for s in subgroups],
    }
    _write(json.dumps(payload, sort_keys=True), args.out)
    return EXIT_OK


def _cmd_classify(args) -> int:
    entry = catalog.build_entry(args.spec, args.spec)
    methods = report.parse_methods(args.methods)
    if args.subgroup:
        try:
            gens = [int(x) for x in args.subgroup.split(",") if x.strip() != ""]
        except ValueError:
            raise GroupSpecError(f"bad --subgroup list: {args.subgroup!r}")
        for g in gens:
            if not 0 <= g < entry.group.order:
                raise GroupSpecError(f"subgroup generator {g} out of range")
        targets = [subgroup_generated(entry.group, gens)]
    else:
        targets = all_subgroups(entry.group)
    lines = []
    disagreement = False
    for H in targets:
        record = report.record_for(entry, H, methods)
        disagreement = disagreement or not record["agreement"]
        lines.append(json.dumps(record, sort_keys=True))
    _write("\n".join(lines), args.out)
    return EXIT_DISAGREEMENT if disagreement else EXIT_OK


def _worker_count(flag: int | None) -> int:
    """``--workers``, else PCL_WORKERS, else 1; must be a positive integer."""
    if flag is None:
        raw = os.environ.get("PCL_WORKERS", "1")
        try:
            flag = int(raw)
        except ValueError:
            raise GroupSpecError(f"PCL_WORKERS must be an integer, got {raw!r}")
    if flag < 1:
        raise GroupSpecError(f"worker count must be at least 1, got {flag}")
    return flag


def _cmd_verify(args) -> int:
    workers = _worker_count(args.workers)
    methods = report.parse_methods(args.methods)
    if args.catalog == "default":
        pairs = catalog.default_catalog_specs()
    else:
        pairs = catalog.load_catalog_pairs(args.catalog)
    with _output(args.out) as out:
        summary = report.run_verification_matrix(pairs, methods, out=out,
                                                 workers=workers)
    rows = summary["rows"]
    if args.summary == "classes":
        # a perfect code stays one under conjugation, so each class of
        # conjugate subgroups counts once
        rows = [{key: value for key, value in row.items() if key != "findings"}
                | {"subgroups": row["classes"], "codes": row["code_classes"]}
                for row in rows]
    if args.summary != "none":
        sys.stdout.write(report.render_summary_table(rows) + "\n")
    for row in summary["rows"]:
        if "error" in row:
            print(f"{row['group']}: {row['error']}", file=sys.stderr)
    if summary["disagreements"]:
        return EXIT_DISAGREEMENT
    if summary["spec_errors"]:
        return EXIT_INPUT
    if summary["size_limited"]:
        return EXIT_SIZE
    return EXIT_OK


def _cmd_codeperfect(args) -> int:
    group = build_family(args.spec)
    witness = codes.order4_witness(group)
    payload = {"group": group.label, "code_perfect": codes.is_code_perfect(group),
               "order4_witness": witness}
    _write(json.dumps(payload, sort_keys=True), None)
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcl",
        description="Decide which subgroups of a finite group are perfect codes "
                    "in some Cayley graph.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a group and emit its tables")
    p.add_argument("spec")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("subgroups", help="enumerate the subgroup lattice")
    p.add_argument("spec")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_subgroups)

    p = sub.add_parser("classify", help="run decision methods on subgroups")
    p.add_argument("spec")
    p.add_argument("--subgroup", default=None,
                   help="comma separated generator indices; default: all subgroups")
    p.add_argument("--methods", default=None,
                   help="comma separated subset of: " + ",".join(report.METHODS))
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify", help="run the verification matrix over a catalog")
    p.add_argument("--catalog", default="default",
                   help="'default' or a JSON file of specs")
    p.add_argument("--methods", default=None)
    p.add_argument("--out", default=None, help="write JSON lines here")
    p.add_argument("--summary", choices=("table", "classes", "none"), default="none",
                   help="'classes' collapses subgroups to conjugacy classes")
    p.add_argument("--workers", type=int, default=None,
                   help="parallel worker processes (default: PCL_WORKERS or 1)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("codeperfect", help="test whether every subgroup is a perfect code")
    p.add_argument("spec")
    p.set_defaults(func=_cmd_codeperfect)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SizeLimitError as exc:
        print(f"size limit: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except (GroupSpecError, PreconditionError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PclError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
