"""Run `pcl verify` on one catalog, check its peak RSS and the digest of its
record content, and certify the records with the checker that shares no code
with `pcl`, ``pclbench/check.py``.

    python3 verify_records.py CATALOG [--max-rss-mb MB] [--sha256 HEX] [--findings N]

CATALOG is a JSON file listing group specs, or ``default`` for the default
catalog.  `pcl verify` runs under this script's own interpreter and writes
the records next to CATALOG, as its stem plus ``.jsonl``; they are read back
once, a line at a time, with every verdict's ``time_ms`` dropped, the content
that must not change.  The peak is the largest resident set of the `pcl`
process, printed beside the run's wall time and the CPU seconds (user plus
system) of `pcl` and any pool workers it ran: in a serial run, CPU above
the wall is time spent on a second core; the digest is the sha256 of
that content, one sorted-key JSON line per record, and the dropped
``time_ms`` are summed per route and printed in seconds, with the wall time
less those sums as the time outside the routes: start-up, group build,
lattice, tagging and record output (with a worker pool, whose routes run in
several processes at once, it reads low).  The records are
kept only with ``--findings N``, which certifies the same content against
the `pcl build` table of each group, N being the number of theorem findings
the catalog is known to have.  Exits nonzero when `pcl verify` fails, the
peak reaches the bound, the digest differs, or the certificate finds a
failed pair, a group problem or other than N findings.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CHECK = Path(__file__).resolve().parents[1] / "pclbench" / "check.py"


def load_check():
    """``pclbench/check.py``, loaded by path, registered before it runs, as
    ``dataclass`` looks its module up."""
    spec = importlib.util.spec_from_file_location("pclbench_check", CHECK)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def tables(groups) -> dict:
    """The `pcl build` table of each (label, spec) in ``groups``, by label."""
    from pcl import cli
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (label, spec) in enumerate(groups):
            path = Path(tmp) / f"table-{i}.json"
            if cli.main(["build", spec, "--out", str(path)]) != 0:
                sys.exit(f"pcl build {spec!r} failed")
            out[label] = json.loads(path.read_text())
    return out


def read_records(path: Path, keep: bool) -> tuple[int, str, dict, list[dict]]:
    """One pass over the records in ``path``, a line at a time: their count,
    the digest of their content, each route's ``time_ms`` sum in seconds, and
    the records, each verdict without its ``time_ms``, if ``keep``."""
    count, digest, seconds, records = 0, hashlib.sha256(), {}, []
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            for route, verdict in record["verdicts"].items():
                seconds[route] = seconds.get(route, 0) + verdict.pop("time_ms", 0) / 1000
            digest.update((json.dumps(record, sort_keys=True) + "\n").encode())
            count += 1
            if keep:
                records.append(record)
    return count, digest.hexdigest(), seconds, records


def certify(catalog: str, records: list[dict], known_findings: int) -> bool:
    """Whether ``check.check_records`` passes every record of ``catalog``
    with no group problem and exactly ``known_findings`` findings."""
    from pcl.catalog import default_catalog_specs, load_catalog_pairs
    groups = default_catalog_specs() if catalog == "default" else load_catalog_pairs(catalog)
    outcome = load_check().check_records(groups, tables(groups), records)
    print(f"{len(records)} records: {outcome.failed} failed pairs, "
          f"{len(outcome.group_problems)} group problems, {len(outcome.findings)} findings")
    for i, problems in list(outcome.failed_pairs.items())[:5]:
        print(f"pair {i}: {'; '.join(problems)}")
    for line in outcome.group_problems[:5] + outcome.findings:
        print(line)
    return not (outcome.failed or outcome.group_problems
                or len(outcome.findings) != known_findings)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("catalog")
    parser.add_argument("--max-rss-mb", type=float)
    parser.add_argument("--sha256")
    parser.add_argument("--findings", type=int)
    args = parser.parse_args()
    out = Path(args.catalog).with_suffix(".jsonl")
    # pcl is imported only after this: a child's peak counts the resident
    # set of the process it was started from, so this one stays small
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "pcl.cli", "verify", "--catalog", args.catalog,
                    "--out", str(out)], stdout=subprocess.DEVNULL, check=True)
    wall = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    mb = usage.ru_maxrss / 1024
    print(f"{args.catalog} verify peak RSS {mb:.1f} MB, wall {wall:.1f} s, "
          f"CPU {usage.ru_utime + usage.ru_stime:.1f} s")
    if args.max_rss_mb is not None and not mb < args.max_rss_mb:
        sys.exit(f"peak RSS {mb:.1f} MB is not below {args.max_rss_mb:g} MB")
    count, digest, seconds, records = read_records(out, args.findings is not None)
    print("route time_ms sums: " + ", ".join(f"{r} {s:.2f} s" for r, s in seconds.items()))
    print(f"outside the routes: {wall - sum(seconds.values()):.2f} s")
    print(f"{count} records, sha256 {digest}")
    if args.sha256 is not None and digest != args.sha256:
        sys.exit(f"record digest {digest} differs from {args.sha256}")
    if args.findings is not None and not certify(args.catalog, records, args.findings):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
