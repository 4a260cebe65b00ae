"""Run `pcl verify` on one catalog, then check its peak RSS and the digest of
its record content.

    python3 verify_records.py CATALOG [--max-rss-mb MB] [--sha256 HEX]

CATALOG is a JSON file listing group specs, or ``default`` for the default
catalog.  The records are written next to it as CATALOG's stem plus
``.jsonl``.  The peak is the largest resident set of the `pcl` process; the
digest is the sha256 of the records, one sorted-key JSON line each with
every verdict's ``time_ms`` dropped, the content that must not change.
Exits nonzero when `pcl verify` fails, the peak reaches the bound, or the
digest differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import subprocess
import sys
from pathlib import Path


def record_digest(path: Path) -> tuple[int, str]:
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for record in records:
        for verdict in record["verdicts"].values():
            verdict.pop("time_ms", None)
    text = "\n".join(json.dumps(r, sort_keys=True) for r in records) + "\n"
    return len(records), hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("catalog")
    parser.add_argument("--max-rss-mb", type=float)
    parser.add_argument("--sha256")
    args = parser.parse_args()
    out = Path(args.catalog).with_suffix(".jsonl")
    subprocess.run(["pcl", "verify", "--catalog", args.catalog, "--out", str(out)],
                   stdout=subprocess.DEVNULL, check=True)
    mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"{args.catalog} verify peak RSS {mb:.1f} MB")
    if args.max_rss_mb is not None and not mb < args.max_rss_mb:
        sys.exit(f"peak RSS {mb:.1f} MB is not below {args.max_rss_mb:g} MB")
    if args.sha256 is not None:
        count, digest = record_digest(out)
        print(f"{count} records, sha256 {digest}")
        if digest != args.sha256:
            sys.exit(f"record digest {digest} differs from {args.sha256}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
