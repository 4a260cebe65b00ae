"""Certify the `pcl verify` records of one catalog with the checker that
shares no code with `pcl`, ``pclbench/check.py``.

    python3 check_records.py CATALOG FINDINGS

CATALOG is a JSON file listing group specs, or ``default`` for the default
catalog, as ``verify_records.py`` takes it; the records are read from the
file it writes, CATALOG's stem plus ``.jsonl``.  The labels and specs come
from the catalog and the tables from `pcl build`.  FINDINGS is the number of
theorem findings the catalog is known to have.  Exits nonzero on a failed
pair, on a group problem, or when the theorem findings are not that many.
"""

from __future__ import annotations

import importlib.util
import json
import sys
import tempfile
from pathlib import Path

from pcl import cli
from pcl.catalog import default_catalog_specs, load_catalog_pairs

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
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (label, spec) in enumerate(groups):
            path = Path(tmp) / f"table-{i}.json"
            if cli.main(["build", spec, "--out", str(path)]) != 0:
                sys.exit(f"pcl build {spec!r} failed")
            out[label] = json.loads(path.read_text())
    return out


def main() -> int:
    if len(sys.argv) != 3 or not sys.argv[2].isdigit():
        sys.exit(__doc__)
    catalog, known_findings = sys.argv[1], int(sys.argv[2])
    groups = default_catalog_specs() if catalog == "default" else load_catalog_pairs(catalog)
    path = Path(catalog).with_suffix(".jsonl")
    records = [json.loads(line) for line in path.read_text().splitlines()]
    outcome = load_check().check_records(groups, tables(groups), records)
    print(f"{len(records)} records: {outcome.failed} failed pairs, "
          f"{len(outcome.group_problems)} group problems, {len(outcome.findings)} findings")
    for i, problems in list(outcome.failed_pairs.items())[:5]:
        print(f"pair {i}: {'; '.join(problems)}")
    for line in outcome.group_problems[:5] + outcome.findings:
        print(line)
    if outcome.failed or outcome.group_problems or len(outcome.findings) != known_findings:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
