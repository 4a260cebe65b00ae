"""The names and call paths that the benchmark in ``pclbench/`` relies on,
and what its checker catches.

Its tracer replaces the functions listed in ``pclbench/spans.py`` on their
modules, and its catalog workload replaces
``pcl.catalog.default_catalog_specs``; both only work while the program
looks those names up on the module at call time.  Its checker,
``pclbench/check.py``, imports no ``pcl``, so it must fail a pair that a bug
in a helper shared by every exact route decides wrongly, even where the
routes agree.  CI runs it through ``.github/verify_records.py``, which must
certify the records its own `pcl verify` run has just written.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from pcl import catalog, cli, codes, report
from pcl.structure import all_subgroups

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "pclbench" / "spans.py"


def _wrapped() -> dict:
    spec = importlib.util.spec_from_file_location("pclbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


def test_every_traced_name_resolves():
    for name, (module_name, attr) in _wrapped().items():
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            target = getattr(target, part)
        assert callable(target), name


def test_record_for_calls_routes_through_module_attributes(monkeypatch):
    calls = []
    original = codes.criterion4

    def spy(G, H):
        calls.append(H)
        return original(G, H)

    monkeypatch.setattr(codes, "criterion4", spy)
    entry = catalog.build_entry("D(8)", "D(8)")
    H = all_subgroups(entry.group)[1]
    report.record_for(entry, H)
    assert calls == [H]


def test_verify_reads_default_catalog_specs_at_call_time(monkeypatch, tmp_path):
    monkeypatch.setattr(catalog, "default_catalog_specs", lambda: [("Q8", "Q8")])
    out = tmp_path / "records.jsonl"
    assert cli.main(["verify", "--out", str(out)]) == 0
    groups = [json.loads(line)["group"] for line in out.read_text().splitlines()]
    assert groups == ["Q8"] * 6


def test_checker_fails_pairs_that_a_shared_helper_bug_moves_every_route_on(monkeypatch):
    # with ``involutions`` giving only the identity, every exact route reads
    # the same wrong solutions of y^2 = 1, so on some pairs all four agree
    # on a wrong verdict; the checker's certificates still fail them.  The
    # checker and the tables come from ``.github/verify_records.py``, as in CI
    monkeypatch.syspath_prepend(str(ROOT / ".github"))
    wrapper = importlib.import_module("verify_records")
    check = wrapper.load_check()
    specs, entries = [], []
    for label, spec in catalog.default_catalog_specs():
        entry = catalog.build_entry(label, spec)
        if entry.group.order <= 16:
            specs.append((label, spec))
            entries.append(entry)
    tables = wrapper.tables(specs)

    def run():
        records = [report.record_for(e, H) for e in entries for H in all_subgroups(e.group)]
        return records, check.check_records(specs, tables, records)

    records, outcome = run()
    assert len(records) > 300 and outcome.failed == 0 and not outcome.group_problems
    monkeypatch.setattr(codes, "involutions", lambda G: np.zeros(1, dtype=np.int32))
    records, outcome = run()
    agreeing = [i for i in outcome.failed_pairs
                if len({records[i]["verdicts"][m].get("is_code") for m in check.ROUTES}) == 1]
    assert agreeing, outcome.failed


def test_verify_records_certifies_the_records_it_has_just_written(tmp_path):
    # a records file left under the catalog's name is overwritten by the
    # run, not certified: its one record would be a group problem
    catalog_file = tmp_path / "two.json"
    catalog_file.write_text('["Q8", "D(8)"]')
    out = tmp_path / "two.jsonl"
    out.write_text('{"group": "Q8", "subgroup": {}, "verdicts": {}}\n')
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))

    def run(*options):
        return subprocess.run(
            [sys.executable, str(ROOT / ".github" / "verify_records.py"), str(catalog_file),
             *options], cwd=tmp_path, env=env, capture_output=True, text=True)

    passed = run("--findings", "0")
    assert passed.returncode == 0, passed.stdout + passed.stderr
    assert "16 records: 0 failed pairs, 0 group problems, 0 findings" in passed.stdout
    assert len(out.read_text().splitlines()) == 6 + 10
    # the routes run inside the process, so its wall exceeds their sums
    assert float(passed.stdout.split("outside the routes: ")[1].split()[0]) > 0
    wrong = run("--sha256", "0" * 64, "--findings", "0")
    assert wrong.returncode == 1 and "0 findings" not in wrong.stdout, wrong.stderr
    digest = wrong.stdout.split("sha256 ")[1].split()[0]
    # the digest passes, then the certificate fails on the findings count
    extra = run("--sha256", digest, "--findings", "1")
    assert extra.returncode == 1 and "16 records: 0 failed pairs" in extra.stdout, extra.stderr
