"""The names and call paths that the benchmark in ``pclbench/`` relies on.

Its tracer replaces the functions listed in ``pclbench/spans.py`` on their
modules, and its catalog workload replaces
``pcl.catalog.default_catalog_specs``; both only work while the program
looks those names up on the module at call time.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
from pathlib import Path

from pcl import catalog, cli, codes, report
from pcl.structure import all_subgroups

SPANS = Path(__file__).resolve().parents[1] / "pclbench" / "spans.py"


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
