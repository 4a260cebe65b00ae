"""The benchmark's side of a process that runs the program.

    python pclbench/child.py verify GROUPS OUT [--trace] -- VERIFY-ARGS
    python pclbench/child.py sweep GROUPS OUT --seed N [--trace]
    python pclbench/child.py tables GROUPS OUT

GROUPS is a JSON list of (label, spec) pairs and OUT a directory for the
results.  ``pcl`` must be importable from the checkout's ``src`` (run.py sets
PYTHONPATH).  Times are read from ``time.perf_counter``, the system-wide
monotonic clock, so the parent can set them against its own launch time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import pcl
from pcl import catalog, cli, report, structure

from workloads import pair_order

clock = time.perf_counter


def _peak_rss_mb() -> float:
    """This process's peak resident set since it was exec'd (VmHWM).  The
    rusage maximum would also count the launching process, whose memory a
    vfork'd child shares until exec."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _start_trace(traced: bool):
    if not traced:
        return None
    from spans import Tracer
    tracer = Tracer()
    tracer.install()
    return tracer


def _finish_trace(tracer, out: str) -> dict:
    if tracer is None:
        return {}
    from spans import layer_metrics
    tracer.write(os.path.join(out, "spans.json"))
    return {"layers": layer_metrics(tracer)}


def _verify(groups, out, traced, verify_args) -> int:
    """`pcl verify` on the default catalog with its spec list replaced by
    GROUPS; records go to stdout as the CLI writes them."""
    catalog.default_catalog_specs = lambda: [tuple(g) for g in groups]
    tracer = _start_trace(traced)
    code = cli.main(["verify", *verify_args])
    sys.stdout.flush()
    result = {"peak_rss_mb": _peak_rss_mb()}
    result.update(_finish_trace(tracer, out))
    with open(os.path.join(out, "child.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return code


def _sweep(groups, out, seed, traced) -> int:
    """Set up the groups (construction, build_entry, all_subgroups), then
    time report.record_for on every pair in the seed's order."""
    tracer = _start_trace(traced)
    entries = [catalog.build_entry(label, spec) for label, spec in groups]
    lattices = [structure.all_subgroups(e.group) for e in entries]
    setup_end = clock()
    pairs = [(e, H) for e, lattice in zip(entries, lattices) for H in lattice]
    records = [None] * len(pairs)
    order = pair_order(len(pairs), seed)
    start = clock()
    first_record = None
    for i in order:
        entry, H = pairs[i]
        records[i] = report.record_for(entry, H)
        if first_record is None:
            first_record = clock()
    end = clock()
    with open(os.path.join(out, "records.jsonl"), "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    result = {"setup_end": setup_end, "first_record": first_record, "start": start,
              "end": end, "peak_rss_mb": _peak_rss_mb()}
    result.update(_finish_trace(tracer, out))
    with open(os.path.join(out, "child.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def _tables(groups, out) -> int:
    """`pcl build` for every group, in one process."""
    for i, (_, spec) in enumerate(groups):
        code = cli.main(["build", spec, "--out", os.path.join(out, f"table-{i}.json")])
        if code != 0:
            return code
    return 0


def main() -> int:
    argv = sys.argv[1:]
    verify_args = []
    if "--" in argv:
        cut = argv.index("--")
        argv, verify_args = argv[:cut], argv[cut + 1:]
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("verify", "sweep", "tables"))
    parser.add_argument("groups")
    parser.add_argument("out")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    expected = os.environ.get("PCLBENCH_SRC", "")
    if not os.path.abspath(pcl.__file__).startswith(expected + os.sep):
        print(f"pcl imported from {pcl.__file__}, not from {expected}", file=sys.stderr)
        return 2
    with open(args.groups, encoding="utf-8") as fh:
        groups = json.load(fh)
    if args.mode == "verify":
        return _verify(groups, args.out, args.trace, verify_args)
    if args.mode == "sweep":
        return _sweep(groups, args.out, args.seed, args.trace)
    return _tables(groups, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
