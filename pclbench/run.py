"""Fixed-work benchmark of `pcl verify` and the per-pair decision routes.

    python3 pclbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see README.md):

* ``catalog-serial``: `pcl verify` over a fixed 27-group cut of the default
  catalog, one worker;
* ``route-sweep``: report.record_for on every pair of 61 groups whose
  lattices and tags are built in set-up.

A run does a fixed number of rounds of this work: as many as fit in
``--seconds`` at the round times measured when the benchmark was written,
and at least one.  Every round starts its processes afresh, so no memo is
carried over.  After the timed phases every record is checked by check.py
against `pcl build` tables.  With ``--trace 0`` the last line of stdout holds
the end-to-end metrics; with ``--trace 1`` one traced round gives the
per-layer metrics, and the catalog run also makes a traced ``--workers 2``
pass whose output must equal the serial output.  Lines before the last start
with '#' and give the machine, the record digest and the classifier findings.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

import check
import selftest
import workloads

clock = time.perf_counter
HERE = os.path.dirname(os.path.abspath(__file__))
# wall seconds of one round on a 2-core Xeon at 2.1 GHz (README.md); they
# fix the number of rounds a given --seconds buys, whatever the program's speed
ROUND_S = {"catalog-serial": 14.0, "route-sweep": 16.0}
IMPORT_SAMPLES = 3   # `import pcl.cli` launches per catalog round, for setup_s
# Passes run at once in each untraced round.  Each core of the 2-core machine
# the benchmark was written on runs 20% faster or slower in phases of 20-60 s,
# independently of the other core; one pass per core averages the two.
STREAMS = 2
RUN_LIMIT_S = 165    # every process of a run is killed by then
SELFTEST_GROUP = "D(8)"


@dataclass
class Proc:
    code: int
    launched: float
    wall_s: float
    first_line_s: float | None
    lines: list[bytes]


class Context:
    def __init__(self, root: str, deadline: float):
        self.root = root
        self.deadline = deadline
        src = os.path.join(root, "src")
        self.env = dict(os.environ, PYTHONPATH=src, PCLBENCH_SRC=src)
        self.problems: list[str] = []

    def launch(self, argv: list[str]) -> Proc:
        """Run a process to its end, reading stdout as it arrives."""
        with tempfile.TemporaryFile() as err:
            launched = clock()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=subprocess.PIPE, stderr=err)
            timer = threading.Timer(max(0.0, self.deadline - clock()), proc.kill)
            timer.start()
            first, lines = None, []
            try:
                for line in proc.stdout:
                    if first is None:
                        first = clock() - launched
                    lines.append(line)
            finally:
                proc.stdout.close()
                proc.wait()
                ended = clock()
                timer.cancel()
                timer.join()
            err.seek(0)
            stderr = err.read().decode(errors="replace")
        if proc.returncode != 0:
            self.problems.append(f"{' '.join(argv[1:3])} exited {proc.returncode}: "
                                 f"{stderr.strip().splitlines()[-1:]}")
        return Proc(proc.returncode, launched, ended - launched, first, lines)

    def child(self, *args: str) -> Proc:
        return self.launch([sys.executable, os.path.join(HERE, "child.py"), *args])


def _write_json(path: str, value) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(value, fh)
    return path


def _parse(ctx: Context, lines: list[bytes]) -> list[dict]:
    try:
        return [json.loads(line) for line in lines if line.strip()]
    except ValueError as exc:
        ctx.problems.append(f"unreadable record: {exc}")
        return []


def catalog_pass(ctx: Context, work: str, seed: int, traced: bool) -> dict:
    groups = workloads.catalog_order(seed)
    gpath = _write_json(os.path.join(work, "groups.json"), groups)
    trace = ["--trace"] if traced else []
    run = ctx.child("verify", gpath, work, *trace, "--", "--workers", "1")
    records = _parse(ctx, run.lines)
    result = _child_result(work)
    layers = result.get("layers", {})
    if traced:
        # the pool path: the parent's wait on it, and output equal to serial
        pool = os.path.join(work, "workers2")
        os.makedirs(pool)
        pooled = _parse(ctx, ctx.child("verify", gpath, pool, *trace, "--", "--workers", "2").lines)
        if [check.strip_times(r) for r in pooled] != [check.strip_times(r) for r in records]:
            ctx.problems.append("--workers 2 output differs from the serial output")
        if "report.pool_wait_s" in layers:
            pooled_layers = _child_result(pool).get("layers", {})
            layers["report.pool_wait_s"] = pooled_layers.get("report.pool_wait_s", [0.0, "s"])
    return {"records": records, "timed_s": run.wall_s, "first_record_s": run.first_line_s,
            "peak_mb": result.get("peak_rss_mb", 0.0), "setup_s": [], "layers": layers}


def _child_result(work: str) -> dict:
    """child.json of a pass; empty when the child died before writing it."""
    try:
        with open(os.path.join(work, "child.json"), encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return {}


def sweep_pass(ctx: Context, work: str, seed: int, traced: bool) -> dict:
    gpath = _write_json(os.path.join(work, "groups.json"), workloads.ROUTE_SWEEP)
    run = ctx.child("sweep", gpath, work, "--seed", str(seed),
                    *(["--trace"] if traced else []))
    if run.code != 0:
        return {"records": [], "timed_s": run.wall_s, "first_record_s": None,
                "peak_mb": 0.0, "setup_s": [], "layers": {}}
    result = _child_result(work)
    with open(os.path.join(work, "records.jsonl"), "rb") as fh:
        records = _parse(ctx, fh.readlines())
    return {"records": records, "timed_s": result["end"] - result["start"],
            "first_record_s": result["first_record"] - run.launched,
            "peak_mb": result["peak_rss_mb"],
            "setup_s": [result["setup_end"] - run.launched],
            "layers": result.get("layers", {})}


def load_tables(ctx: Context, work: str, groups) -> dict[str, dict]:
    gpath = _write_json(os.path.join(work, "table-groups.json"), groups)
    tables = {}
    if ctx.child("tables", gpath, work).code == 0:
        for i, (label, _) in enumerate(groups):
            with open(os.path.join(work, f"table-{i}.json"), encoding="utf-8") as fh:
                tables[label] = json.load(fh)
    return tables


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(ROUND_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    began = clock()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pcl", "cli.py")):
        print(f"no pcl source under {root}/src: run from the root of a checkout",
              file=sys.stderr)
        return 2
    # bytecode is compiled before any timed process starts
    compiled = subprocess.run([sys.executable, "-m", "compileall", "-q",
                               os.path.join("src", "pcl"), "pclbench"], cwd=root)
    if compiled.returncode != 0:
        print("compiling the sources failed", file=sys.stderr)
        return 1
    ctx = Context(root, began + RUN_LIMIT_S)
    traced = bool(args.trace)
    groups = workloads.ROUTE_SWEEP if args.workload == "route-sweep" else workloads.CATALOG
    out_root = os.path.join(HERE, "out")
    os.makedirs(out_root, exist_ok=True)
    count = 1 if traced else max(1, round(args.seconds / ROUND_S[args.workload]))
    run_pass = sweep_pass if args.workload == "route-sweep" else catalog_pass
    passes, setups = [], []
    with tempfile.TemporaryDirectory(dir=out_root) as work:
        for i in range(count):
            if args.workload == "catalog-serial":
                setups += [ctx.launch([sys.executable, "-c", "import pcl.cli"]).wall_s
                           for _ in range(IMPORT_SAMPLES)]
            dirs = [os.path.join(work, f"round{i}-{k}") for k in range(1 if traced else STREAMS)]
            for d in dirs:
                os.makedirs(d)
            with ThreadPoolExecutor(len(dirs)) as pool:
                passes += pool.map(lambda d: run_pass(ctx, d, args.seed, traced), dirs)
            if ctx.problems:
                break
        setups += [s for p in passes for s in p["setup_s"]]
        spans = os.path.join(work, "round0-0", "spans.json")
        if os.path.exists(spans):
            os.replace(spans, os.path.join(out_root, f"spans-{args.workload}.json"))
        tables = load_tables(ctx, work, groups)

    # passes repeat the same work, so the first is checked record by record
    # and the others must match its deterministic content
    outcome = check.check_records(groups, tables, passes[0]["records"])
    ctx.problems.extend(outcome.group_problems)
    ctx.problems.extend(f"pair {i}: {p}" for i, p in list(outcome.failed_pairs.items())[:5])
    digests = [check.digest(groups, p["records"]) for p in passes]
    attempted = sum(len(p["records"]) for p in passes)
    failed = outcome.failed * len(passes)
    if len(set(digests)) > 1:
        ctx.problems.append("record content differs between passes")
    own = [r for r in passes[0]["records"] if r.get("group") == SELFTEST_GROUP]
    if SELFTEST_GROUP in tables:
        spec = dict(groups)[SELFTEST_GROUP]
        for name in selftest.missed(SELFTEST_GROUP, spec, tables[SELFTEST_GROUP], own):
            ctx.problems.append(f"checker self-test: '{name}' not flagged")

    timed = sum(p["timed_s"] for p in passes)
    firsts = [p["first_record_s"] for p in passes if p["first_record_s"] is not None]
    if traced:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in passes[0]["layers"].items()}
    else:
        metrics = {
            "pairs_per_s": {"value": attempted / timed, "unit": "1/s"},
            "first_record_s": {"value": statistics.median(firsts) if firsts else timed,
                               "unit": "s"},
            "peak_rss_mb": {"value": max(p["peak_mb"] for p in passes), "unit": "MB"},
            "setup_s": {"value": statistics.median(setups) if setups else timed, "unit": "s"},
        }
    print(f"# machine: cores={os.cpu_count()} python={sys.version.split()[0]} "
          f"numpy={np.__version__}")
    print(f"# passes={len(passes)} pairs={attempted} timed_s={timed:.3f} "
          f"pairs_per_s={attempted / timed:.3f}")
    print(f"# digest: {digests[0]}")
    print(f"# findings ({len(outcome.findings)}, classifier vs routes, not failures): "
          f"{'; '.join(outcome.findings)}")
    print(f"# checker self-test: {len(selftest.MUTATIONS)} mutations, each must be flagged")
    for problem in ctx.problems:
        print(f"# PROBLEM: {problem}")
    correct = not ctx.problems and attempted > 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed if attempted else 1, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
