from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest

import pcl.catalog
from pcl import codes, report, structure, theorems
from pcl.catalog import build_entry, default_catalog_specs, load_catalog_pairs
from pcl.cli import main
from pcl.errors import PclError, WrongClassifierError

from conftest import reference_class_counts


def run_cli(*args, env=None, timeout=None):
    proc = subprocess.run([sys.executable, "-m", "pcl.cli", *args],
                          capture_output=True, text=True, timeout=timeout,
                          env=None if env is None else {**os.environ, **env})
    return proc.returncode, proc.stdout, proc.stderr


def run_matrix(entries, **kwargs):
    """The matrix summary and the records it streamed, read back."""
    stream = io.StringIO()
    summary = report.run_verification_matrix(entries, out=stream, **kwargs)
    return summary, [json.loads(line) for line in stream.getvalue().splitlines()]


def entry_records(entry):
    """Every record of the entry, one per subgroup, in lattice order."""
    return [report.record_for(entry, H) for H in structure.all_subgroups(entry.group)]


def canonical(records):
    """Records with the wall-clock timing fields zeroed."""
    out = []
    for r in records:
        r = json.loads(json.dumps(r))
        for v in r["verdicts"].values():
            v["time_ms"] = 0.0
        out.append(r)
    return out


def test_record_structure_and_agreement():
    entry = build_entry("Q8", "Q8")
    records = entry_records(entry)
    assert len(records) == 6
    code_count = 0
    for r in records:
        assert r["group"] == "Q8"
        assert r["agreement"] is True
        assert sorted(r["verdicts"]) == sorted(report.METHODS)
        for v in r["verdicts"].values():
            assert v["time_ms"] >= 0.0
        code_count += r["verdicts"]["criterion3"]["is_code"]
    assert code_count == 2  # only the trivial subgroup and the whole group


def test_d8_code_count_and_cayley_evidence():
    entry = build_entry("D(8)", "D(8)")
    records = entry_records(entry)
    assert len(records) == 10
    codes_found = [r for r in records if r["verdicts"]["criterion3"]["is_code"]]
    assert len(codes_found) == 9
    for r in codes_found:
        assert r["verdicts"]["cayley"]["is_code"] is True
        assert "connection_set" in r["verdicts"]["cayley"]["evidence"]
        assert "transversal" in r["verdicts"]["oracle"]["evidence"]


def test_cayley_method_exhausts_small_negatives():
    entry = build_entry("C(4)", "C(4)")
    records = entry_records(entry)
    center = next(r for r in records if r["subgroup"]["elements"] == [0, 2])
    assert center["verdicts"]["cayley"]["is_code"] is False
    assert center["verdicts"]["cayley"]["evidence"] == {"exhausted_all_sets": True}


def test_cayley_method_reverifies_an_exhaustive_positive(monkeypatch):
    # with the oracle stubbed out, the sweep decides the trivial subgroup of
    # C(4); its set is a verdict only as the graph definition judges it
    entry = build_entry("C(4)", "C(4)")
    trivial = next(H for H in structure.all_subgroups(entry.group) if H.order == 1)
    monkeypatch.setattr(codes, "find_inverse_closed_transversal", lambda G, H: None)
    checked = []
    monkeypatch.setattr(codes, "verify_perfect_code_in_cayley",
                        lambda G, S, C: checked.append((S.members.tolist(), C)) or False)
    search = lambda: codes.find_inverse_closed_transversal(entry.group, trivial)
    assert report.ROUTES["cayley"](entry, trivial, search) == {
        "is_code": False, "evidence": {"connection_set": [1, 2, 3]}}
    assert checked == [([1, 2, 3], trivial)]


def _corrupted_transversals(G, H):
    """The search's transversal of H with one rep swapped for another element
    of its coset, and with one rep swapped for an element of another rep's
    coset, so that two reps share it."""
    reps = codes.find_inverse_closed_transversal(G, H).tolist()
    coset = lambda t: sorted(int(G.mult[h, t]) for h in H.members.tolist())
    k = next(k for k, t in enumerate(reps) if t not in H)
    swapped = next(g for g in coset(reps[k]) if g != reps[k])
    shared = coset(reps[k - 1])[-1]
    return [reps[:k] + [r] + reps[k + 1:] for r in (swapped, shared)]


@pytest.mark.parametrize("case", [0, 1], ids=["swapped", "shared"])
def test_cayley_method_refutes_a_corrupted_transversal(tmp_path, monkeypatch, case):
    # a search that returns a corrupted transversal is a disagreement with
    # the oracle that trusts it, exit 1, not an input error
    entry = build_entry("D(8)", "D(8)")
    b = entry.group.witness["b"]
    H = structure.subgroup_generated(entry.group, [b])
    reps = _corrupted_transversals(entry.group, H)[case]
    monkeypatch.setattr(codes, "find_inverse_closed_transversal",
                        lambda G, K: np.array(reps, dtype=np.int32))
    search = lambda: codes.find_inverse_closed_transversal(entry.group, H)
    assert report.ROUTES["cayley"](entry, H, search)["is_code"] is False
    record = report.record_for(entry, H)
    assert record["verdicts"]["oracle"]["evidence"] == {"transversal": reps}
    assert record["verdicts"]["cayley"]["is_code"] is False
    assert record["agreement"] is False
    out_file = tmp_path / "r.jsonl"
    assert main(["classify", "D(8)", "--subgroup", str(b), "--out", str(out_file)]) == 1
    (line,) = out_file.read_text().splitlines()
    assert json.loads(line)["agreement"] is False


def test_cayley_method_not_applicable_above_limit():
    entry = build_entry("C(32)", "C(32)")
    records = entry_records(entry)
    bad = next(r for r in records if r["subgroup"]["order"] == 8)
    assert bad["verdicts"]["cayley"] == {"not_applicable": True,
                                         "time_ms": bad["verdicts"]["cayley"]["time_ms"]}
    votes = {v["is_code"] for v in bad["verdicts"].values() if "is_code" in v}
    assert votes == {False}
    assert bad["agreement"] is True


def test_theorem_method_not_applicable_for_odd_order():
    entry = build_entry("C7:C3", "SD(C(7);C(3);1->2)")
    records = entry_records(entry)
    for r in records:
        assert r["verdicts"]["theorem"].get("not_applicable") is True
        assert r["agreement"] is True


def test_matrix_summary_and_determinism():
    entries = [("Q8", "Q8"), ("D(8)", "D(8)"), ("S3", "perm:(1 2 3),(1 2)")]
    out1, records1 = run_matrix(entries)
    out2, records2 = run_matrix(entries)
    assert out1["disagreements"] == 0
    assert canonical(records1) == canonical(records2)
    rows = out1["rows"]
    assert rows[0] == {"group": "Q8", "order": 8, "subgroups": 6, "codes": 2,
                       "classes": 6, "code_classes": 2,
                       "disagreements": 0, "findings": 0}
    table = report.render_summary_table(rows)
    assert "Q8" in table and "TOTAL" in table
    assert len(records1) == sum(r["subgroups"] for r in rows)
    assert [r["group"] for r in records1] == ["Q8"] * 6 + ["D(8)"] * 10 + ["S3"] * 6


def test_matrix_streams_each_entry_before_building_the_next(monkeypatch):
    stream = io.StringIO()
    build = pcl.catalog.build_entry
    lines_at_build = []

    def spy(label, spec):
        lines_at_build.append(len(stream.getvalue().splitlines()))
        return build(label, spec)

    monkeypatch.setattr(pcl.catalog, "build_entry", spy)
    report.run_verification_matrix([("Q8", "Q8"), ("C(4)", "C(4)")], out=stream)
    assert lines_at_build == [0, 6]


def test_matrix_writes_each_record_as_its_pair_is_decided(monkeypatch):
    stream = io.StringIO()
    record_for = report.record_for
    lines_at_call = []

    def spy(entry, H, methods):
        lines_at_call.append(len(stream.getvalue().splitlines()))
        return record_for(entry, H, methods)

    monkeypatch.setattr(report, "record_for", spy)
    report.run_verification_matrix([("D(8)", "D(8)")], out=stream)
    assert lines_at_call == list(range(10))


@pytest.mark.parametrize("methods", [None, "cayley"], ids=["all", "cayley"])
def test_each_pair_searches_for_its_transversal_once(monkeypatch, methods):
    build, find, search = (pcl.catalog.build_entry, codes.find_inverse_closed_transversal,
                           codes._transversal_search)
    built, found, searched = [], [], []
    monkeypatch.setattr(pcl.catalog, "build_entry",
                        lambda label, spec: built.append(build(label, spec)) or built[-1])
    monkeypatch.setattr(codes, "find_inverse_closed_transversal",
                        lambda G, H: found.append(H) or find(G, H))
    monkeypatch.setattr(codes, "_transversal_search",
                        lambda G, H: searched.append(H) or search(G, H))
    report.run_verification_matrix([("D(16)", "D(16)")], methods=methods)
    G = built[0].group
    assert found == searched == structure.all_subgroups(G)
    # and nothing of a search outlives its pair
    assert not [key for key in G._cache
                if (key[0] if isinstance(key, tuple) else key).startswith("transversal")]


@pytest.mark.parametrize("spec", ["D(16)", "M2(2,2,1)", "C(8)xC(4)",
                                  "perm:(1 2 3),(1 2)(3 4)", "perm:(1 2 3 4),(1 2)"])
def test_deciding_pairs_memoises_no_copy_of_the_table(spec):
    # the routes read the table through per-call views; the group memo gains
    # no list, memoryview or |G|^2 array while the pairs are decided, and no
    # key naming a subgroup: the theorem route reads Phi of an abelian
    # 2-group as a mask of squares, made per pair
    entry = build_entry(spec, spec)
    G = entry.group
    lattice = structure.all_subgroups(G)
    before = set(G._cache)
    for H in lattice:
        report.record_for(entry, H)

    def copies(value):
        # tuples are looked into, nested ones too: the 𝒜₁ family candidates
        # are a tuple of one (label, names, values, g1, g2, g1 g2) tuple per shape,
        # with no Python object per candidate
        if isinstance(value, tuple):
            return any(copies(v) for v in value)
        return (isinstance(value, (list, memoryview))
                or (isinstance(value, np.ndarray) and value.size >= G.order ** 2))

    added = set(G._cache) - before
    assert [key for key in added if copies(G._cache[key])] == []
    # a key may name a subgroup as the object, its mask's bytes, its packed
    # mask or that read as an integer
    names = set(lattice)
    for H in lattice:
        packed = np.packbits(H.mask).tobytes()
        names.update((H.mask.tobytes(), packed, int.from_bytes(packed, "big")))
    assert [key for key in added
            if isinstance(key, tuple) and names.intersection(key)] == []
    assert not hasattr(type(G), "extend")


@pytest.mark.parametrize("spec", ["D(64)", "M2(2,2,1)"])
def test_group_memo_holds_no_square_table(spec):
    # mult is the only |G| x |G| array of a group: conjugates are read from
    # it on demand, so after the lattice and every pair's record no memo
    # value, nor an array inside a tuple or list, has |G|^2 entries
    entry = build_entry(spec, spec)
    G = entry.group
    for H in structure.all_subgroups(G):
        report.record_for(entry, H)

    def square(value):
        if isinstance(value, (tuple, list)):
            return any(square(v) for v in value)
        return isinstance(value, np.ndarray) and value.size >= G.order ** 2

    assert [key for key, value in G._cache.items() if square(value)] == []


def test_matrix_parallel_workers_match_serial():
    entries = [("Q8", "Q8"), ("D(10)", "D(10)"), ("C(8)", "C(8)")]
    serial, serial_records = run_matrix(entries, workers=1)
    parallel, parallel_records = run_matrix(entries, workers=2)
    assert canonical(serial_records) == canonical(parallel_records)
    assert serial["rows"] == parallel["rows"]


def test_pool_worker_writes_the_serial_row_and_lines_to_its_file(tmp_path):
    # a worker is the serial runner with its output named as a file, so the
    # parent copies lines from disk and holds no entry's records in memory
    path = tmp_path / "D(8).jsonl"
    row = report._run_entry(("D(8)", "D(8)", report.METHODS), str(path))
    summary, serial_records = run_matrix([("D(8)", "D(8)")])
    assert row == summary["rows"][0]
    lines = path.read_text(encoding="utf-8").splitlines()
    assert canonical(json.loads(line) for line in lines) == canonical(serial_records)


class ClosedPipe:
    """An output whose reader has gone: every write fails."""

    def write(self, text):
        raise BrokenPipeError

    def flush(self):
        pass


def _failing_record_for(entry, H, methods):
    raise RuntimeError("route failed")


@pytest.mark.parametrize("case", ["normal", "closed-pipe", "worker-error", "bad-spec"])
def test_pooled_run_leaves_no_temporary_file(tmp_path, monkeypatch, case):
    # each pooled entry's lines go through a file in one temporary directory,
    # which goes however the run ends; the forked workers inherit the
    # patched record_for
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    entries = [("Q8", "Q8"), ("D(8)", "D(8)"), ("C(6)", "C(6)")]
    if case == "normal":
        pooled, records = run_matrix(entries, workers=2)
        assert len(records) == sum(row["subgroups"] for row in pooled["rows"]) == 20
    elif case == "closed-pipe":
        with pytest.raises(BrokenPipeError):
            report.run_verification_matrix(entries, out=ClosedPipe(), workers=2)
    elif case == "worker-error":
        monkeypatch.setattr(report, "record_for", _failing_record_for)
        with pytest.raises(RuntimeError, match="route failed"):
            run_matrix(entries, workers=2)
    else:
        pooled, _ = run_matrix([("bad", "M2(1,1)"), *entries], workers=2)
        assert pooled["spec_errors"] == 1 and "error" in pooled["rows"][0]
    assert list(tmp_path.iterdir()) == []


def test_worker_pool_never_exceeds_the_entry_count(monkeypatch):
    # a stand-in executor records the pool size asked for and runs each job
    # in this process, so no worker is started; a forking pool starts every
    # worker it is given at its first submit
    import concurrent.futures

    asked = []

    class InProcessPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def map(self, fn, *iterables):
            return map(fn, *iterables)

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    entries = [("Q8", "Q8"), ("C(6)", "C(6)")]
    serial, serial_records = run_matrix(entries, workers=1)
    pooled, pooled_records = run_matrix(entries, workers=5000)
    assert asked == [2]
    assert canonical(pooled_records) == canonical(serial_records)
    assert pooled["rows"] == serial["rows"]
    run_matrix(entries[:1], workers=5000)  # one entry needs no pool
    assert asked == [2]


def test_matrix_rejects_unknown_method():
    with pytest.raises(PclError):
        report.run_verification_matrix([("Q8", "Q8")], methods=("bogus",))


def test_matrix_surfaces_size_limit_per_entry(monkeypatch):
    monkeypatch.setenv("PCL_MAX_ORDER", "16")
    summary, records = run_matrix(
        [("Q8", "Q8"), ("too-big", "C(100)"), ("D(8)", "D(8)")])
    assert summary["size_limited"] == 1
    assert summary["disagreements"] == 0
    assert [r["group"] for r in summary["rows"]] == ["Q8", "too-big", "D(8)"]
    assert "error" in summary["rows"][1]
    assert len(records) == 16  # Q8 and D(8) still ran
    table = report.render_summary_table(summary["rows"])
    assert "too-big" in table and "!" in table


def test_cli_verify_size_limit_exit_code(tmp_path, monkeypatch):
    monkeypatch.setenv("PCL_MAX_ORDER", "16")
    spec_file = tmp_path / "catalog.json"
    spec_file.write_text(json.dumps(["Q8", "C(100)"]))
    out_file = tmp_path / "r.jsonl"
    assert main(["verify", "--catalog", str(spec_file),
                 "--out", str(out_file)]) == 3
    assert len(out_file.read_text().splitlines()) == 6


@pytest.mark.parametrize("workers", ["1", "2"])
def test_cli_verify_lattice_past_its_mask_budget_exits_3(tmp_path, capsys, monkeypatch, workers):
    # EA(2,5)'s 374 subgroups hold 11,968 mask bytes, past the lowered
    # budget, which the forked workers inherit; C(2)'s records still come
    monkeypatch.setattr(structure, "LATTICE_MASK_BYTES", 1 << 12)
    spec_file = tmp_path / "catalog.json"
    spec_file.write_text(json.dumps(["EA(2,5)", "C(2)"]))
    out_file = tmp_path / "r.jsonl"
    assert main(["verify", "--catalog", str(spec_file), "--out", str(out_file),
                 "--workers", workers, "--summary", "table"]) == 3
    records = [json.loads(line) for line in out_file.read_text().splitlines()]
    assert [r["group"] for r in records] == ["C(2)", "C(2)"]
    out, err = capsys.readouterr()
    error = "subgroup lattice of order 32 holds more than 4,096 bytes of membership masks"
    assert f"! {error}" in out and err == f"EA(2,5): {error}\n"


HUGE_SPECS = ["EA(2,99999)", "M2(99999,1)", "M2(1,99999,1)"]


@pytest.mark.parametrize("spec", HUGE_SPECS)
def test_cli_build_huge_parameters_exit_at_the_size_limit(spec):
    code, _, err = run_cli("build", spec, env={"PCL_MAX_ORDER": "512"})
    assert code == 3 and err.startswith("size limit: group order 2^")
    assert "Traceback" not in err


def test_cli_build_huge_prime_is_refused_at_the_size_limit():
    # EA(p,1) has order p, so trial division of p stops at the cap
    code, _, err = run_cli("build", "EA(1000000000000000000000000000057,1)",
                           env={"PCL_MAX_ORDER": "512"}, timeout=10)
    assert code == 3
    assert err == ("size limit: group order <31-digit number>^1 exceeds the cap "
                   "PCL_MAX_ORDER=512\n")


def test_cli_build_huge_prime_with_k_zero_is_refused_at_the_size_limit():
    # EA(p,0) has order 1, so p itself is held to the cap
    code, _, err = run_cli("build", "EA(1000000000000000000000000000057,0)",
                           env={"PCL_MAX_ORDER": "512"}, timeout=10)
    assert code == 3 and err.startswith("size limit: ")
    assert len(err.encode()) < 200


@pytest.mark.parametrize("spec, order", [
    ("C(65537)", "65537"), ("EA(2,17)", "2^17"), ("C(256)xC(257)", "65792")])
def test_cli_build_past_the_uint16_range_exits_before_any_table(spec, order):
    # PCL_MAX_ORDER does not lift the limit past 65,536.  The child may map
    # 1 GiB, an eighth of one such uint16 table, so a build that allocated
    # its table before the check would fail with MemoryError, not exit 3
    limited = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
               "from pcl.cli import main; sys.exit(main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", limited, "build", spec], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PCL_MAX_ORDER": "100000"})
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == (f"size limit: group order {order} exceeds 65536, the most "
                           "elements a uint16 table indexes\n")


def test_cli_build_size_limit_message_is_short():
    code, _, err = run_cli("build", "C(" + "9" * 4000 + ")", env={"PCL_MAX_ORDER": "512"})
    assert code == 3 and err.startswith("size limit: group order <4000-digit number>")
    assert len(err.encode()) < 200


def test_cli_verify_counts_huge_parameters_as_size_limited(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PCL_MAX_ORDER", "512")
    entries = [("Q8", "Q8")] + [(spec, spec) for spec in HUGE_SPECS]
    summary, records = run_matrix(entries)
    assert (summary["size_limited"], summary["spec_errors"]) == (3, 0)
    assert [row["error"] for row in summary["rows"][1:]] == [
        f"group order 2^{k} exceeds the cap PCL_MAX_ORDER=512"
        for k in (99999, 100000, 100001)]
    assert len(records) == 6
    spec_file = tmp_path / "catalog.json"
    spec_file.write_text(json.dumps(["Q8", "M2(1,99999,1)"]))
    assert main(["verify", "--catalog", str(spec_file),
                 "--out", str(tmp_path / "r.jsonl")]) == 3
    assert "M2(1,99999,1): group order 2^100001 exceeds" in capsys.readouterr().err


FOOTPRINT_SCRIPT = """
import json, sys
from pcl import cli, codes, structure
from pcl.specs import build_family
catalog, out = sys.argv[1:]
code = cli.main(["verify", "--catalog", catalog, "--out", out, "--workers", "1"])
# the sites a verify run does not reach: the Frattini subgroup of an odd-p
# group and a sweep that finds a connection set
c9 = build_family("C(9)")
structure.frattini(structure.full_subgroup(c9))
c4 = build_family("C(4)")
assert codes.exhaustive_connection_set_search(c4, structure.trivial_subgroup(c4))
unused = ("numpy.ma", "multiprocessing", "concurrent.futures")
print(json.dumps([code, sorted(m for m in sys.modules
                               if any(m == u or m.startswith(u + ".") for u in unused))]))
"""


def test_serial_verify_loads_no_pool_or_masked_array_modules(tmp_path):
    # D(8) reaches the exhaustive sweep, A5 and C7:C3 the commutators, M2(2,1)
    # the square mask, F20 and C7:C3 the SD bijection check; every lattice
    # reaches the prime-power table
    spec_file = tmp_path / "catalog.json"
    spec_file.write_text(json.dumps(
        ["D(8)", {"spec": "perm:(1 2 3 4 5),(1 2 3)", "label": "A5"},
         {"spec": "SD(C(7);C(3);1->2)", "label": "C7:C3"}, "M2(2,1)",
         "SD(C(5);C(4);1->2)"]))
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT_SCRIPT, str(spec_file),
                           str(tmp_path / "r.jsonl")], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, []]
    assert len((tmp_path / "r.jsonl").read_text().splitlines()) == 10 + 59 + 10 + 10 + 14


def test_theorem_clause_mismatch_counts_as_finding_not_disagreement():
    # one noncyclic central subgroup of this group is a code by every
    # equivalence route but matches no classified shape; the matrix reports
    # it as a finding and keeps exit-worthy disagreements at zero
    summary, records = run_matrix([("M2(2,2,1)", "M2(2,2,1)")])
    assert summary["disagreements"] == 0
    assert summary["findings"] == 1
    flagged = [r for r in records if not r["agreement"]]
    assert len(flagged) == 1
    assert flagged[0]["subgroup"]["elements"] == [0, 5, 17, 20]
    truth = {v["is_code"] for m, v in flagged[0]["verdicts"].items()
             if m != "theorem" and "is_code" in v}
    assert truth == {True}
    assert flagged[0]["verdicts"]["theorem"]["is_code"] is False


def test_cli_verify_findings_do_not_fail_the_run(tmp_path):
    spec_file = tmp_path / "catalog.json"
    spec_file.write_text(json.dumps(["M2(2,2,1)"]))
    code, out, _ = run_cli("verify", "--catalog", str(spec_file),
                           "--out", str(tmp_path / "r.jsonl"),
                           "--summary", "table")
    assert code == 0
    assert "findings" in out


def test_cli_classify_findings_do_not_fail_the_run(tmp_path):
    # exit 1 is for a split among the equivalence routes, as in verify; a
    # theorem clause against their answer stays a finding on the record
    out_file = tmp_path / "r.jsonl"
    assert main(["classify", "M2(2,2,1)", "--methods", "criterion3,theorem",
                 "--out", str(out_file)]) == 0
    records = [json.loads(l) for l in out_file.read_text().splitlines()]
    assert [r["subgroup"]["elements"] for r in records
            if not r["agreement"]] == [[0, 5, 17, 20]]


def test_cli_classify_route_split_exits_1(tmp_path, monkeypatch):
    monkeypatch.setattr(codes, "criterion4",
                        lambda G, H: codes.Verdict(True))
    assert main(["classify", "C(4)", "--methods", "criterion3,criterion4",
                 "--out", str(tmp_path / "r.jsonl")]) == 1


@pytest.mark.parametrize("spec", ["D(8)", "perm:(1 2 3),(1 2)", "SD(C(7);C(3);1->2)"])
def test_cli_classify_writes_the_records_of_verify(tmp_path, spec):
    spec_file = tmp_path / "catalog.json"
    spec_file.write_text(json.dumps([spec]))
    assert main(["verify", "--catalog", str(spec_file),
                 "--out", str(tmp_path / "verify.jsonl")]) == 0
    assert main(["classify", spec, "--out", str(tmp_path / "classify.jsonl")]) == 0
    verified, classified = (
        canonical(json.loads(line) for line in (tmp_path / name).read_text().splitlines())
        for name in ("verify.jsonl", "classify.jsonl"))
    assert classified == verified


@pytest.mark.parametrize("args", [["M2(1,1)"], ["Q8", "--subgroup", "9"],
                                  ["Q8", "--methods", "nonsense"],
                                  # int() would read 2 and 10, both in D(16)
                                  ["D(16)", "--subgroup", "\u0662"],
                                  ["D(16)", "--subgroup", "1_0"]],
                         ids=["spec", "generator", "methods", "arabic-indic-digit",
                              "underscore"])
def test_cli_classify_bad_input_leaves_no_out_file(tmp_path, capsys, args):
    out_file = tmp_path / "r.jsonl"
    code = main(["classify", *args, "--out", str(out_file)])
    _assert_input_error(code, capsys.readouterr().err)
    assert not out_file.exists()


def test_cli_verify_reader_closing_the_pipe_is_an_input_error(tmp_path):
    # D(128)'s records outgrow the pipe buffer, so the writer sees the pipe
    # closed after the reader took the first line
    spec_file = tmp_path / "catalog.json"
    spec_file.write_text(json.dumps(["D(64)", "D(128)"]))
    proc = subprocess.Popen([sys.executable, "-m", "pcl.cli", "verify",
                             "--catalog", str(spec_file)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)
    assert json.loads(proc.stdout.readline())["group"] == "D(64)"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 2
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_matrix_stops_queued_entries_when_its_output_breaks(tmp_path, monkeypatch):
    # the forked workers inherit the spy, which leaves a file per entry built
    build = pcl.catalog.build_entry

    def spy(label, spec):
        (tmp_path / label).touch()
        return build(label, spec)

    monkeypatch.setattr(pcl.catalog, "build_entry", spy)
    entries = [(f"entry{i}", "D(256)") for i in range(30)]
    with pytest.raises(BrokenPipeError):
        report.run_verification_matrix(entries, "criterion3", out=ClosedPipe(),
                                       workers=2)
    # past the first entry only the jobs the executor had already handed to
    # its workers run: two running and three queued, give or take one
    assert 1 <= len(list(tmp_path.iterdir())) <= len(entries) // 3


def test_conjugacy_class_summary():
    rows = report.run_verification_matrix(
        [("D(8)", "D(8)"), ("A4", "perm:(1 2 3),(1 2)(3 4)")])["rows"]
    # D(8): the five order-2 subgroups fall into 3 classes, so 8 classes and
    # the center is still the only non-code
    assert (rows[0]["classes"], rows[0]["code_classes"]) == (8, 7)
    # A4: classes 1, C2, C3, V4, A4
    assert (rows[1]["classes"], rows[1]["code_classes"]) == (5, 5)


def test_class_counts_match_conjugate_enumeration(catalog):
    small = {e.label: e.group for e in catalog if e.group.order <= 64}
    pairs = [(label, spec) for label, spec in default_catalog_specs() if label in small]
    rows = report.run_verification_matrix(pairs, methods="criterion3")["rows"]
    assert len(rows) == len(small)
    for row in rows:
        G = small[row["group"]]
        expected = reference_class_counts(G, lambda H: codes.criterion3(G, H).is_code)
        assert (row["classes"], row["code_classes"]) == expected, row["group"]


def test_cli_verify_class_summary_keeps_error_rows(tmp_path, capsys):
    spec_file = tmp_path / "catalog.json"
    spec_file.write_text(json.dumps(["D(8)", {"spec": "M2(1,1)", "label": "bad"}]))
    assert main(["verify", "--catalog", str(spec_file), "--out",
                 str(tmp_path / "r.jsonl"), "--summary", "classes"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["group", "order", "subgroups", "codes", "disagreements"]
    assert lines[2].split() == ["D(8)", "8", "8", "7", "0"]
    assert lines[3].startswith("bad ") and "! M2(n1,m1) requires n1 >= 2" in lines[3]


def test_cli_build_and_exit_codes(tmp_path):
    code, out, _ = run_cli("build", "Q8")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 8 and payload["identity"] == 0
    assert len(payload["mult"]) == 8

    code, _, err = run_cli("build", "M2(1,1)")
    assert code == 2 and "n1 >= 2" in err

    code, _, err = run_cli("build", "C(")
    assert code == 2

    code, _, err = run_cli("build", "C(1000)")
    assert code == 3 and "size limit" in err


def test_cli_subgroups(tmp_path):
    out_file = tmp_path / "lattice.json"
    code, _, _ = run_cli("subgroups", "D(8)", "--out", str(out_file))
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["count"] == 10
    orders = sorted(s["order"] for s in payload["subgroups"])
    assert orders == [1, 2, 2, 2, 2, 2, 4, 4, 4, 8]


@pytest.mark.parametrize("spec", ["perm:(1 2 3 4 5),(1 2)", "SD(Q8;C(3);1->2,2->3)",
                                  "D(16)", "EA(2,4)", "C(1)"])
def test_cli_subgroups_streams_the_one_shot_json(tmp_path, spec):
    # S5 and SL(2,3) among them; written a subgroup at a time, the output
    # is byte for byte the sorted-key dump of the whole payload
    out_file = tmp_path / "lattice.json"
    assert main(["subgroups", spec, "--out", str(out_file)]) == 0
    group = pcl.build_family(spec)
    subgroups = structure.all_subgroups(group)
    payload = {"label": group.label, "order": group.order, "count": len(subgroups),
               "subgroups": [report.subgroup_json(H) for H in subgroups]}
    assert out_file.read_bytes() == (json.dumps(payload, sort_keys=True) + "\n").encode()


@pytest.mark.skipif(not os.path.exists("/proc/self/status")
                    or len(getattr(os, "sched_getaffinity", lambda _: ())(0)) < 2,
                    reason="needs /proc/self/status and 2 CPUs, where OpenBLAS "
                           "would start a worker")
def test_import_pcl_runs_one_thread_and_leaves_the_environment():
    script = ("import os; before = dict(os.environ); import pcl; "
              "threads = next(line.split()[1] for line in open('/proc/self/status') "
              "if line.startswith('Threads:')); "
              "print(threads, dict(os.environ) == before, os.environ.get('OPENBLAS_NUM_THREADS'))")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}

    def run(env):
        return subprocess.run([sys.executable, "-c", script], env=env, check=True,
                              capture_output=True, text=True).stdout.split()

    assert run(env) == ["1", "True", "None"]
    # a caller's own setting is honoured and left in place
    assert run({**env, "OPENBLAS_NUM_THREADS": "2"})[1:] == ["True", "2"]


def test_cli_classify_single_subgroup():
    code, out, _ = run_cli("classify", "C(4)", "--subgroup", "2",
                           "--methods", "criterion3,criterion4,oracle,cayley")
    assert code == 0
    record = json.loads(out)
    assert record["subgroup"]["elements"] == [0, 2]
    assert all(v["is_code"] is False for v in record["verdicts"].values())

    code, out, _ = run_cli("classify", "Q8")
    assert code == 0
    assert len(out.splitlines()) == 6

    code, _, err = run_cli("classify", "Q8", "--methods", "nonsense")
    assert code == 2

    code, _, err = run_cli("classify", "Q8", "--subgroup", "9")
    assert code == 2


@pytest.mark.parametrize("spelling", ["", ","], ids=["empty", "comma"])
def test_cli_classify_empty_subgroup_list_is_the_trivial_subgroup(capsys, spelling):
    assert main(["classify", "D(8)", "--subgroup", spelling]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["subgroup"] == {"elements": [0], "order": 1,
                                                "generators": []}


def test_cli_classify_subgroup_record_matches_the_lattice_record(capsys):
    # <4, 2> is the rotation subgroup of D(8); its record names the canonical
    # generators, as the record of the same subgroup from the lattice does
    assert main(["classify", "D(8)", "--subgroup", "4,2"]) == 0
    single = canonical([json.loads(capsys.readouterr().out)])
    assert main(["classify", "D(8)"]) == 0
    records = canonical(json.loads(line) for line in capsys.readouterr().out.splitlines())
    assert single == [r for r in records if r["subgroup"]["elements"] == [0, 2, 4, 6]]


def test_cli_verify_custom_catalog(tmp_path):
    spec_file = tmp_path / "catalog.json"
    spec_file.write_text(json.dumps(["Q8", {"spec": "D(8)", "label": "dih8"}]))
    out_file = tmp_path / "report.jsonl"
    code, out, _ = run_cli("verify", "--catalog", str(spec_file),
                           "--out", str(out_file), "--summary", "table")
    assert code == 0
    assert "dih8" in out and "TOTAL" in out
    records = [json.loads(l) for l in out_file.read_text().splitlines()]
    assert len(records) == 16
    assert all(r["agreement"] for r in records)


def test_cli_verify_bad_spec_gets_its_own_row(tmp_path, capsys):
    spec_file = tmp_path / "catalog.json"
    spec_file.write_text(json.dumps(["Q8", {"spec": "M2(1,1)", "label": "bad"},
                                     "D(8)"]))
    out_file = tmp_path / "r.jsonl"
    assert main(["verify", "--catalog", str(spec_file), "--out", str(out_file),
                 "--summary", "table"]) == 2
    records = [json.loads(l) for l in out_file.read_text().splitlines()]
    assert [r["group"] for r in records] == ["Q8"] * 6 + ["D(8)"] * 10
    captured = capsys.readouterr()
    bad_row = next(l for l in captured.out.splitlines() if l.startswith("bad "))
    assert "! M2(n1,m1) requires n1 >= 2" in bad_row
    assert "bad: M2(n1,m1) requires n1 >= 2" in captured.err


def test_cli_codeperfect():
    code, out, _ = run_cli("codeperfect", "EA(2,3)")
    assert code == 0
    assert json.loads(out) == {"group": "EA(2,3)", "code_perfect": True,
                               "order4_witness": None}
    code, out, _ = run_cli("codeperfect", "C(4)")
    payload = json.loads(out)
    assert payload["code_perfect"] is False and payload["order4_witness"] == 1


def test_load_catalog_file_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"not": "a list"}))
    with pytest.raises(PclError):
        load_catalog_pairs(str(bad))


def _assert_input_error(code, err):
    assert code == 2
    assert "input error" in err and "Traceback" not in err


@pytest.mark.parametrize("command", [["build", "Q8"], ["subgroups", "Q8"],
                                     ["classify", "Q8"], ["verify"]],
                         ids=lambda command: command[0])
def test_cli_bad_out_path_is_an_input_error(tmp_path, monkeypatch, capsys, command):
    if command == ["verify"]:
        spec_file = tmp_path / "catalog.json"
        spec_file.write_text(json.dumps(["Q8"]))
        command = ["verify", "--catalog", str(spec_file)]

        def no_entry(label, spec):
            raise AssertionError(f"entry {label} ran before --out was opened")

        monkeypatch.setattr(pcl.catalog, "build_entry", no_entry)
    code = main([*command, "--out", str(tmp_path / "no" / "such" / "x.json")])
    _assert_input_error(code, capsys.readouterr().err)


def test_cli_verify_missing_catalog_file(tmp_path):
    code, _, err = run_cli("verify", "--catalog", str(tmp_path / "nope.json"))
    _assert_input_error(code, err)


def test_cli_verify_malformed_catalog_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('["Q8", ')
    code, _, err = run_cli("verify", "--catalog", str(bad))
    _assert_input_error(code, err)


def test_cli_verify_empty_catalog_file(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    code = main(["verify", "--catalog", str(empty), "--summary", "table"])
    out, err = capsys.readouterr()
    _assert_input_error(code, err)
    assert out == ""


@pytest.mark.parametrize("item", [{"spec": "C(4)", "label": ["x"]},
                                  {"spec": 4}, {"spec": ["C(4)"], "label": "x"}])
def test_cli_verify_rejects_non_string_catalog_fields(tmp_path, capsys, item):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([item]))
    out_file = tmp_path / "r.jsonl"
    code = main(["verify", "--catalog", str(bad), "--out", str(out_file)])
    err = capsys.readouterr().err
    _assert_input_error(code, err)
    assert "bad catalog item" in err and not out_file.exists()


def test_cli_verify_rejects_an_empty_catalog_label(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([{"spec": "C(2)", "label": ""}]))
    code = main(["verify", "--catalog", str(bad), "--summary", "table"])
    out, err = capsys.readouterr()
    _assert_input_error(code, err)
    assert "bad catalog item" in err and out == ""


@pytest.mark.parametrize("flag,env", [
    ([], {"PCL_WORKERS": "abc"}),
    (["--workers", "0"], None),
    ([], {"PCL_WORKERS": "-3"}),
    # digits are ASCII, as in a spec: int() would read 2 workers from these
    (["--workers", "\u0662"], None),
    ([], {"PCL_WORKERS": "\u0662"}),
    # set but empty is an input error, not the default
    ([], {"PCL_WORKERS": ""}),
    ([], {"PCL_WORKERS": " "}),
])
def test_cli_verify_rejects_bad_worker_counts(tmp_path, flag, env):
    spec_file = tmp_path / "catalog.json"
    spec_file.write_text(json.dumps(["Q8"]))
    code, _, err = run_cli("verify", "--catalog", str(spec_file), *flag, env=env)
    _assert_input_error(code, err)


@pytest.mark.parametrize("raw", ["1_000", "\u0661\u0660\u0660\u0660", "abc", "", " "])
def test_cli_rejects_a_max_order_not_in_ascii_digits(raw, capsys, monkeypatch):
    # int() reads the first two as 1000, above C(600)'s order; a set but
    # empty value is refused too, not read as the default cap
    monkeypatch.setenv("PCL_MAX_ORDER", raw)
    _assert_input_error(main(["codeperfect", "C(600)"]), capsys.readouterr().err)


def test_cli_verify_bad_methods_leave_out_file_alone(tmp_path, capsys):
    spec_file = tmp_path / "catalog.json"
    spec_file.write_text(json.dumps(["Q8"]))
    out_file = tmp_path / "r.jsonl"
    out_file.write_text("kept\n")
    code = main(["verify", "--catalog", str(spec_file), "--methods", "bogus",
                 "--out", str(out_file)])
    _assert_input_error(code, capsys.readouterr().err)
    assert out_file.read_text() == "kept\n"


GOLDEN_CATALOG = ["D(8)", "Q8", "M2(2,2,1)", "C(4)xC(2)",
                  {"label": "S3", "spec": "perm:(1 2 3),(1 2)"},
                  {"label": "A4", "spec": "perm:(1 2 3),(1 2)(3 4)"},
                  {"label": "A5", "spec": "perm:(1 2 3 4 5),(1 2 3)"}]
GOLDEN_DIGEST = "5999e87a15afd015356741de7f14bf36880ab4f319e5b53bfa4b5e4bb5fb0d8b"


def test_verify_record_content_matches_golden_digest(tmp_path):
    # any change to record content (verdicts, evidence, generators, order of
    # records) must update this digest on purpose
    spec_file = tmp_path / "catalog.json"
    spec_file.write_text(json.dumps(GOLDEN_CATALOG))
    out_file = tmp_path / "records.jsonl"
    assert main(["verify", "--catalog", str(spec_file), "--out", str(out_file)]) == 0
    digest = hashlib.sha256()
    for line in out_file.read_text().splitlines():
        record = json.loads(line)
        for verdict in record["verdicts"].values():
            del verdict["time_ms"]
        digest.update((json.dumps(record, sort_keys=True) + "\n").encode())
    assert digest.hexdigest() == GOLDEN_DIGEST


def test_default_catalog_specs_and_labels_are_unique():
    pairs = default_catalog_specs()
    assert len(pairs) == 131
    assert len({spec for _, spec in pairs}) == 131
    assert len({label for label, _ in pairs}) == 131


CATALOG_DIGEST = "f9fab2613ca5cd460109fbfcedd2c410579d729ac9e75ef72474fa7e1ac43140"


def test_catalog_record_content_matches_its_digest(catalog):
    # the records of a serial `pcl verify` on the default catalog, without
    # time_ms, in the order it writes them
    digest = hashlib.sha256()
    for entry in catalog:
        for H in structure.all_subgroups(entry.group):
            record = report.record_for(entry, H)
            for verdict in record["verdicts"].values():
                del verdict["time_ms"]
            digest.update((json.dumps(record, sort_keys=True) + "\n").encode())
    assert digest.hexdigest() == CATALOG_DIGEST


def test_main_callable_directly(capsys):
    assert main(["codeperfect", "C(2)"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["code_perfect"] is True


LATTICE_FREE_SPECS = ["EA(2,5)", "D(64)", "D(20)", "M2(2,2,1)", "M2(3,2)", "Q8",
                      "perm:(1 2 3),(1 2)(3 4)", "perm:(1 2 3 4 5),(1 2 3)",
                      "SD(C(5);C(4);1->2)"]


def test_classifier_choice_and_routes_never_build_the_lattice(monkeypatch):
    def no_lattice(G):
        raise AssertionError(f"the subgroup lattice of {G.label} was built")

    monkeypatch.setattr(structure, "_lattice", no_lattice)
    for spec in LATTICE_FREE_SPECS:
        entry = build_entry(spec, spec)
        G = entry.group
        H = structure.subgroup_generated(G, [1, G.order - 1])
        record = report.record_for(entry, H)
        verdicts = record["verdicts"]
        assert sorted(verdicts) == sorted(report.METHODS)
        assert "is_code" in verdicts["theorem"], spec
        assert verdicts["criterion3"]["is_code"] == verdicts["oracle"]["is_code"]
        # each class decided here, independently of the classifiers' guards
        is_2group = structure._is_2group(G)
        family = structure.recognize_a1_family(G).tag if is_2group else None
        _, P = codes.zhang_reduce(G, H)  # rule 4's class is per pair
        holds = {
            theorems.classify_abelian_2group: family == "abelian",
            theorems.classify_a1_2group: family in ("q8", "metacyclic", "nonmetacyclic"),
            theorems.dihedral_classify: structure.recognize_dihedral(G) is not None,
            theorems.classify_abelian_sylow2: P.order > 1 and P.is_abelian,
        }
        outcomes = []
        for rule, applies in holds.items():
            if applies:
                outcomes.append(rule(G, H))
            else:
                with pytest.raises(WrongClassifierError):
                    rule(G, H)
        assert theorems.classify(G, H) == outcomes[0], spec
