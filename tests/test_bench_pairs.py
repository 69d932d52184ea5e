"""The pairs script runs two trees in alternating order and writes a BENCH
file in the committed format."""

import json
from pathlib import Path

import bench_pairs

ROOT = Path(__file__).resolve().parent.parent

STUB = '''import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args["--seed"])
with open(%(log)r, "a") as log:
    log.write("%(side)s %%s %%d %%s %%s\\n" %% (args["--workload"], seed, args["--seconds"], args["--trace"]))
print("a line before the result")
print(json.dumps({"attempted": 10, "correct": %(correct)s, "failed": %(failed)d, "metrics": {
    "lat_p50_ms": {"unit": "ms", "value": %(p50)r + seed / 1000.0},
    "lat_p90_ms": {"unit": "ms", "value": 1.0},
    "peak_rss_mb": {"unit": "MB", "value": 20.0},
    "setup_s": {"unit": "s", "value": 0.01},
    "total_s": {"unit": "s", "value": 0.1234567891}}}))
'''


def stub_tree(tmp_path, side, p50, correct=True, failed=0):
    """A tree whose ``benchmark/run.py`` logs its call and prints a fixed
    result line, its p50 offset by the seed."""
    tree = tmp_path / side
    (tree / "benchmark").mkdir(parents=True)
    (tree / "benchmark" / "run.py").write_text(STUB % {
        "log": str(tmp_path / "calls.log"), "side": side, "correct": correct,
        "failed": failed, "p50": p50})
    return tree


def run(tmp_path, *extra):
    return bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--label", "stub", "--out",
                             str(tmp_path), *extra])


def test_the_pairs_alternate_and_the_file_has_the_committed_format(tmp_path):
    stub_tree(tmp_path, "parent", 2.0)
    stub_tree(tmp_path, "change", 1.0)
    assert run(tmp_path, "--workloads", "branching", "ncsym", "--seeds", "1", "2", "3",
               "--seconds", "0.5") == 0
    calls = (tmp_path / "calls.log").read_text().splitlines()
    assert calls == ["%s %s %d 0.5 0" % (side, w, seed)
                     for w in ("branching", "ncsym") for seed in (1, 2, 3)
                     for side in (("parent", "change") if seed % 2 else ("change", "parent"))]
    document = json.loads((tmp_path / "BENCH_stub.json").read_text())
    committed = json.loads((ROOT / "BENCH_index_layout.json").read_text())
    assert sorted(document) == sorted(committed)
    assert document["order"] == committed["order"]
    assert sorted(document["workloads"]) == ["branching", "ncsym"]
    branching = document["workloads"]["branching"]
    assert sorted(branching) == ["runs", "summary"]
    assert sorted(branching["runs"]["parent"][0]) == sorted(
        committed["workloads"]["branching"]["runs"]["parent"][0])
    assert [r["seed"] for r in branching["runs"]["change"]] == [1, 2, 3]
    assert branching["runs"]["change"][0]["total_s"] == 0.123457
    p50 = branching["summary"]["lat_p50_ms"]
    assert p50 == {"change_better_pairs": 3, "change_median": 1.002, "pairs": 3,
                   "parent_iqr": 0.002, "parent_median": 2.002}
    assert branching["summary"]["lat_p90_ms"]["change_better_pairs"] == 0


def test_a_run_that_is_not_correct_or_fails_a_request_fails_the_script(tmp_path):
    stub_tree(tmp_path, "parent", 1.0)
    stub_tree(tmp_path, "change", 1.0, failed=1)
    assert run(tmp_path, "--workloads", "cli", "--seeds", "1", "--seconds", "1") == 1
    assert (tmp_path / "BENCH_stub.json").exists()
    (tmp_path / "calls.log").unlink()
    stub_tree(tmp_path / "wrong", "parent", 1.0)
    stub_tree(tmp_path / "wrong", "change", 1.0, correct=False)
    assert run(tmp_path / "wrong", "--workloads", "cli", "--seeds", "1") == 1


def test_the_summary_reproduces_a_committed_file():
    committed = json.loads((ROOT / "BENCH_index_layout.json").read_text())
    for workload in committed["workloads"].values():
        runs = workload["runs"]
        assert bench_pairs.summary(runs["parent"], runs["change"]) == workload["summary"]
