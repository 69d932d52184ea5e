"""Run the benchmark in two source trees in alternating pairs, and write
one ``BENCH_<label>.json``.

For each workload and seed, ``python3 benchmark/run.py --workload W --seed
S --seconds T --trace 0`` runs once in each tree, from that tree's root:
the parent tree first on odd seeds, the change tree first on even seeds.
The last line a run prints is its result.  The file holds every run, and a
summary per workload and metric: the two sides' medians, the parent's
interquartile range and how many pairs the change won (every end-to-end
metric is better lower).  The exit status is 1 if a run was not correct or
failed a request, 2 if a run printed no result.

    python tests/bench_pairs.py --parent ../parent --change . --label walk_choices
    python tests/bench_pairs.py --parent . --change . --label self \\
        --workloads branching --seeds 1 --seconds 1 --out /tmp
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("branching", "verify", "ncsym", "cli")
METRICS = ("lat_p50_ms", "lat_p90_ms", "peak_rss_mb", "setup_s", "total_s")
ORDER = "parent first on odd seeds, change first on even seeds"


def run_once(tree, workload, seed, seconds):
    """One benchmark run in ``tree``: its result line, flattened to the
    fields of a BENCH file's run, values rounded to 6 places."""
    command = [sys.executable, "benchmark/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s in %s exited %d: %s"
                           % (" ".join(command[1:]), tree, proc.returncode, proc.stderr.strip()))
    result = json.loads(lines[-1])
    run = {key: result[key] for key in ("attempted", "correct", "failed")}
    run.update((name, round(metric["value"], 6)) for name, metric in result["metrics"].items())
    run["seed"] = seed
    return run


def summary(parent, change):
    """Per metric, over runs paired by seed: medians, the parent's
    interquartile range (exclusive quartiles) and the pairs the change
    won."""
    out = {}
    for name in METRICS:
        pairs = [(p[name], c[name]) for p, c in zip(parent, change) if name in p and name in c]
        if not pairs:
            continue
        before = [b for b, _ in pairs]
        q1, _, q3 = statistics.quantiles(before, n=4) if len(before) > 1 else (before[0],) * 3
        out[name] = {
            "change_better_pairs": sum(c < b for b, c in pairs),
            "change_median": round(statistics.median(c for _, c in pairs), 6),
            "pairs": len(pairs),
            "parent_iqr": round(q3 - q1, 6),
            "parent_median": round(statistics.median(before), 6),
        }
    return out


def host():
    """The host, as the BENCH files name it."""
    text = "%s-core %s, %s %s" % (os.cpu_count(), platform.machine().replace("_", "-"),
                                  platform.python_implementation(), platform.python_version())
    if os.environ.get("PYTHONDONTWRITEBYTECODE"):
        text += (", PYTHONDONTWRITEBYTECODE=1 (each child process compiles what it"
                 " imports)")
    return text + "; times are the harness's host-speed-corrected seconds"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, type=Path, help="the parent source tree")
    parser.add_argument("--change", required=True, type=Path, help="the changed source tree")
    parser.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--what", default="", help="what the two trees differ in")
    parser.add_argument("--out", type=Path, default=Path("."), help="the directory to write to")
    args = parser.parse_args(argv)
    bad = []
    workloads = {}
    for workload in args.workloads:
        runs = {"parent": [], "change": []}
        for seed in args.seeds:
            sides = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in sides:
                try:
                    run = run_once(getattr(args, side), workload, seed, args.seconds)
                except RuntimeError as exc:
                    print("bench_pairs: %s" % exc, file=sys.stderr)
                    return 2
                runs[side].append(run)
                print("%s %s seed %d: %s" % (workload, side, seed, json.dumps(run, sort_keys=True)),
                      flush=True)
                if not run["correct"] or run["failed"]:
                    bad.append("%s %s seed %d" % (workload, side, seed))
        workloads[workload] = {"runs": runs, "summary": summary(runs["parent"], runs["change"])}
    what = "benchmark/run.py --trace 0, %g-s runs, seeds %s" % (
        args.seconds, " ".join(map(str, args.seeds)))
    document = {"host": host(), "order": {"all": ORDER},
                "what": "%s: %s" % (what, args.what) if args.what else what,
                "workloads": workloads}
    path = args.out / ("BENCH_%s.json" % args.label)
    path.write_text(json.dumps(document, indent=1, sort_keys=True))
    print("wrote %s" % path)
    if bad:
        print("bench_pairs: not correct or with failures: %s" % "; ".join(bad), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
