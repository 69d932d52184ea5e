#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 benchmark/spread.py --workload branching --seeds 1-10 [--seconds 15]

Runs the benchmark once per seed, one process at a time, and prints for
every metric the median, the quartiles (statistics.quantiles, n=4) and the
spread: the distance between the quartiles as a share of the median,
beside the same figures for the raw (uncorrected) seconds.  The runs and
the summary are also written to .bench_out/spread-<workload>-<seeds>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE.parent / ".bench_out"


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def one_run(workload, seed, seconds):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          capture_output=True, text=True, cwd=HERE.parent, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit("run failed (%d): %s" % (proc.returncode, proc.stderr[-2000:]))
    result = json.loads(lines[-1])
    reference = next(json.loads(l[len("reference "):]) for l in lines if l.startswith("reference "))
    return result, reference


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=None)
    args = parser.parse_args(argv)
    if args.seconds is None:
        with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
            args.seconds = json.load(fh)["run_seconds"]

    runs = []
    for seed in seeds_of(args.seeds):
        result, reference = one_run(args.workload, seed, args.seconds)
        runs.append({"seed": seed, "result": result, "reference": reference})
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.4f" % (k, v["value"]) for k, v in sorted(result["metrics"].items()))), flush=True)

    summary = {"failed_share": sorted({r["result"]["failed"] / r["result"]["attempted"] for r in runs}),
               "correct": all(r["result"]["correct"] for r in runs), "metrics": {}, "raw": {}}
    for name in runs[0]["result"]["metrics"]:
        summary["metrics"][name] = summarize([r["result"]["metrics"][name]["value"] for r in runs])
    for name in runs[0]["reference"]["raw"]:
        summary["raw"][name] = summarize([r["reference"]["raw"][name] for r in runs])
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / ("spread-%s-%s.json" % (args.workload, args.seeds)), "w", encoding="utf-8") as fh:
        json.dump({"runs": runs, "summary": summary}, fh, indent=1)

    print("%s, seeds %s, correct=%s, failed share %s" % (
        args.workload, args.seeds, summary["correct"], summary["failed_share"]))
    print("%-14s %12s %12s %12s %8s %12s" % ("metric", "median", "q1", "q3", "spread", "raw spread"))
    for name, s in summary["metrics"].items():
        raw = summary["raw"].get(name)
        print("%-14s %12.4f %12.4f %12.4f %8.3f %12s" % (
            name, s["median"], s["q1"], s["q3"], s["spread"],
            "%.3f" % raw["spread"] if raw else "-"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
