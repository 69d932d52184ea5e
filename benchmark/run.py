#!/usr/bin/env python3
"""End-to-end benchmark of the superchar package.

    python3 benchmark/run.py --workload branching --seed 1 --seconds 15 --trace 0
    python3 benchmark/run.py --workload all          # every workload, one process each
    python3 benchmark/run.py --write-benchmark-json  # regenerate BENCHMARK.json

Run from a checkout: the package is imported from ``src`` beside this
directory.  Each run sets up ``SETUP_REPEATS`` times, then repeats whole
rounds of the workload's seeded requests for ``--seconds`` seconds, checks
every output with the benchmark's own computations, and prints every metric
with its unit.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, timed with tracing off; with ``--trace 1``
they are the per-layer ones, from a run with the layers wrapped.

All times are corrected for host speed (see hostspeed.py) and reported as
seconds at the reference speed; raw seconds and probe readings are printed
beside them for reference only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import statistics
import subprocess
import sys
import time

import harness
import tracing
import wl_branching
import wl_cli
import wl_ncsym
import wl_verify
from hostspeed import HostClock

RUN_SECONDS = 20

WORKLOADS = {
    "branching": (wl_branching.Branching,
                  "in-process restrict, tensor, straighten, superinduce and star requests; "
                  "forward rules set the median, superinduction the tail and the total"),
    "verify": (wl_verify.Verify,
               "the six verify suites through cli.main at q=2 (n<=4) and q=3 (n<=3); "
               "the only workload where the brute-force oracle does most of the work"),
    "ncsym": (wl_ncsym.NCSym,
              "K-shuffle products in the m and p bases at degree 4 to 7 plus basis changes; "
              "the word-expansion product dominates, with no ring and no oracle"),
    "cli": (wl_cli.CLI,
            "one-shot superchar processes with result-cache hits and misses and three "
            "invalid requests; the only workload measuring start-up, import and the cache"),
}

# Bounds: about three times the widest run-to-run spread (IQR/median over
# 10 seeds) of any workload, which is 0.06 to 0.08 for the times and 0.02
# for peak memory.  Set-up gets the largest bound.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "total_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "lat_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "lat_p90_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def benchmark_spec():
    return {
        "command": ["python3", "benchmark/run.py"],
        "paths": ["benchmark"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, (_, why) in WORKLOADS.items()],
        "end_to_end": END_TO_END,
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, (unit, better) in tracing.PER_LAYER.items()],
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def set_up(workload, seed, clock):
    """SETUP_REPEATS set-ups; the last one's program and inputs are used."""
    timelines = []
    for _ in range(harness.SETUP_REPEATS):
        lib, items, tl = harness.timed_setup(workload, seed, clock)
        timelines.append(tl)
    return lib, items, timelines


def end_to_end(workload, rounds, timelines, clock):
    totals, raw_totals, lat, raw_lat = harness.latency_stats(rounds, clock)
    setup = [tl.corrected() for tl in timelines]
    lat = lat or [0.0]
    raw_lat = raw_lat or [0.0]
    rss = harness.peak_rss_mb(children=isinstance(workload, wl_cli.CLI))
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "total_s": metric(statistics.median(totals), "s"),
        "lat_p50_ms": metric(statistics.median(lat) * 1000, "ms"),
        "lat_p90_ms": metric(harness.quantile(lat, 9, 10) * 1000, "ms"),
        "peak_rss_mb": metric(rss, "MB"),
    }
    raw = {
        "setup_s": statistics.median(tl.raw() for tl in timelines),
        "total_s": statistics.median(raw_totals),
        "lat_p50_ms": statistics.median(raw_lat) * 1000,
        "lat_p90_ms": harness.quantile(raw_lat, 9, 10) * 1000,
    }
    return metrics, raw


class InProcessCLI(wl_cli.CLI):
    """The cli workload's requests through ``cli.main`` in this process."""

    def execute(self, lib, item):
        argv = list(item["argv"])
        if item["cached"]:
            argv += ["--cache-dir", str(self.cache_dir)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = lib["cli"].main(argv)
        return code, out.getvalue(), err.getvalue(), False, None

    def check(self, item, output):
        return None if item["kind"] == "invalid" else wl_cli.check_cli(item, output[1])


IMPORT_PROBE = ("import time; t = time.perf_counter(); import superchar.cli; "
                "print(time.perf_counter() - t)")


def import_ms(clock, repeats=5):
    """Median time a fresh interpreter takes to import superchar.cli."""
    readings = []
    for _ in range(repeats):
        clock.maybe_read()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True,
                              text=True, env=harness.child_env(), check=True, timeout=120)
        readings.append((float(proc.stdout), t0, time.perf_counter()))
    clock.read()
    return statistics.median(v / clock.slowdown(t0, t1) for v, t0, t1 in readings) * 1000


class RoundTrace:
    """Hooks that give each round its own counters and span seconds."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.per_round = []

    def begin_round(self, round_no):
        self.tracer.begin_round()

    def end_round(self, records):
        counts, seconds = self.tracer.end_round()
        self.per_round.append((counts, seconds, records[0].t0, records[-1].t1))


def traced_rounds(workload, lib, items, clock, seconds):
    """Rounds with every layer wrapped.  Returns (rounds, check failures,
    per-layer metrics of each round, spans of the first round)."""
    tracer = tracing.Tracer()
    tracer.install(harness.loaded_modules())
    workload.execute = tracer.span("request", workload.execute)
    hooks = RoundTrace(tracer)
    try:
        rounds, problems = harness.run_rounds(workload, lib, items, clock, seconds, hooks)
    finally:
        tracer.uninstall()
        del workload.execute
    per_round = []
    for counts, secs, t0, t1 in hooks.per_round:
        slow = clock.slowdown(t0, t1)
        per_round.append(tracing.layer_metrics(counts, {k: v / slow for k, v in secs.items()}))
    return rounds, problems, per_round, tracer.spans


def combine_rounds(per_round):
    """Counts from the first round (they repeat exactly for a seed); times as
    the median over rounds."""
    out = dict(per_round[0])
    for name, (unit, _) in tracing.PER_LAYER.items():
        if unit == "s":
            out[name] = statistics.median(r[name] for r in per_round)
    return out


def cli_layer_metrics(lib, items, rounds, clock):
    """The cli.* metrics, and the other layers seen through cli.main.
    Returns (metrics, check failures of the in-process passes, spans)."""
    hits, misses, hit_lat, miss_lat, proc_lat = 0, 0, [], [], []
    for k, records in enumerate(rounds):
        for rec in records:
            if rec.failed:
                continue
            lat = clock.corrected(rec.t0, rec.t1) * 1000
            proc_lat.append(lat)
            if rec.item["cached"]:
                (hit_lat if rec.output else miss_lat).append(lat)
                if k == 0:
                    hits += rec.output
                    misses += not rec.output
    inproc = InProcessCLI()
    main_records = harness.run_round(inproc, lib, items, clock, 10_000)
    problems = harness.check_round(inproc, main_records)
    main_lat = [clock.corrected(r.t0, r.t1) * 1000 for r in main_records if not r.failed]
    _, traced_problems, per_round, spans = traced_rounds(inproc, lib, items, clock, 0)
    out = combine_rounds(per_round)
    out.update({
        "cli.import_ms": import_ms(clock),
        "cli.main_ms": statistics.median(main_lat),
        "cli.process_ms": statistics.median(proc_lat),
        "cli.cache_hit_ms": statistics.median(hit_lat) if hit_lat else 0,
        "cli.cache_miss_ms": statistics.median(miss_lat) if miss_lat else 0,
        "cli.cache_hits": hits,
        "cli.cache_misses": misses,
    })
    return out, problems + traced_problems, spans


def write_trace(name, seed, spans, layer):
    """Spans of the first traced round, self times derived from them."""
    harness.OUT_DIR.mkdir(exist_ok=True)
    base = spans[0][1] if spans else 0.0
    path = harness.OUT_DIR / ("trace-%s-seed%d.json" % (name, seed))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": name, "seed": seed,
            "span_fields": ["name", "start_s", "end_s", "parent"],
            "spans": [[n, t0 - base, t1 - base, parent] for n, t0, t1, parent in spans],
            "self_s": tracing.self_times(spans),
            "per_layer": layer,
        }, fh)
    return path


def measure(name, seed, seconds, trace):
    """One run; returns (result object, lines to print before it)."""
    workload = WORKLOADS[name][0]()
    clock = HostClock(window=workload.probe_window_s)
    clock.read()
    lib, items, timelines = set_up(workload, seed, clock)
    spans = []
    if trace:
        rounds, problems, per_round, spans = traced_rounds(workload, lib, items, clock, seconds)
        layer = combine_rounds(per_round)
        totals = harness.latency_stats(rounds, clock)[0]
        if isinstance(workload, wl_cli.CLI):
            layer, more, spans = cli_layer_metrics(lib, items, rounds, clock)
            problems += more
        layer["traced.total_s"] = statistics.median(totals)
        metrics = {k: metric(layer[k], unit) for k, (unit, _) in tracing.PER_LAYER.items()}
    else:
        rounds, problems = harness.run_rounds(workload, lib, items, clock, seconds)
        metrics, raw = end_to_end(workload, rounds, timelines, clock)
    attempted = sum(len(records) for records in rounds)
    failed = sum(1 for records in rounds for rec in records if rec.failed)

    lines = ["workload %s, seed %d: %d rounds of %d requests, %d attempted, %d failed, %s"
             % (name, seed, len(rounds), len(items), attempted, failed,
                "outputs correct" if not problems else "%d WRONG outputs" % len(problems))]
    lines += ["  wrong: " + p for p in problems[:10]]
    lines += ["  %-32s %14.6f %s" % (k, v["value"], v["unit"]) for k, v in metrics.items()]
    reference = {"probe": clock.summary(), "rounds": len(rounds)}
    if trace:
        path = write_trace(name, seed, spans, {k: v["value"] for k, v in metrics.items()})
        lines.append("  trace written to %s" % path.relative_to(harness.REPO_ROOT))
        top = sorted(tracing.self_times(spans).items(), key=lambda kv: -kv[1])[:8]
        reference["self_s_first_round_raw"] = dict(top)
    else:
        reference["raw"] = raw
        lines += ["  raw %-28s %14.6f" % kv for kv in raw.items()]
    lines.append("reference " + json.dumps(reference, sort_keys=True))
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def run_all(args):
    """Every workload in its own process (set-up includes a cold import)."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=900)
        sys.stdout.write("".join(proc.stdout.splitlines(True)[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode not in (0, 1):
            raise harness.SetupError("workload %s exited with %d" % (name, proc.returncode))
        result = json.loads(proc.stdout.splitlines()[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            merged["metrics"]["%s.%s" % (name, k)] = v
    return merged


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="write BENCHMARK.json at the repository root and exit")
    args = parser.parse_args(argv)

    if args.write_benchmark_json:
        with open(harness.REPO_ROOT / "BENCHMARK.json", "w", encoding="utf-8") as fh:
            json.dump(benchmark_spec(), fh, indent=2)
            fh.write("\n")
        return 0
    try:
        harness.locate_package()
        if args.workload == "all":
            result = run_all(args)
        else:
            result, lines = measure(args.workload, args.seed, args.seconds, args.trace)
            print("\n".join(lines))
    except harness.SetupError as exc:
        print("benchmark: %s" % exc, file=sys.stderr)
        return 2
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
