"""The part every workload shares: locating the program, timed set-up,
whole rounds of requests checked after each round, and the corrected
latency statistics.

A workload is an object with

* ``name`` and ``modules`` (the package modules its set-up imports);
* ``generate(seed)``: plain request data, from the benchmark's own code;
* ``prepare(lib, plain)``: program inputs built from that data (set-up);
* ``execute(lib, item)``: one request, the only code that is timed;
* ``outcome(item, output)``: None when the request worked, else a reason
  it counts as failed;
* ``check(item, output)``: None when the output is correct, else a reason;
* ``keep(output)``: what of a checked output to keep (default nothing);
* ``begin_round(round_no)`` and ``end_round()``: per-round state (the CLI
  result cache lives for one round).
"""

from __future__ import annotations

import importlib
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
OUT_DIR = REPO_ROOT / ".bench_out"

# Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 3
# The warm-up pass uses requests drawn with this offset from the run's seed.
WARMUP_SEED_OFFSET = 1_000_003


class Workload:
    """Defaults for the optional parts of the workload interface."""

    name = ""
    modules = ()
    # Probe readings this far either side of an interval enter its
    # correction; 0 keeps only the nearest reading on each side.
    probe_window_s = 0.0

    def begin_round(self, round_no):
        pass

    def end_round(self):
        pass

    def outcome(self, item, output):
        return None

    def keep(self, output):
        """The part of a checked output later metrics need."""
        return None

    def describe(self, item):
        return " ".join("%s=%s" % kv for kv in sorted(item.items()) if kv[0] != "obj")


class SetupError(RuntimeError):
    """The program could not be found or imported from this checkout."""


def locate_package():
    """Put the checkout's ``src`` first on the import path; refuse to run
    against anything but the package source next to the benchmark."""
    if not (SRC / "superchar" / "__init__.py").is_file():
        raise SetupError("no program source at %s" % (SRC / "superchar"))
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))


def child_env():
    """Environment for child interpreters that run the package from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def fresh_import(names):
    """Drop every loaded package module and import ``names`` anew, so that
    each set-up pays for the import and starts with empty caches."""
    for mod in [m for m in sys.modules if m == "superchar" or m.startswith("superchar.")]:
        del sys.modules[mod]
    lib = {name: importlib.import_module("superchar." + name) for name in names}
    origin = Path(sys.modules["superchar"].__file__).resolve().parent
    if origin != (SRC / "superchar").resolve():
        raise SetupError("imported the package from %s, not from the checkout" % origin)
    return lib


def loaded_modules():
    return {name[len("superchar."):]: mod for name, mod in sys.modules.items()
            if name.startswith("superchar.")}


class Timeline:
    """Work intervals interleaved with probe readings."""

    def __init__(self, clock):
        self.clock = clock
        self.spans = []

    def run(self, fn, *args):
        self.clock.maybe_read()
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.spans.append((t0, time.perf_counter()))

    def raw(self):
        return sum(t1 - t0 for t0, t1 in self.spans)

    def corrected(self):
        return sum(self.clock.corrected(t0, t1) for t0, t1 in self.spans)


def timed_setup(workload, seed, clock):
    """One set-up: import, input generation and a warm-up pass over
    requests drawn with a different seed.  Returns (lib, items, timeline)."""
    tl = Timeline(clock)
    lib = tl.run(fresh_import, workload.modules)
    items = tl.run(lambda: workload.prepare(lib, workload.generate(seed)))
    warm = tl.run(lambda: workload.prepare(lib, workload.warmup(seed + WARMUP_SEED_OFFSET)))
    workload.begin_round(-1)
    try:
        for item in warm:
            tl.run(workload.execute, lib, item)
    finally:
        workload.end_round()
    clock.read()
    return lib, items, tl


class Record:
    """One request of one round.  ``failed`` is the reason it counts as
    failed, set when the round is checked."""

    __slots__ = ("item", "output", "error", "t0", "t1", "failed")

    def __init__(self, item, output, error, t0, t1):
        self.item, self.output, self.error, self.t0, self.t1 = item, output, error, t0, t1
        self.failed = None


def run_round(workload, lib, items, clock, round_no):
    """Execute every request once, probing the host between requests."""
    records = []
    workload.begin_round(round_no)
    try:
        for item in items:
            clock.maybe_read()
            t0 = time.perf_counter()
            try:
                out, err = workload.execute(lib, item), None
            except Exception as exc:  # a fault in the program counts as a failed request
                out, err = None, "%s: %s" % (type(exc).__name__, exc)
            t1 = time.perf_counter()
            records.append(Record(item, out, err, t0, t1))
    finally:
        workload.end_round()
    clock.read()
    return records


def check_round(workload, records):
    """Check every output of a round, then drop the outputs the workload
    does not keep, so memory does not grow with the number of rounds.
    Returns the check failures; a failed request is counted, not checked."""
    problems = []
    for rec in records:
        rec.failed = rec.error or workload.outcome(rec.item, rec.output)
        if not rec.failed:
            bad = workload.check(rec.item, rec.output)
            if bad:
                problems.append("%s: %s" % (workload.describe(rec.item), bad))
        rec.output = workload.keep(rec.output)
    return problems


def run_rounds(workload, lib, items, clock, seconds, hooks=None):
    """Whole rounds until ``seconds`` have passed (at least one round), each
    checked after it ends, outside the timed intervals.  Returns (rounds,
    check failures)."""
    deadline = time.perf_counter() + seconds
    rounds, problems = [], []
    while not rounds or time.perf_counter() < deadline:
        if hooks:
            hooks.begin_round(len(rounds))
        rounds.append(run_round(workload, lib, items, clock, len(rounds)))
        if hooks:
            hooks.end_round(rounds[-1])
        problems += check_round(workload, rounds[-1])
    return rounds, problems


def quantile(values, k, n):
    """The k-th of the n-quantiles (statistics.quantiles, inclusive)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=n, method="inclusive")[k - 1]


def latency_stats(rounds, clock):
    """Per-round corrected totals, and per request slot the median of its
    corrected latencies over the rounds in which it did not fail; the same
    in raw seconds beside them.  A slot's median over rounds filters a
    single reading that a burst on the host inflated, which a quantile
    taken over every reading would keep."""
    totals, raw_totals = [], []
    per_slot = [([], []) for _ in rounds[0]]
    for records in rounds:
        tot = raw = 0.0
        for rec, (cor_slot, raw_slot) in zip(records, per_slot):
            c = clock.corrected(rec.t0, rec.t1)
            r = rec.t1 - rec.t0
            tot += c
            raw += r
            if not rec.failed:
                cor_slot.append(c)
                raw_slot.append(r)
        totals.append(tot)
        raw_totals.append(raw)
    lat = [statistics.median(c) for c, _ in per_slot if c]
    raw_lat = [statistics.median(r) for _, r in per_slot if r]
    return totals, raw_totals, lat, raw_lat


def peak_rss_mb(children=False):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def rng(seed, salt):
    """An independent random stream per request slot."""
    return random.Random("%d/%s" % (seed, salt))
