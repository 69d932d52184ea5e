"""``cli``: one-shot ``python -m superchar.cli`` processes, one at a time.

The requests that compute are small (restrict at n <= 5; tensor, sind and
star at n <= 4; NCSym products of degree <= 4), so that the program's own
work, which the seed varies, stays a small part of each process's time.

A round is 17 distinct short requests (count, value, restrict, tensor,
sind, star, ncsym product) under a fresh ``--cache-dir``, so each computes
and writes its entry; then 4 of them again, which the result cache serves;
then three invalid requests that must be refused with exit 2.  Interpreter
start-up, import, argument parsing and the cache dominate; this is the only
workload that measures them.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys

import checks
import inputs
from harness import OUT_DIR, REPO_ROOT, Workload, child_env, rng

SLOTS = (["count"] * 2 + ["value-identity", "value", "value"] + ["restrict"] * 3
         + ["tensor"] * 2 + ["sind"] * 2 + ["star"] * 2 + ["ncsym"] * 3)
# Slots asked a second time in the same round: served from the cache.
REPEATS = (0, 5, 10, 16)
# Each must exit 2; today each exits 0 and counts as a failed request.
INVALID = (
    # label 2 is 0 at p = 2
    ["value", "--char", "n=2; 1-2:2", "--at", "1-2:1", "--q", "2"],
    # mu is not compatible with the index
    ["sind", "--char", "n=3; 1-3:1", "--subgroup", "{1|2,3}", "--q", "2"],
    # --n conflicts with the character's own n
    ["restrict", "--char", "n=3; 1-3:1", "--n", "5", "--subgroup", "{1|2,3}", "--q", "2"],
)
WARMUP_SLOTS = ("count", "restrict")
PROCESS_TIMEOUT_S = 120


def _make(kind, rnd):
    item = {"kind": kind}
    if kind == "count":
        n, q = rnd.randint(4, 9), rnd.choice((2, 3, 5))
        item.update(n=n, p=q, argv=["count", "--n", str(n), "--q", str(q)])
        return item
    p = 2 if kind in ("sind", "star", "ncsym") else rnd.choice((2, 3))
    item["p"] = p
    if kind.startswith("value"):
        n = rnd.randint(3, 6)
        arcs = inputs.labeled(range(1, n + 1), p, rnd)
        at = () if kind == "value-identity" else inputs.labeled(range(1, n + 1), p, rnd)
        item.update(n=n, arcs=arcs, argv=["value", "--char", inputs.partition_text(n, arcs),
                                          "--at", inputs.partition_text(n, at), "--q", str(p)])
    elif kind == "restrict":
        n = rnd.randint(4, 5)
        arcs = inputs.labeled(range(1, n + 1), p, rnd)
        parts = inputs.set_partition(range(1, n + 1), rnd, rnd.randint(2, n - 1))
        item.update(n=n, arcs=arcs, parts=parts,
                    argv=["restrict", "--char", inputs.partition_text(n, arcs),
                          "--subgroup", inputs.index_text(parts), "--q", str(p)])
    elif kind == "tensor":
        n = rnd.randint(3, 4)
        factors = (inputs.labeled(range(1, n + 1), p, rnd), inputs.labeled(range(1, n + 1), p, rnd))
        item.update(n=n, factors=factors, argv=["tensor", "--char", inputs.partition_text(n, factors[0]),
                                                "--char", inputs.partition_text(n, factors[1]),
                                                "--q", str(p)])
    elif kind == "sind":
        n = 4
        parts = inputs.two_blocks(n, rnd)
        arcs = inputs.compatible(parts, p, rnd)
        item.update(n=n, arcs=arcs, parts=parts,
                    argv=["sind", "--char", inputs.partition_text(n, arcs),
                          "--subgroup", inputs.index_text(parts), "--q", str(p)])
    elif kind == "star":
        n = rnd.randint(3, 4)
        m = rnd.randint(1, n - 1)
        left = inputs.labeled(range(1, m + 1), p, rnd)
        right = inputs.labeled(range(1, n - m + 1), p, rnd)
        parts = inputs.two_blocks(n, rnd, first=m)
        item.update(n=n, left=left, right=right, parts=parts,
                    argv=["star", "--left", inputs.partition_text(m, left),
                          "--right", inputs.partition_text(n - m, right),
                          "--blocks", inputs.index_text(parts), "--q", str(p)])
    else:
        total = rnd.randint(3, 4)
        m = rnd.randint(1, total - 1)
        A = inputs.set_partition(range(1, m + 1), rnd)
        B = inputs.set_partition(range(1, total - m + 1), rnd)
        K = inputs.two_blocks(total, rnd, first=m)
        basis = rnd.choice("mp")
        item.update(basis=basis, A=A, B=B, K=K,
                    argv=["ncsym", "--op", "product", "--left", inputs.index_text(A),
                          "--right", inputs.index_text(B), "--blocks", inputs.index_text(K),
                          "--basis", basis, "--q", str(p)])
    return item


def _distinct(kinds, seed, tag):
    """One request per slot, redrawn until no two slots ask the same thing,
    so that only the planned repeats are cache hits."""
    out, seen = [], set()
    for k, kind in enumerate(kinds):
        rnd = rng(seed, "%s/%d" % (tag, k))
        item = _make(kind, rnd)
        while tuple(item["argv"]) in seen:
            item = _make(kind, rnd)
        seen.add(tuple(item["argv"]))
        out.append(dict(item, slot=k, cached=True))
    return out


class CLI(Workload):
    name = "cli"
    modules = ("cli",)
    # A child process spends part of its time in the operating system
    # (fork, exec, reading modules), which the in-process probe tracks
    # only on average: readings over a second either side gave run-to-run
    # spreads of 4 to 6%, against 10 to 13% with the nearest readings alone.
    probe_window_s = 1.0

    def __init__(self):
        self.cache_dir = None
        self.first_stdout = {}

    def generate(self, seed):
        items = _distinct(SLOTS, seed, "cli")
        items += [dict(items[k], repeat=True) for k in REPEATS]
        items += [{"kind": "invalid", "argv": argv, "cached": False} for argv in INVALID]
        return items

    def warmup(self, seed):
        return _distinct(WARMUP_SLOTS, seed, "cli-warm")

    def prepare(self, lib, plain):
        return plain

    def begin_round(self, round_no):
        self.cache_dir = OUT_DIR / ("cli-cache-%d-%d" % (os.getpid(), round_no))
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        self.first_stdout = {}

    def end_round(self):
        shutil.rmtree(self.cache_dir, ignore_errors=True)

    def _entries(self):
        try:
            return sum(1 for f in os.listdir(self.cache_dir) if f.endswith(".json"))
        except FileNotFoundError:
            return 0

    def execute(self, lib, item):
        """(exit code, stdout, stderr, served from the cache, stdout of the
        request this one repeats)."""
        argv = list(item["argv"])
        if item["cached"]:
            argv += ["--cache-dir", str(self.cache_dir)]
        before = self._entries()
        proc = subprocess.run([sys.executable, "-m", "superchar.cli"] + argv,
                              capture_output=True, text=True, env=child_env(),
                              cwd=REPO_ROOT, timeout=PROCESS_TIMEOUT_S)
        hit = item["cached"] and self._entries() == before
        original = self.first_stdout.get(item.get("slot")) if item.get("repeat") else None
        if item["cached"] and not item.get("repeat"):
            self.first_stdout[item["slot"]] = proc.stdout
        return proc.returncode, proc.stdout, proc.stderr, hit, original

    def outcome(self, item, output):
        code = output[0]
        if item["kind"] == "invalid":
            return None if code == 2 else "invalid request accepted with exit %d" % code
        return None if code == 0 else "exit %d: %s" % (code, output[2].strip()[:200])

    def keep(self, output):
        return output[3]  # served from the cache

    def check(self, item, output):
        if item["kind"] == "invalid":
            return None
        if item.get("repeat") and output[1] != output[4]:
            return "cached output differs from the computed one"
        return check_cli(item, output[1])

    def describe(self, item):
        return "superchar " + " ".join(item["argv"])


def check_cli(item, stdout):
    kind = item["kind"]
    text = stdout.strip()
    if kind == "count":
        return checks.check_count(text, item["n"], item["p"])
    if kind.startswith("value"):
        return checks.check_value(text, item["p"], item["n"], item["arcs"], kind == "value-identity")
    if kind == "ncsym":
        A = [frozenset(b) for b in item["A"]]
        B = [frozenset(b) for b in item["B"]]
        return checks.check_ncsym_product(text, item["basis"], A, B, item["K"][0], item["K"][1])
    return checks.check_rule(item, text)  # restrict, tensor, sind, star
