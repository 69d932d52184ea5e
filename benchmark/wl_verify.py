"""``verify``: the six verification suites called in-process through
``cli.main``.

All six suites run at q = 2 with every ``--max-n`` from 2 to 4, and the
five that exist at q = 3 (the characteristic map lives at q = 2 only) with
``--max-n`` 2 and 3.  The brute-force oracle tables and double sums
dominate, with the symbolic engine on the other side of every check; this
is the only workload where the oracle does most of the work.  The run's
seed reaches the tensor suite's commutativity sample.
"""

from __future__ import annotations

import contextlib
import io
import re

from harness import Workload

SUITES = ("charmap", "orthogonality", "restriction", "superinduction", "tensor", "words")
SLOTS = (
    [(suite, 2, n) for n in (2, 3, 4) for suite in SUITES]
    + [(suite, 3, n) for n in (2, 3) for suite in SUITES if suite != "charmap"]
)
WARMUP_SLOTS = [(suite, 2, 2) for suite in SUITES]


class Verify(Workload):
    name = "verify"
    modules = ("cli",)

    def _items(self, slots, seed):
        return [{"suite": s, "q": q, "max_n": n,
                 "argv": ["verify", "--suite", s, "--q", str(q), "--max-n", str(n),
                          "--seed", str(seed)]}
                for s, q, n in slots]

    def generate(self, seed):
        return self._items(SLOTS, seed)

    def warmup(self, seed):
        return self._items(WARMUP_SLOTS, seed)

    def prepare(self, lib, plain):
        return plain

    def execute(self, lib, item):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = lib["cli"].main(item["argv"])
        return code, buf.getvalue()

    def outcome(self, item, output):
        code, _ = output
        return None if code == 0 else "exit %d" % code

    def check(self, item, output):
        return check_verify(item["suite"], output[1])

    def describe(self, item):
        return " ".join(item["argv"])


def check_verify(suite, text):
    """The suite reports exactly one ``<suite>: ok (...)`` line."""
    lines = text.strip().splitlines()
    if len(lines) != 1 or not re.fullmatch(r"%s: ok \(.+\)" % re.escape(suite), lines[0]):
        return "suite did not report ok: %r" % text.strip()[:200]
    return None
