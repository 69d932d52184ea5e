"""Tests of the benchmark itself.

    python3 -m unittest discover -s benchmark -p "test_*.py"

Each checker must accept a correct result and reject a deliberately
corrupted one; the host-speed correction must scale a known interval.
"""

from __future__ import annotations

import json
import unittest
from fractions import Fraction

import checks
import harness
import inputs
import run
import tracing
import wl_branching
import wl_cli
import wl_ncsym
import wl_verify
from hostspeed import HostClock

# restrict --char "n=5; 1-5:1" --subgroup "[2,5]" --q 2 (degrees 1 + 4 + 2 + 1 = 8)
RESTRICT_TEXT = ("(1)*chi[n=5] + (1)*chi[n=5; 2-5:1] + (1)*chi[n=5; 3-5:1] "
                 "+ (1)*chi[n=5; 4-5:1]")
RESTRICT_ITEM = {"kind": "restrict", "n": 5, "p": 2, "arcs": ((1, 5, 1),),
                 "parts": [[2, 3, 4, 5], [1]]}


def ncsym_text(basis, coeffs):
    """Render an element the way the program does, to build test inputs."""
    def part(blocks):
        return "{" + "|".join(",".join(map(str, sorted(b))) for b in sorted(blocks, key=min)) + "}"
    return " + ".join("(%s)*%s[%s]" % (c, basis, part(k)) for k, c in coeffs.items())


class FakeTime:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class HostClockTest(unittest.TestCase):
    def make(self, probe_seconds):
        now = FakeTime()

        def probe():
            now.t += probe_seconds

        return HostClock(probe=probe, nominal=0.002, every=0.05, now=now), now

    def test_slow_host_halves_interval(self):
        clock, now = self.make(0.004)  # probe takes twice its nominal time
        clock.read()
        t0 = now.t
        now.t += 1.0
        t1 = now.t
        clock.read()
        self.assertAlmostEqual(clock.slowdown(t0, t1), 2.0)
        self.assertAlmostEqual(clock.corrected(t0, t1), 0.5)

    def test_fast_host_stretches_interval(self):
        clock, now = self.make(0.001)
        clock.read()
        t0 = now.t
        now.t += 0.3
        t1 = now.t
        clock.read()
        self.assertAlmostEqual(clock.corrected(t0, t1), 0.6)

    def test_uses_readings_near_the_interval(self):
        clock, now = self.make(0.002)
        clock.read()                       # speed 1 early on
        clock.probe = lambda: setattr(now, "t", now.t + 0.006)
        now.t += 10.0
        clock.read()                       # speed 3 around the interval
        t0 = now.t
        now.t += 0.03
        t1 = now.t
        clock.read()
        self.assertAlmostEqual(clock.corrected(t0, t1), 0.01)

    def test_maybe_read_waits_for_the_interval(self):
        clock, now = self.make(0.002)
        clock.maybe_read()
        clock.maybe_read()
        self.assertEqual(len(clock.times), 1)
        now.t += 0.06
        clock.maybe_read()
        self.assertEqual(len(clock.times), 2)


class ComboCheckTest(unittest.TestCase):
    def test_accepts_known_restriction(self):
        self.assertIsNone(checks.check_rule(RESTRICT_ITEM, RESTRICT_TEXT))

    def test_rejects_bumped_coefficient(self):
        bad = RESTRICT_TEXT.replace("(1)*chi[n=5; 3-5:1]", "(2)*chi[n=5; 3-5:1]")
        self.assertIn("degree", checks.check_rule(RESTRICT_ITEM, bad))

    def test_rejects_negative_coefficient(self):
        bad = RESTRICT_TEXT.replace("(1)*chi[n=5]", "(-1)*chi[n=5]")
        self.assertIn("not positive", checks.check_rule(RESTRICT_ITEM, bad))

    def test_rejects_dropped_term_and_garbage(self):
        dropped = RESTRICT_TEXT.rsplit(" + ", 1)[0]
        self.assertIsNotNone(checks.check_rule(RESTRICT_ITEM, dropped))
        self.assertIsNotNone(checks.check_rule(RESTRICT_ITEM, "(1)*chi[n=5"))

    def test_laurent_coefficients_evaluate_at_p(self):
        self.assertEqual(checks.eval_laurent("2*q^-1 - q + 3", 2), Fraction(2))
        self.assertEqual(checks.eval_laurent("3/2", 3), Fraction(3, 2))

    def test_degree_counts_only_the_arcs_own_part(self):
        # arc 1-4 inside the part {1,2,4}: only vertex 2 is under it
        self.assertEqual(checks.degree_exponent(((1, 4, 1),), [[1, 2, 4], [3]]), 1)

    def test_superinduce_degree_scales_by_the_index(self):
        # U_3 has 3 positions, U_{1|2,3} one: the trivial character lifts to degree 4 at p=2
        self.assertEqual(checks.superinduce_degree(3, (), [[1], [2, 3]], 2), 4)


class LiveBranchingTest(unittest.TestCase):
    """The checkers accept the program's real answers and reject them
    once corrupted."""

    @classmethod
    def setUpClass(cls):
        harness.locate_package()
        cls.wl = wl_branching.Branching()
        cls.lib = harness.fresh_import(cls.wl.modules)

    def test_every_kind_passes_then_fails_when_bumped(self):
        items = self.wl.prepare(self.lib, self.wl.warmup(11))
        for item in items:
            text = self.wl.execute(self.lib, item).to_text()
            self.assertIsNone(checks.check_rule(item, text), text)
            first = text.index("(") + 1
            close = text.index(")")
            coeff = checks.eval_laurent(text[first:close], item["p"])
            bumped = text[:first] + str(coeff + 1) + text[close:]
            self.assertIsNotNone(checks.check_rule(item, bumped), item["kind"])


class NCSymCheckTest(unittest.TestCase):
    A = [frozenset({1})]
    B = [frozenset({1}), frozenset({2})]

    def test_p_product_is_the_glued_partition(self):
        K1, K2 = [2], [1, 3]
        self.assertIsNone(checks.check_ncsym_product("(1)*p[{1|2|3}]", "p", self.A, self.B, K1, K2))
        wrong_glue = "(1)*p[{1,2|3}]"
        self.assertIsNotNone(checks.check_ncsym_product(wrong_glue, "p", self.A, self.B, K1, K2))

    def test_m_product_follows_rosas_sagan(self):
        # m_{1} . m_{1|2}: the letter of the first factor joins neither,
        # the first or the second block of the second factor
        good = "(1)*m[{1,2|3}] + (1)*m[{1,3|2}] + (1)*m[{1|2|3}]"
        self.assertIsNone(checks.check_ncsym_product(good, "m", self.A, self.B, [1], [2, 3]))
        self.assertIsNotNone(checks.check_ncsym_product(
            "(1)*m[{1,2|3}] + (1)*m[{1|2|3}]", "m", self.A, self.B, [1], [2, 3]))
        self.assertIsNotNone(checks.check_ncsym_product(
            good.replace("(1)*m[{1|2|3}]", "(2)*m[{1|2|3}]"), "m", self.A, self.B, [1], [2, 3]))

    def test_rosas_sagan_counts(self):
        # merging a blocks with b blocks: sum_k C(a,k) C(b,k) k!
        A = [frozenset({1}), frozenset({2})]
        B = [frozenset({1}), frozenset({2})]
        self.assertEqual(len(checks.rosas_sagan(A, B, [1, 2], [3, 4])), 1 + 4 + 2)

    def test_round_trip_must_return_the_input(self):
        coeffs = {frozenset({frozenset({1, 2}), frozenset({3})}): Fraction(1, 2)}
        text = ncsym_text("m", coeffs)
        self.assertIsNone(checks.check_round_trip(text, "m", coeffs))
        self.assertIsNotNone(checks.check_round_trip(text.replace("1/2", "1/3"), "m", coeffs))
        self.assertIsNotNone(checks.check_round_trip(text.replace("*m[", "*p["), "m", coeffs))

    def test_live_products_pass(self):
        harness.locate_package()
        wl = wl_ncsym.NCSym()
        lib = harness.fresh_import(wl.modules)
        for item in wl.prepare(lib, wl.warmup(5)):
            self.assertIsNone(wl.check(item, wl.execute(lib, item)), wl.describe(item))


class CLICheckTest(unittest.TestCase):
    def test_count(self):
        self.assertEqual(checks.count_labeled(3, 2), 5)
        self.assertEqual(checks.count_labeled(5, 3), 257)
        self.assertIsNone(checks.check_count("5\n", 3, 2))
        self.assertIsNotNone(checks.check_count("6", 3, 2))

    def test_value_shape(self):
        arcs = ((1, 3, 1),)  # degree 3 at p = 3
        self.assertIsNone(checks.check_value("3*z", 3, 3, arcs, False))
        self.assertIsNone(checks.check_value("-3 - 3*z", 3, 3, arcs, False))  # 3 zeta^2
        self.assertIsNotNone(checks.check_value("4*z", 3, 3, arcs, False))
        self.assertIsNotNone(checks.check_value("9*z", 3, 3, arcs, False))
        self.assertIsNone(checks.check_value("1 + z", 3, 3, arcs, False))  # -zeta^2
        self.assertIsNotNone(checks.check_value("1 + 2*z", 3, 3, arcs, False))
        self.assertIsNone(checks.check_value("3", 3, 3, arcs, True))
        self.assertIsNotNone(checks.check_value("1", 3, 3, arcs, True))

    def test_changed_cache_entry_is_caught(self):
        wl = wl_cli.CLI()
        item = dict(RESTRICT_ITEM, argv=[], cached=True, repeat=True)
        ok = (0, RESTRICT_TEXT + "\n", "", True, RESTRICT_TEXT + "\n")
        self.assertIsNone(wl.check(item, ok))
        changed = (0, RESTRICT_TEXT + "\n", "", True, RESTRICT_TEXT.replace("4-5", "3-4") + "\n")
        self.assertIn("cached output differs", wl.check(item, changed))

    def test_invalid_requests_fail_unless_refused(self):
        wl = wl_cli.CLI()
        item = {"kind": "invalid", "argv": wl_cli.INVALID[0], "cached": False}
        self.assertIsNotNone(wl.outcome(item, (0, "1\n", "", False, None)))
        self.assertIsNone(wl.outcome(item, (2, "", "error", False, None)))

    def test_planned_repeats_only(self):
        items = wl_cli.CLI().generate(3)
        argvs = [tuple(i["argv"]) for i in items if not i.get("repeat")]
        self.assertEqual(len(argvs), len(set(argvs)))
        self.assertEqual(sum(1 for i in items if i.get("repeat")), len(wl_cli.REPEATS))


class VerifyCheckTest(unittest.TestCase):
    def test_ok_line(self):
        self.assertIsNone(wl_verify.check_verify("tensor", "tensor: ok (4008 checks)\n"))
        self.assertIsNotNone(wl_verify.check_verify("tensor", "tensor: FAIL (commutativity)\n"))
        self.assertIsNotNone(wl_verify.check_verify("tensor", "words: ok (78 products)\n"))


class InputsTest(unittest.TestCase):
    def test_seeded(self):
        for wl in (wl_branching.Branching(), wl_ncsym.NCSym(), wl_cli.CLI(), wl_verify.Verify()):
            self.assertEqual(wl.generate(4), wl.generate(4), wl.name)
            self.assertNotEqual(wl.generate(4), wl.generate(5), wl.name)
            self.assertNotEqual(wl.generate(4), wl.warmup(4), wl.name)

    def test_block_counts(self):
        rnd = harness.rng(1, "t")
        for blocks in range(1, 6):
            self.assertEqual(len(inputs.set_partition(range(1, 6), rnd, blocks)), blocks)


class TracingTest(unittest.TestCase):
    def test_self_times(self):
        spans = [["request", 0.0, 1.0, -1], ["ring.superinduce", 0.1, 0.9, 0],
                 ["ring.restrict_combo", 0.2, 0.5, 1]]
        got = tracing.self_times(spans)
        self.assertAlmostEqual(got["request"], 0.2)
        self.assertAlmostEqual(got["ring.superinduce"], 0.5)
        self.assertAlmostEqual(got["ring.restrict_combo"], 0.3)

    def test_yield_and_zero_defaults(self):
        got = tracing.layer_metrics({"ring.superinduce_terms": 5, "ring.superinduce_candidates": 20},
                                    {"ring.superinduce": 2.0})
        self.assertEqual(got["ring.superinduce_yield"], 0.25)
        self.assertEqual(got["ring.superinduce_s"], 2.0)
        self.assertEqual(got["oracle.groups_built"], 0)
        self.assertEqual(set(got), set(tracing.PER_LAYER))

    def test_wrappers_count_and_restore(self):
        harness.locate_package()
        lib = harness.fresh_import(("ring",))
        ring = lib["ring"]
        original = ring.superinduce
        tracer = tracing.Tracer()
        tracer.install(harness.loaded_modules())
        try:
            tracer.begin_round()
            sp = harness.loaded_modules()["setpart"]
            K = sp.PartitionIndex(3, [[1], [2, 3]])
            out = ring.superinduce(sp.LabeledSetPartition(range(1, 4), []), K, 2)
            counts, seconds = tracer.end_round()
        finally:
            tracer.uninstall()
        self.assertIs(ring.superinduce, original)
        self.assertEqual(counts["ring.superinduce"], 1)
        self.assertEqual(counts["ring.superinduce_terms"], len(out))
        self.assertEqual(counts["ring.superinduce_candidates"], 5)  # labels of U_3(2)
        self.assertGreater(seconds["ring.superinduce"], 0)


class SpecTest(unittest.TestCase):
    def test_benchmark_json_is_current(self):
        with open(harness.REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            self.assertEqual(json.load(fh), run.benchmark_spec())


if __name__ == "__main__":
    unittest.main()
