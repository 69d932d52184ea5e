"""Command-line interface: parsing, rendering, exit codes, result cache."""

import argparse
import json
import os
import re
import shlex
import subprocess
import sys
import time

import pytest

import superchar
from superchar import cli, ring, verify
from superchar.ring import CharCombo, char_value, combo_value
from superchar.setpart import (
    BudgetError,
    LabeledSetPartition,
    PartitionIndex,
    count_sn,
    enumerate_compatible,
)


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCommands:
    def test_count(self, capsys):
        code, out, err = run(["count", "--n", "3", "--q", "2"], capsys)
        assert (code, out, err) == (0, "5\n", "")

    @pytest.mark.parametrize(
        "argv",
        [
            ["restrict", "--char", "n=0", "--subgroup", "{}", "--q", "2"],
            ["sind", "--char", "n=0", "--subgroup", "{}", "--q", "2"],
            ["tensor", "--char", "n=0", "--char", "n=0", "--q", "2"],
        ],
    )
    def test_the_trivial_group(self, argv, capsys):
        assert run(argv, capsys) == (0, "(1)*chi[n=0]\n", "")

    def test_count_json(self, capsys):
        code, out, _ = run(["count", "--n", "3", "--q", "2", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out) == {"n": 3, "q": 2, "count": 5}

    def test_restrict(self, capsys):
        code, out, _ = run(
            ["restrict", "--char", "n=5; 1-5:1", "--subgroup", "[2,5]", "--q", "2"],
            capsys,
        )
        assert code == 0
        assert out == (
            "(1)*chi[n=5] + (1)*chi[n=5; 2-5:1]"
            " + (1)*chi[n=5; 3-5:1] + (1)*chi[n=5; 4-5:1]\n"
        )

    def test_value(self, capsys):
        code, out, _ = run(
            ["value", "--char", "n=3; 1-3:1", "--at", "1-3:1", "--q", "2"], capsys
        )
        assert (code, out) == (0, "-2\n")
        code, out, _ = run(
            ["value", "--char", "n=3; 1-3:1", "--at", "1-3:1", "--q", "3"], capsys
        )
        assert (code, out) == (0, "3*z\n")

    def test_inner(self, capsys):
        code, out, _ = run(
            ["inner", "--left", "n=3; 1-3:1", "--right", "n=3; 1-3:1", "--q", "2"],
            capsys,
        )
        assert (code, out) == (0, "1\n")
        # nested arcs do not cross, so the norm stays 1
        code, out, _ = run(
            [
                "inner",
                "--left",
                "n=4; 1-4:1, 2-3:1",
                "--right",
                "n=4; 1-4:1, 2-3:1",
                "--q",
                "2",
            ],
            capsys,
        )
        assert (code, out) == (0, "1\n")

    def test_star(self, capsys):
        code, out, _ = run(["star", "--left", "n=1", "--right", "n=1", "--q", "2"], capsys)
        assert (code, out) == (0, "(1)*chi[n=2] + (1)*chi[n=2; 1-2:1]\n")

    @pytest.mark.parametrize(
        "left, right, want",
        [
            ("n=0", "n=1", "(1)*chi[n=1]"),
            ("n=2; 1-2:1", "n=0", "(1)*chi[n=2; 1-2:1]"),
            ("n=0", "n=0", "(1)*chi[n=0]"),
        ],
    )
    def test_star_with_an_empty_factor(self, left, right, want, capsys):
        argv = ["star", "--left", left, "--right", right, "--q", "2"]
        assert run(argv, capsys) == (0, want + "\n", "")

    def test_sind(self, capsys):
        code, out, _ = run(
            ["sind", "--char", "n=3", "--subgroup", "{1|2,3}", "--q", "2"], capsys
        )
        assert code == 0
        assert out == "(1)*chi[n=3] + (1)*chi[n=3; 1-2:1] + (1)*chi[n=3; 1-3:1]\n"

    def test_sinf(self, capsys):
        code, out, _ = run(
            ["sinf", "--char", "n=3; 1-2:1", "--subgroup", "{1,2|3}", "--q", "2"],
            capsys,
        )
        assert (code, out) == (0, "(1)*chi[n=3; 1-2:1]\n")

    def test_ncsym_product(self, capsys):
        code, out, _ = run(
            ["ncsym", "--op", "product", "--left", "{1}", "--right", "{1}", "--q", "2"],
            capsys,
        )
        assert (code, out) == (0, "(1)*p[{1|2}]\n")

    def test_ncsym_product_with_the_degree_zero_unit(self, capsys):
        for left, right in (("{}", "{1,2}"), ("{1,2}", "{}")):
            argv = ["ncsym", "--op", "product", "--left", left, "--right", right, "--q", "2"]
            assert run(argv, capsys) == (0, "(1)*p[{1,2}]\n", "")
            # the unit's block is absent from the index, as with star
            assert run(argv + ["--blocks", "{1,2}"], capsys) == (0, "(1)*p[{1,2}]\n", "")

    def test_ncsym_product_along_blocks(self, capsys):
        from superchar import ncsym as nc
        from superchar.setpart import PartitionIndex

        argv = ["ncsym", "--op", "product", "--left", "{1,2}", "--right", "{1}", "--q", "2"]
        code, out, _ = run(argv + ["--blocks", "{1,3|2}", "--basis", "m"], capsys)
        x = nc.NCSymElem.single("m", PartitionIndex.from_text("{1,2}"))
        y = nc.NCSymElem.single("m", PartitionIndex.from_text("{1}"))
        want = nc.star_K_product(x, y, PartitionIndex.from_text("{1,3|2}"))
        assert (code, out) == (0, want.to_text() + "\n")
        # in the p basis the glued product is the one glued partition
        code, out, _ = run(argv + ["--blocks", "{1,3|2}"], capsys)
        assert (code, out) == (0, "(1)*p[{1,3|2}]\n")

    def test_ncsym_json_is_the_text_result(self, capsys):
        from superchar import ncsym as nc

        argv = ["ncsym", "--op", "product", "--left", "{1,2}", "--right", "{1}", "--q", "2"]
        _, text, _ = run(argv + ["--basis", "m"], capsys)
        code, out, _ = run(argv + ["--basis", "m", "--format", "json"], capsys)
        assert code == 0
        assert nc.NCSymElem.from_json(json.loads(out)).to_text() + "\n" == text

    def test_ncsym_refuses_a_float_coefficient(self, capsys):
        element = {"basis": "m", "degree": 2, "terms": [{"partition": "{1|2}", "coeff": 0.1}]}
        code, out, err = run(
            ["ncsym", "--op", "to-p", "--element", json.dumps(element), "--q", "2"], capsys
        )
        assert (code, out) == (2, "")
        assert "float" in err

    def test_ncsym_refuses_a_partition_that_is_not_text(self, capsys):
        # an int partition was an internal error (AttributeError), exit 4
        element = {"basis": "m", "degree": 2, "terms": [{"partition": 5, "coeff": "1"}]}
        code, out, err = run(
            ["ncsym", "--op", "to-p", "--element", json.dumps(element), "--q", "2"], capsys
        )
        assert (code, out, err) == (2, "", "error: partition text must be a str, got 5\n")

    def test_ncsym_refuses_a_non_int_degree(self, capsys):
        # a degree of 2.7 was truncated to 2 and the request answered
        element = {"basis": "m", "degree": 2.7, "terms": [{"partition": "{1,2}", "coeff": 1}]}
        code, out, err = run(
            ["ncsym", "--op", "to-p", "--element", json.dumps(element), "--q", "2"], capsys
        )
        assert (code, out) == (2, "")
        assert "degree must be an int, got 2.7" in err

    def test_ncsym_refuses_a_zero_denominator(self, capsys):
        # a coefficient of 1/0 was an internal error (ZeroDivisionError), exit 4
        element = {"basis": "m", "degree": 2, "terms": [{"partition": "{1,2}", "coeff": "1/0"}]}
        code, out, err = run(
            ["ncsym", "--op", "to-p", "--element", json.dumps(element), "--q", "2"], capsys
        )
        assert (code, out, err) == (2, "", "error: the rational '1/0' has a zero denominator\n")

    def test_ncsym_refuses_a_bool_coefficient(self, capsys):
        # a coefficient of true was answered as 1
        element = {"basis": "m", "degree": 1, "terms": [{"partition": "{1}", "coeff": True}]}
        code, out, err = run(
            ["ncsym", "--op", "to-p", "--element", json.dumps(element), "--q", "2"], capsys
        )
        assert (code, out, err) == (
            2, "", "error: exact coefficients only, not the bool True\n")

    def test_ncsym_refuses_a_negative_degree(self, capsys):
        # a degree of -1 was answered with 0
        element = {"basis": "m", "degree": -1, "terms": []}
        code, out, err = run(
            ["ncsym", "--op", "to-p", "--element", json.dumps(element), "--q", "2"], capsys
        )
        assert (code, out, err) == (2, "", "error: degree must be nonnegative, not -1\n")

    def test_ncsym_conversions_round_trip(self, capsys):
        from superchar import ncsym as nc

        element = {
            "basis": "m",
            "degree": 3,
            "terms": [
                {"partition": "{1,3|2}", "coeff": "1/2"},
                {"partition": "{1|2|3}", "coeff": "-2"},
            ],
        }
        x = nc.NCSymElem.from_json(element)
        code, out, _ = run(
            ["ncsym", "--op", "to-p", "--element", json.dumps(element), "--q", "2"], capsys
        )
        assert (code, out) == (0, nc.p_from_m(x).to_text() + "\n")
        code, out, _ = run(
            ["ncsym", "--op", "to-p", "--element", json.dumps(element), "--q", "2",
             "--format", "json"],
            capsys,
        )
        assert code == 0
        code, out, _ = run(
            ["ncsym", "--op", "to-m", "--element", out.strip(), "--q", "2", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert nc.NCSymElem.from_json(json.loads(out)) == x

    def test_star_along_blocks(self, capsys):
        from superchar.ring import star_K
        from superchar.setpart import LabeledSetPartition, PartitionIndex

        code, out, _ = run(
            ["star", "--left", "n=2; 1-2:1", "--right", "n=1", "--blocks", "{1,3|2}",
             "--q", "2"],
            capsys,
        )
        lam = LabeledSetPartition.from_text("n=2; 1-2:1")
        mu = LabeledSetPartition.from_text("n=1")
        want = star_K(lam, mu, PartitionIndex.from_text("{1,3|2}"), 2)
        assert (code, out) == (0, want.to_text() + "\n")
        assert out == "(q)*chi[n=3; 1-3:1]\n"

    def test_tensor_json_parses(self, capsys):
        code, out, _ = run(
            [
                "tensor",
                "--char",
                "n=3; 1-3:1",
                "--char",
                "n=3; 1-3:1",
                "--q",
                "2",
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0
        blob = json.loads(out)
        assert blob["ambient"] == "{1,2,3}"
        assert [t["partition"] for t in blob["terms"]] == [
            "n=3",
            "n=3; 1-2:1",
            "n=3; 1-2:1, 2-3:1",
            "n=3; 2-3:1",
        ]
        assert all(t["coeff"] == {"0": 1} for t in blob["terms"])

    def test_value_json_parses(self, capsys):
        code, out, _ = run(
            [
                "value",
                "--char",
                "n=3; 1-3:1",
                "--at",
                "1-3:1",
                "--q",
                "3",
                "--format",
                "json",
            ],
            capsys,
        )
        assert code == 0
        assert json.loads(out) == {"coords": ["0", "3"], "p": 3}


class TestVerify:
    def test_tensor_suite_runs_on_the_trivial_group(self, capsys):
        code, out, _ = run(["verify", "--suite", "tensor", "--q", "2", "--max-n", "0"], capsys)
        assert code == 0
        assert out.startswith("tensor: ok")

    @pytest.mark.parametrize("max_n, samples", [(0, 500), (1, 500), (2, 500), (3, 500), (3, 4)])
    def test_tensor_suite_counts_each_pair_once(self, max_n, samples, capsys):
        argv = ["verify", "--suite", "tensor", "--q", "2", "--max-n", str(max_n)]
        code, out, _ = run(argv + ["--samples", str(samples)], capsys)
        assert code == 0
        checks = int(re.fullmatch(r"tensor: ok \((\d+) checks\)\n", out).group(1))
        exhaustive = sum(count_sn(n, 2) ** 3 for n in range(2, max_n + 1))
        labels = count_sn(max_n, 2)
        pairs = labels * (labels - 1) // 2
        assert checks <= exhaustive + pairs
        assert checks == exhaustive + min(samples, pairs)

    def test_orthogonality_suite_passes(self, capsys):
        code, out, _ = run(
            ["verify", "--suite", "orthogonality", "--q", "2", "--max-n", "3"], capsys
        )
        assert code == 0
        assert out == "orthogonality: ok (29 inner products)\n"

    def test_json_format(self, capsys):
        argv = ["verify", "--suite", "words", "--q", "2", "--max-n", "3"]
        code, out, _ = run(argv, capsys)
        assert (code, out) == (0, "words: ok (14 products)\n")
        code, out, _ = run(argv + ["--format", "json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"suite", "ok", "detail", "elapsed_s"}
        assert report["suite"] == "words"
        assert report["ok"] is True
        assert report["detail"] == "14 products"
        assert report["elapsed_s"] >= 0

    def test_json_format_one_object_per_suite(self, capsys):
        code, out, _ = run(
            ["verify", "--suite", "all", "--q", "2", "--max-n", "2", "--format", "json"],
            capsys,
        )
        assert code == 0
        reports = [json.loads(line) for line in out.splitlines()]
        assert [r["suite"] for r in reports] == sorted(verify.SUITES)
        assert all(r["ok"] for r in reports)

    def test_words_suite_catches_a_wrong_product(self, capsys, monkeypatch):
        from superchar import ncsym

        right = ncsym.star_K_product
        monkeypatch.setattr(
            ncsym, "star_K_product", lambda x, y, K: right(x, y, K).scale(2)
        )
        argv = ["verify", "--suite", "words", "--q", "2", "--max-n", "2"]
        code, out, _ = run(argv, capsys)
        assert code == cli.EXIT_VERIFY
        assert out.startswith("words: FAIL (")
        assert "differs from the class route" in out
        code, out, _ = run(argv + ["--format", "json"], capsys)
        assert code == cli.EXIT_VERIFY
        assert json.loads(out)["ok"] is False

    def test_words_suite_catches_a_wrong_class_route(self, capsys, monkeypatch):
        def first_ranks_twice(blocks, partitions):
            # standardizes the second block with the first block's ranks
            rank = {v: i for i, v in enumerate(blocks[0], 1)}
            return [(C, verify._trace(C, rank), verify._trace(C, rank))
                    for C in partitions]

        argv = ["verify", "--suite", "words", "--q", "2", "--max-n", "3"]
        assert run(argv, capsys)[:2] == (0, "words: ok (14 products)\n")
        monkeypatch.setattr(verify, "_shuffle_traces", first_ranks_twice)
        code, out, _ = run(argv, capsys)
        assert code == cli.EXIT_VERIFY
        assert out.startswith("words: FAIL (")
        assert "differs from the class route" in out

    def test_words_suite_catches_a_wrong_glued_partition(self, capsys, monkeypatch):
        # drops the glued partition's arcs, so p_glued is p of all singletons
        monkeypatch.setattr(
            verify, "union_K", lambda lam, mu, K: LabeledSetPartition(range(1, K.n + 1))
        )
        argv = ["verify", "--suite", "words", "--q", "2", "--max-n", "3"]
        code, out, _ = run(argv, capsys)
        assert code == cli.EXIT_VERIFY
        assert out.startswith("words: FAIL (p_")
        assert "class route" not in out

    @pytest.mark.parametrize(
        "suite, module, name, scaled",
        [
            ("orthogonality", "oracle", "brute_inner_product_table",
             lambda t: [[v * 2 for v in row] for row in t]),
            ("restriction", "verify", "restriction_table",
             lambda t: {nu: x.scale(2) for nu, x in t.items()}),
            ("tensor", "verify", "tensor", lambda x: x.scale(2)),
            ("superinduction", "verify", "superinduce", lambda x: x.scale(2)),
            ("superinduction", "verify", "superinduction_table",
             lambda t: {mu: x.scale(2) for mu, x in t.items()}),
            ("superinduction", "oracle", "brute_superinduction_table",
             lambda t: [[v * 2 for v in row] for row in t]),
        ],
        ids=["orthogonality", "restriction", "tensor", "superinduction",
             "superinduction-table", "superinduction-oracle-table"],
    )
    def test_suite_catches_a_wrong_answer(self, suite, module, name, scaled, capsys, monkeypatch):
        import importlib

        target = importlib.import_module("superchar." + module)
        right = getattr(target, name)
        monkeypatch.setattr(target, name, lambda *args: scaled(right(*args)))
        argv = ["verify", "--suite", suite, "--q", "2", "--max-n", "2"]
        code, out, _ = run(argv, capsys)
        assert code == cli.EXIT_VERIFY
        assert out.startswith(suite + ": FAIL (")
        code, out, _ = run(argv + ["--format", "json"], capsys)
        assert code == cli.EXIT_VERIFY
        report = json.loads(out)
        assert (report["suite"], report["ok"]) == (suite, False)

    @staticmethod
    def bumped(x):
        """x with its last term's coefficient raised by one."""
        lam, c = x.sorted_terms()[-1]
        return CharCombo(x.ambient, {**x.terms, lam: c + 1})

    def assert_fails_at(self, suite, detail, capsys):
        argv = ["verify", "--suite", suite, "--q", "2", "--max-n", "3"]
        code, out, _ = run(argv, capsys)
        assert (code, out) == (cli.EXIT_VERIFY, "%s: FAIL (%s)\n" % (suite, detail))
        code, out, _ = run(argv + ["--format", "json"], capsys)
        assert code == cli.EXIT_VERIFY
        assert json.loads(out)["detail"] == detail

    def test_tensor_suite_names_the_one_wrong_point(self, capsys, monkeypatch):
        full = PartitionIndex.full(3)
        lam = LabeledSetPartition.from_text("n=3; 1-2:1")
        mu = LabeledSetPartition.from_text("n=3; 1-3:1")
        right = verify.tensor
        wrong = self.bumped(right(CharCombo.of(lam, full), CharCombo.of(mu, full), 2))
        at = (CharCombo.of(lam, full), CharCombo.of(mu, full))
        monkeypatch.setattr(
            verify, "tensor", lambda x, y, p: wrong if (x, y) == at else right(x, y, p)
        )
        # the first label where the wrong product's value differs
        nu = next(
            nu for nu in enumerate_compatible(full, 2)
            if combo_value(wrong, nu, 2) != char_value(lam, nu, 2) * char_value(mu, nu, 2)
        )
        self.assert_fails_at("tensor", "n=3; 1-2:1 (x) n=3; 1-3:1 at %s" % nu.to_text(), capsys)

    def test_restriction_suite_names_the_one_wrong_point(self, capsys, monkeypatch):
        lam = LabeledSetPartition.from_text("n=3; 1-3:1")
        K = PartitionIndex.from_text("{1,3|2}")
        right = verify.restriction_table
        wrong = self.bumped(right(K, 2)[lam])
        monkeypatch.setattr(
            verify,
            "restriction_table",
            lambda J, p: {**right(J, p), lam: wrong} if J.to_text() == K.to_text() else right(J, p),
        )
        nu = next(
            nu for nu in enumerate_compatible(K, 2)
            if combo_value(wrong, nu, 2) != char_value(lam, nu, 2)
        )
        self.assert_fails_at("restriction", "Res n=3; 1-3:1 to {1,3|2} at %s" % nu.to_text(), capsys)

    def test_superinduction_suite_names_a_wrong_bracket(
            self, capsys, monkeypatch, fresh_factor_table):
        from superchar import ring
        from superchar.qcoeff import LaurentPoly

        right = ring._bracket

        def without_the_one(i, l, left, right_end, p):
            # the keep-neither empty diagram's (q-1)(l-i-1) + 1, less its 1
            bracket = right(i, l, left, right_end, p)
            if left or right_end:
                return bracket
            (empty, c), *rest = bracket
            return ((empty, c - LaurentPoly.one()), *rest)

        monkeypatch.setattr(ring, "_bracket", without_the_one)
        self.assert_fails_at(
            "superinduction", "SInd n=3 from {1|2|3}, coefficient of n=3; 1-3:1", capsys
        )

    def test_an_irrational_oracle_coefficient_is_a_failure(self, capsys, monkeypatch):
        # every supercharacter of G times zeta_3: <SInd chi, chi^lam> turns
        # irrational wherever it is not 0, and the suite must say so
        from superchar.oracle import PatternGroup
        from superchar.qcoeff import Cyclotomic

        right = PatternGroup.character_table
        zeta = Cyclotomic.zeta_power(3, 1)
        monkeypatch.setattr(
            PatternGroup,
            "character_table",
            lambda G: [tuple(v * zeta for v in row) for row in right(G)],
        )
        argv = ["verify", "--suite", "superinduction", "--q", "3", "--max-n", "2"]
        code, out, err = run(argv, capsys)
        assert (code, out, err) == (
            cli.EXIT_VERIFY,
            "superinduction: FAIL (SInd n=2 from {1|2}, coefficient of n=2)\n",
            "",
        )

    @pytest.mark.parametrize("suite", ["tensor", "restriction", "words"])
    def test_label_walk_over_budget_is_refused_at_once(self, suite, capsys):
        argv = ["verify", "--suite", suite, "--q", "2", "--max-n", "11", "--budget", "10"]
        start = time.perf_counter()
        code, out, err = run(argv, capsys)
        assert time.perf_counter() - start < 1
        assert (code, out) == (cli.EXIT_BUDGET, "")
        assert err == (
            "budget refused: the %s suite on U_11(2) walks 678570 labels, "
            "over the budget of 10\n" % suite
        )
        # U_3(2) has 5 labels: a budget of 5 admits the suite, 4 refuses it
        small = ["verify", "--suite", suite, "--q", "2", "--max-n", "3"]
        assert run(small + ["--budget", "5"], capsys)[:2] == run(small, capsys)[:2]
        assert run(small + ["--budget", "4"], capsys)[0] == cli.EXIT_BUDGET

    def test_budget_refusal(self, capsys):
        code, _, err = run(
            [
                "verify",
                "--suite",
                "orthogonality",
                "--q",
                "2",
                "--max-n",
                "2",
                "--budget",
                "1",
            ],
            capsys,
        )
        assert code == cli.EXIT_BUDGET
        assert "budget refused" in err

    @pytest.mark.parametrize(
        "suite, detail",
        [("superinduction", "972 coefficients"), ("charmap", "degrees up to 4")],
        ids=["superinduction", "charmap"],
    )
    def test_budget_bounds_every_group_of_the_suite(self, suite, detail, capsys, monkeypatch):
        # below the default bound U_4(2) is refused unless --budget reaches
        # every group the suite builds, the subgroups included
        from superchar import oracle

        monkeypatch.setattr(oracle, "DEFAULT_MAX_GROUP", 32)
        argv = ["verify", "--suite", suite, "--q", "2", "--max-n", "4", "--budget", "64"]
        code, out, _ = run(argv, capsys)
        assert (code, out) == (0, "%s: ok (%s)\n" % (suite, detail))

    def test_all_runs_the_suites_defined_at_q(self, capsys):
        # the characteristic map lives at q = 2, so q = 3 skips only it
        code, out, _ = run(["verify", "--suite", "all", "--q", "3", "--max-n", "2"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert all(": ok (" in line for line in lines)
        assert not any(line.startswith("charmap") for line in lines)
        code, _, err = run(["verify", "--suite", "charmap", "--q", "3", "--max-n", "2"], capsys)
        assert code == cli.EXIT_PARSE
        assert "q = 2" in err

    def test_symbolic_superinduction_over_budget_is_refused(self, capsys):
        # U_9(2) has 21147 labels to walk
        argv = ["sind", "--char", "n=9", "--subgroup", "{1,2,3,4|5,6,7,8,9}", "--q", "2"]
        code, out, err = run(argv + ["--budget", "10"], capsys)
        assert (code, out) == (cli.EXIT_BUDGET, "")
        assert "21147 labels" in err
        star = ["star", "--left", "n=2; 1-2:1", "--right", "n=2; 1-2:1", "--q", "2"]
        code, out, _ = run(star + ["--budget", "14"], capsys)
        assert (code, out) == (cli.EXIT_BUDGET, "")
        code, out, _ = run(star + ["--budget", "15"], capsys)
        assert code == 0
        assert out == run(star, capsys)[1]


class TestErrors:
    def test_nonprime_field_size(self, capsys):
        code, _, err = run(["count", "--n", "3", "--q", "4"], capsys)
        assert code == cli.EXIT_PARSE
        assert "must be prime" in err

    def test_malformed_character(self, capsys):
        code, _, err = run(
            ["restrict", "--char", "n=3; 1-3", "--subgroup", "{1|2,3}", "--q", "2"],
            capsys,
        )
        assert code == cli.EXIT_PARSE
        assert err.startswith("error:")

    def test_arc_body_without_n(self, capsys):
        code, _, err = run(["value", "--char", "1-3:1", "--at", "1-3:1", "--q", "2"], capsys)
        assert code == cli.EXIT_PARSE
        assert "needs --n" in err

    @pytest.mark.parametrize("char, n, message", [
        ("1-3:1", "-1", "n must be nonnegative, not -1"),
        # an empty body on a negative n is no n=0 character
        ("", "-1", "n must be nonnegative, not -1"),
        ("n=3 1-3:1", "3", "bad arc 'n=3 1-3:1'"),
    ], ids=["arcs-on-negative-n", "empty-on-negative-n", "prefix-without-semicolon"])
    def test_a_character_read_on_a_given_n_names_its_fault(self, char, n, message, capsys):
        # n was given, so the message must not say that it is missing
        argv = ["value", "--char", char, "--n", n, "--at", "", "--q", "2"]
        assert run(argv, capsys) == (cli.EXIT_PARSE, "", "error: %s\n" % message)

    def test_label_outside_the_field_is_refused(self, capsys):
        # label 2 is 0 at p = 2
        code, _, err = run(
            ["value", "--char", "n=2; 1-2:2", "--at", "1-2:1", "--q", "2"], capsys
        )
        assert code == cli.EXIT_PARSE
        assert "outside 1..1" in err

    def test_incompatible_superinduction_is_refused(self, capsys):
        # the arc 1-3 straddles the parts {1} and {2,3}
        code, _, err = run(
            ["sind", "--char", "n=3; 1-3:1", "--subgroup", "{1|2,3}", "--q", "2"], capsys
        )
        assert code == cli.EXIT_PARSE
        assert "straddles" in err

    @pytest.mark.parametrize("command, subgroup", [("sinf", "{1,2|3}"), ("sind", "{1|2,3}")])
    def test_a_straddling_arc_names_the_index_by_its_text(self, command, subgroup, capsys):
        argv = [command, "--char", "n=3; 1-3:1", "--subgroup", subgroup, "--q", "2"]
        assert run(argv, capsys) == (
            cli.EXIT_PARSE,
            "",
            "error: arc 1-3 straddles the parts of %s\n" % subgroup,
        )

    def test_conflicting_n_is_refused(self, capsys):
        code, _, err = run(
            [
                "restrict",
                "--char",
                "n=3; 1-3:1",
                "--n",
                "5",
                "--subgroup",
                "{1|2,3}",
                "--q",
                "2",
            ],
            capsys,
        )
        assert code == cli.EXIT_PARSE
        assert "n=5 was given" in err

    @pytest.mark.parametrize(
        "factors", [["--left", "{1|2}"], ["--right", "{1|2}"], []]
    )
    def test_ncsym_product_without_a_factor_is_refused(self, factors, capsys):
        argv = ["ncsym", "--op", "product", "--q", "2"] + factors
        code, out, err = run(argv, capsys)
        assert (code, out) == (cli.EXIT_PARSE, "")
        assert "needs --left and --right" in err

    @pytest.mark.parametrize("op", ["to-p", "to-m"])
    def test_ncsym_conversion_without_an_element_is_refused(self, op, capsys):
        code, out, err = run(["ncsym", "--op", op, "--q", "2"], capsys)
        assert (code, out) == (cli.EXIT_PARSE, "")
        assert "ncsym %s needs --element" % op in err

    def test_negative_sample_count_is_refused(self, capsys):
        argv = ["verify", "--suite", "tensor", "--q", "2", "--max-n", "2", "--samples", "-1"]
        code, out, err = run(argv, capsys)
        assert (code, out) == (cli.EXIT_PARSE, "")
        assert "--samples" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--suite", "all", "--q", "2", "--max-n", "5", "--budget", "1024"],
            ["--suite", "words", "--q", "2", "--max-n", "3"],
        ],
        ids=["all", "words"],
    )
    def test_negative_sample_count_is_refused_before_any_suite_runs(self, argv, capsys):
        start = time.perf_counter()
        code, out, err = run(["verify"] + argv + ["--samples", "-1"], capsys)
        assert time.perf_counter() - start < 1
        assert (code, out) == (cli.EXIT_PARSE, "")
        assert err == "error: --samples must be nonnegative\n"

    @pytest.mark.parametrize(
        "suite, max_n", [("restriction", "-3"), ("charmap", "-1"), ("tensor", "-1")]
    )
    def test_negative_max_n_is_refused(self, suite, max_n, capsys):
        argv = ["verify", "--suite", suite, "--q", "2", "--max-n", max_n]
        code, out, err = run(argv, capsys)
        assert (code, out) == (cli.EXIT_PARSE, "")
        assert err == "error: --max-n must be nonnegative\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["sind", "--char", "n=3", "--subgroup", "{1|2,3}", "--q", "2", "--budget", "-1"],
            ["verify", "--suite", "superinduction", "--q", "2", "--max-n", "3", "--budget", "-1"],
        ],
    )
    def test_negative_budget_is_refused(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert (code, out) == (cli.EXIT_PARSE, "")
        assert err == "error: --budget must be nonnegative\n"

    @pytest.mark.parametrize(
        "chars, message",
        [
            (["n=2; 1-2:1"], "needs at least two --char factors"),
            (["n=2; 1-2:1", "n=3"], "factors live on different groups"),
        ],
    )
    def test_tensor_needs_two_factors_on_one_group(self, chars, message, capsys):
        argv = ["tensor", "--q", "2"] + [arg for c in chars for arg in ("--char", c)]
        code, out, err = run(argv, capsys)
        assert (code, out) == (cli.EXIT_PARSE, "")
        assert message in err

    def test_count_without_n_is_refused(self, capsys):
        code, out, err = run(["count", "--q", "2"], capsys)
        assert (code, out) == (cli.EXIT_PARSE, "")
        assert "count needs --n" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["star", "--left", "n=2; 1-2:3", "--right", "n=1", "--q", "3"],
            ["star", "--left", "n=1", "--right", "n=2; 1-2:3", "--q", "3"],
            ["inner", "--left", "n=3; 1-3:2", "--right", "n=3", "--q", "2"],
            ["inner", "--left", "n=3", "--right", "(1)*chi[n=3; 1-3:2]", "--q", "2"],
            ["sind", "--char", "n=3; 1-3:5", "--subgroup", "{1,2,3}", "--q", "5"],
        ],
    )
    def test_every_label_is_checked(self, argv, capsys):
        code, _, err = run(argv, capsys)
        assert code == cli.EXIT_PARSE
        assert "has a label outside" in err

    def test_an_internal_fault_is_not_a_verify_mismatch(self, capsys, monkeypatch):
        # a guard tripping inside a suite is exit 4, never exit 1
        def stuck(*args):
            raise RuntimeError("straightening measure must drop")

        monkeypatch.setitem(verify.SUITES, "tensor", stuck)
        code, out, err = run(["verify", "--suite", "tensor", "--q", "2", "--max-n", "2"], capsys)
        assert (code, out) == (cli.EXIT_INTERNAL, "")
        assert err == "internal error: RuntimeError: straightening measure must drop\n"

    def test_an_internal_fault_in_a_rule_is_exit_four(self, capsys, monkeypatch):
        # a KeyError is a lookup bug, not bad input
        for fault in (AssertionError("label 0 does not start orbit 0"), KeyError("label 0")):
            def broken(*args):
                raise fault

            # the restrict command imports the rule from ring when it runs;
            # the restriction suite holds its own name for it
            monkeypatch.setattr(ring, "restrict_combo", broken)
            monkeypatch.setattr(verify, "restriction_table", broken)
            argv = ["restrict", "--char", "n=3; 1-3:1", "--subgroup", "{1|2,3}", "--q", "2"]
            code, out, err = run(argv, capsys)
            assert (code, out) == (cli.EXIT_INTERNAL, "")
            assert err.startswith("internal error: %s: " % type(fault).__name__)
            assert "label 0" in err
            code, out, _ = run(["verify", "--suite", "restriction", "--q", "2", "--max-n", "2"],
                               capsys)
            assert (code, out) == (cli.EXIT_INTERNAL, "")

    def test_a_budget_refusal_inside_a_command_is_exit_three(self, capsys, monkeypatch):
        # main names BudgetError only in its fault branch; a refusal raised
        # inside a command must still exit 3, not 4
        def refuse(*args):
            raise BudgetError("the rule walks 99 labels, over the budget of 1")

        monkeypatch.setattr(ring, "restrict_combo", refuse)
        argv = ["restrict", "--char", "n=3; 1-3:1", "--subgroup", "{1|2,3}", "--q", "2"]
        assert run(argv, capsys) == (
            cli.EXIT_BUDGET, "", "budget refused: the rule walks 99 labels, over the budget of 1\n"
        )

    def test_argparse_usage_errors(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["count", "--n", "3"])  # --q is required
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "nonsense", "--q", "2"])
        assert exc.value.code == 2

    def test_parser_is_built_once_per_process(self, monkeypatch, capsys):
        cli.build_parser.cache_clear()
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(parser, *args, **kwargs):
            init(parser, *args, **kwargs)
            built.append(parser.prog)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert run(["count", "--n", "3", "--q", "2"], capsys) == (0, "5\n", "")
        # a usage error between two calls leaves the shared parser working
        with pytest.raises(SystemExit) as exc:
            cli.main(["count", "--n", "3"])
        assert exc.value.code == 2
        assert "--q" in capsys.readouterr().err
        assert run(["count", "--n", "3", "--q", "2"], capsys) == (0, "5\n", "")
        assert built.count("superchar") == 1

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0


def fresh_process(probe):
    """``python -c probe`` run to its end, with the package on the path and
    nothing imported yet; its stdout and stderr are captured."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(superchar.__file__)))
    return subprocess.run(
        [sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True,
    )


def run_in_a_fresh_process(probe):
    """The words that ``python -c probe`` prints to stdout."""
    return fresh_process(probe).stdout.split()


@pytest.mark.parametrize(
    "module, needed",
    [("cli", ["cli"]), ("ncsym", ["ncsym", "qcoeff", "setpart"]), ("setpart", ["setpart"])],
)
def test_import_loads_only_the_modules_needed(module, needed):
    # each command imports the math it runs; a process that only loads the
    # CLI, or NCSym, must not pay for the rest
    probe = (
        "import sys, superchar.%s; "
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'superchar')))"
        % module
    )
    assert run_in_a_fresh_process(probe) == ["superchar"] + ["superchar." + m for m in needed]


@pytest.mark.parametrize(
    "argv, code, output, error, loaded",
    [
        # the hit is served before any command runs: no math module at all
        (["count", "--n", "3", "--q", "2", "--cache-dir", "{cache}"], 0, "5", "", ["cli"]),
        (["count", "--n", "3", "--q", "2"], 0, "5", "", ["cli", "setpart"]),
        (["ncsym", "--op", "product", "--left", "{1}", "--right", "{1}", "--q", "2"],
         0, "(1)*p[{1|2}]", "", ["cli", "ncsym", "qcoeff", "setpart"]),
        # refused at parse: the arc, label and n checks need setpart alone
        (["value", "--char", "n=2; 1-2:2", "--at", "1-2:1", "--q", "2"],
         2, "", "error: arc 1-2:2 has a label outside 1..1", ["cli", "setpart"]),
        (["restrict", "--char", "n=3; 1-3:1", "--n", "5", "--subgroup", "{1|2,3}", "--q", "2"],
         2, "", "error: 'n=3; 1-3:1' has n=3, but n=5 was given", ["cli", "setpart"]),
        # the arc across two parts of the subgroup is refused before ring loads
        (["sind", "--char", "n=3; 1-3:1", "--subgroup", "{1|2,3}", "--q", "2"],
         2, "", "error: arc 1-3 straddles the parts of {1|2,3}", ["cli", "setpart"]),
    ],
    ids=["cache-hit", "count", "ncsym-product", "refused-label", "conflicting-n",
         "straddling-sind"],
)
def test_a_request_loads_only_the_modules_it_runs(argv, code, output, error, loaded, tmp_path):
    argv = [a.replace("{cache}", str(tmp_path)) for a in argv]
    if "--cache-dir" in argv:
        # a first process computes the entry that the probe's request hits
        assert run_in_a_fresh_process(
            "from superchar import cli; cli.main(%r)" % argv) == [output]
    probe = (
        "import sys; from superchar import cli; code = cli.main(%r); "
        "print(code, *sorted(m for m in sys.modules if m.split('.')[0] == 'superchar'))"
        % argv
    )
    done = fresh_process(probe)
    assert done.stdout.split() == (
        output.split() + [str(code), "superchar"] + ["superchar." + m for m in loaded])
    assert done.stderr.strip() == error


def test_the_suite_choices_are_the_verify_suites():
    # argparse lists them without importing superchar.verify
    assert cli.SUITE_NAMES == tuple(sorted(verify.SUITES))


def test_a_request_without_the_oracle_does_not_load_it():
    # BudgetError lives in setpart, so telling a refusal from a fault loads
    # no oracle; and only verify requests load the suites
    probe = (
        "import sys; from superchar import cli; "
        "code = cli.main(['count', '--n', '3', '--q', '2']); "
        "print(code, 'superchar.oracle' in sys.modules, 'superchar.verify' in sys.modules)"
    )
    assert run_in_a_fresh_process(probe) == ["5", "0", "False", "False"]


def test_a_words_only_verify_does_not_load_the_oracle():
    # the words suite's class route lives in verify, which loads the oracle
    # only inside the suites that build groups
    probe = (
        "import sys; from superchar import cli; "
        "code = cli.main(['verify', '--suite', 'words', '--q', '2', '--max-n', '3']); "
        "print(code, 'superchar.oracle' in sys.modules)"
    )
    assert run_in_a_fresh_process(probe) == ["words:", "ok", "(14", "products)", "0", "False"]


def test_the_oracle_exports_the_budget_error():
    from superchar import oracle, setpart

    assert oracle.BudgetError is setpart.BudgetError
    assert "BudgetError" in oracle.__all__


class TestCache:
    ARGV = ["count", "--n", "4", "--q", "3"]

    def run_cached(self, tmp_path, capsys, extra=()):
        argv = self.ARGV + ["--cache-dir", str(tmp_path)] + list(extra)
        return run(argv, capsys)

    def entry_path(self, tmp_path):
        files = [f for f in os.listdir(tmp_path) if f.endswith(".json")]
        assert len(files) == 1
        return os.path.join(tmp_path, files[0])

    def test_repeat_runs_are_byte_identical(self, tmp_path, capsys):
        code1, out1, err1 = self.run_cached(tmp_path, capsys)
        path = self.entry_path(tmp_path)
        with open(path, "rb") as fh:
            blob1 = fh.read()
        code2, out2, err2 = self.run_cached(tmp_path, capsys)
        with open(path, "rb") as fh:
            blob2 = fh.read()
        assert (code1, out1, err1) == (code2, out2, err2) == (0, out1, "")
        assert blob1 == blob2
        entry = json.loads(blob1)
        assert entry["format-version"] == cli.CACHE_FORMAT_VERSION
        assert entry["exit"] == 0
        assert out1 == entry["output"] + "\n"

    def test_different_requests_use_different_entries(self, tmp_path, capsys):
        self.run_cached(tmp_path, capsys)
        run(
            ["count", "--n", "5", "--q", "3", "--cache-dir", str(tmp_path)],
            capsys,
        )
        files = [f for f in os.listdir(tmp_path) if f.endswith(".json")]
        assert len(files) == 2

    def test_corrupt_entry_is_recomputed(self, tmp_path, capsys):
        code, out, _ = self.run_cached(tmp_path, capsys)
        path = self.entry_path(tmp_path)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("not json{")
        code2, out2, err2 = self.run_cached(tmp_path, capsys)
        assert (code2, out2) == (code, out)
        assert "corrupt cache entry recomputed" in err2
        entry = json.loads(open(path, encoding="utf-8").read())
        assert out == entry["output"] + "\n"

    def test_tampered_entry_is_served_without_verification(self, tmp_path, capsys):
        self.run_cached(tmp_path, capsys)
        path = self.entry_path(tmp_path)
        entry = json.loads(open(path, encoding="utf-8").read())
        entry["output"] = "999"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(entry, fh)
        code, out, err = self.run_cached(tmp_path, capsys)
        assert (code, out, err) == (0, "999\n", "")

    def test_verify_cache_recomputes_and_repairs(self, tmp_path, capsys):
        _, out, _ = self.run_cached(tmp_path, capsys)
        path = self.entry_path(tmp_path)
        entry = json.loads(open(path, encoding="utf-8").read())
        entry["output"] = "999"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(entry, fh)
        code2, out2, err2 = self.run_cached(tmp_path, capsys, extra=["--verify-cache"])
        assert (code2, out2) == (0, out)
        assert "disagreed with recomputation" in err2
        repaired = json.loads(open(path, encoding="utf-8").read())
        assert out == repaired["output"] + "\n"

    def test_verify_is_never_cached(self, tmp_path, capsys):
        # verify recomputes by design, so a second run reports its own timing
        argv = ["verify", "--suite", "words", "--q", "2", "--max-n", "2", "--format", "json"]
        argv += ["--cache-dir", str(tmp_path)]
        for _ in range(2):
            code, out, err = run(argv, capsys)
            assert (code, err) == (0, "")
            assert json.loads(out)["ok"] is True
        assert os.listdir(tmp_path) == []

    def test_cache_dir_from_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SUPERCHAR_CACHE", str(tmp_path))
        code, out, _ = run(self.ARGV, capsys)
        assert code == 0
        path = self.entry_path(tmp_path)
        entry = json.loads(open(path, encoding="utf-8").read())
        assert out == entry["output"] + "\n"


def _readme():
    readme = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "README.md")
    with open(readme, encoding="utf-8") as fh:
        return fh.read()


def _readme_examples():
    """Each ``$ superchar ...`` command of README.md with the output lines
    shown under it, up to the next blank line or fence."""
    examples = []
    for block in re.findall(r"^```\n(.*?)^```$", _readme(), flags=re.M | re.S):
        for chunk in block.split("\n\n"):
            command, *shown = chunk.strip("\n").split("\n")
            if command.startswith("$ superchar ") and shown:
                examples.append((shlex.split(command)[2:], "".join(l + "\n" for l in shown)))
    return examples


def test_readme_examples_print_what_the_readme_shows(capsys):
    examples = _readme_examples()
    assert examples
    for argv, shown in examples:
        assert run(argv, capsys) == (0, shown, ""), argv


def test_readme_python_blocks_run():
    # each fenced python block runs on its own, asserts included
    blocks = re.findall(r"^```python\n(.*?)^```$", _readme(), flags=re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
