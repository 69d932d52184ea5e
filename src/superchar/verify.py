"""Verification suites: the symbolic engine checked exactly against second
routes, the brute-force oracle among them.

``SUITES`` maps each suite's name to a function of (q, max_n, budget,
samples, seed) that returns (ok, detail): ``ok`` is False at the first
mismatch, which ``detail`` names, and otherwise ``detail`` counts the checks
made.  Only the tensor suite reads ``samples`` and ``seed``; a budget of
None admits any walk and leaves the oracle at its default group bound.
The oracle, the reference routes and NCSym are imported by the suites that
use them.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .qcoeff import Cyclotomic
from .ring import (
    CharCombo,
    _char_value_std,
    _combo_coords,
    _mono_coords,
    _value_rows,
    restriction_table,
    superinduce,
    superinduction_table,
    tensor,
)
from .setpart import (
    LabeledSetPartition,
    PartitionIndex,
    check_walk_budget,
    enumerate_compatible,
    set_partitions,
    union_K,
)

__all__ = ["SUITES"]


def _suite_orthogonality(q, max_n, budget, samples, seed):
    from .oracle import PatternGroup, brute_inner_product_table

    checks = 0
    for n in range(2, max_n + 1):
        G = PatternGroup.full(n, q, max_size=budget)
        labels = G.superclass_table().labels
        rows = [row["values"] for row in G.character_table()]
        table = brute_inner_product_table(G, rows, rows)
        for lam, row in zip(labels, table):
            for mu, got in zip(labels, row):
                want = Fraction(q ** lam.num_crossings()) if lam == mu else Fraction(0)
                if got.as_rational() != want:
                    return False, "inner(%s, %s) = %s at n=%d" % (
                        lam.to_text(), mu.to_text(), got, n
                    )
                checks += 1
    return True, "%d inner products" % checks


def _suite_restriction(q, max_n, budget, samples, seed):
    check_walk_budget(max_n, q, budget, "the restriction suite on")
    checks = 0
    for n in range(2, max_n + 1):
        for parts in set_partitions(range(1, n + 1)):
            K = PartitionIndex(n, parts)
            # K's labels and the monomial rows of its characters, shared by every lam
            labels = list(enumerate_compatible(K, q))
            rows = _value_rows(labels, labels, K, q)
            for lam, res in restriction_table(K, q).items():
                for mu, got in zip(labels, _combo_coords(res, labels, q, rows)):
                    if got != _mono_coords(_char_value_std(lam.arcs, mu.arcs, q), q):
                        return False, "Res %s to %s at %s" % (
                            lam.to_text(), K.to_text(), mu.to_text()
                        )
                    checks += 1
    return True, "%d pointwise values" % checks


def _suite_tensor(q, max_n, budget, samples, seed):
    check_walk_budget(max_n, q, budget, "the tensor suite on")
    rnd = random.Random(seed)
    checks = 0
    # exhaustive pointwise correctness on small groups, read off one
    # monomial table per group: chi^lam chi^mu is a product of monomials
    for n in range(2, min(max_n, 4) + 1):
        amb = PartitionIndex.full(n)
        labels = list(enumerate_compatible(amb, q))
        rows = _value_rows(labels, labels, amb, q)
        for lam, mu in itertools.product(labels, repeat=2):
            t = tensor(CharCombo.of(lam, amb), CharCombo.of(mu, amb), q)
            got = _combo_coords(t, labels, q, rows)
            for nu, value, m1, m2 in zip(labels, got, rows[lam], rows[mu]):
                want = m1 and m2 and (m1[0] + m2[0], (m1[1] + m2[1]) % q)
                if value != _mono_coords(want, q):
                    return False, "%s (x) %s at %s" % (
                        lam.to_text(), mu.to_text(), nu.to_text()
                    )
                checks += 1
    # seeded commutativity check at the largest size, on at most ``samples``
    # distinct pairs of different characters, each counted once
    amb = PartitionIndex.full(max_n)
    labels = list(enumerate_compatible(amb, q))
    pairs = len(labels) * (len(labels) - 1) // 2
    for t in sorted(rnd.sample(range(pairs), min(samples, pairs))):
        # pair number t is (i, j) with t = j(j-1)/2 + i and i < j
        j = (1 + math.isqrt(1 + 8 * t)) // 2
        lam, mu = labels[t - j * (j - 1) // 2], labels[j]
        a = tensor(CharCombo.of(lam, amb), CharCombo.of(mu, amb), q)
        b = tensor(CharCombo.of(mu, amb), CharCombo.of(lam, amb), q)
        if a != b:
            return False, "commutativity %s (x) %s" % (lam.to_text(), mu.to_text())
        checks += 1
    return True, "%d checks" % checks


def _suite_superinduction(q, max_n, budget, samples, seed):
    from .oracle import PatternGroup, brute_superinduction_table
    from .reference import superinduce_trivial_twoblock

    checks = 0
    for n in range(2, max_n + 1):
        G = PatternGroup.full(n, q, max_size=budget)
        g_labels = G.superclass_table().labels
        norms = [q ** lam.num_crossings() for lam in g_labels]
        for parts in set_partitions(range(1, n + 1)):
            K = PartitionIndex(n, parts)
            H = PatternGroup.parabolic(K, q, max_size=budget)
            labels = H.superclass_table().labels
            # chi^mu at H's superclasses, one row per mu, from K's monomial rows
            chi_rows = [[Cyclotomic._make(q, _mono_coords(m, q)) for m in row]
                        for row in _value_rows(labels, labels, K, q).values()]
            table = superinduction_table(K, q)
            for mu, wants in zip(labels, brute_superinduction_table(G, H, chi_rows)):
                for lam, norm, want in zip(g_labels, norms, wants):
                    # <SInd chi^mu, chi^lam> is the coefficient times q^cr(lam)
                    want = want.as_rational()
                    if want is None or table[mu].coeff(lam).eval_at(q) * norm != want:
                        return False, "SInd %s from %s, coefficient of %s" % (
                            mu.to_text(), K.to_text(), lam.to_text()
                        )
                    checks += 1
        # closed form for the two-block trivial case
        for k in range(1, n):
            K = PartitionIndex(n, [range(1, k + 1), range(k + 1, n + 1)])
            trivial = LabeledSetPartition(range(1, n + 1), [])
            if superinduce(trivial, K, q) != superinduce_trivial_twoblock(k, n, q):
                return False, "closed form at k=%d n=%d" % (k, n)
            checks += 1
    return True, "%d coefficients" % checks


def _suite_words(q, max_n, budget, samples, seed):
    from . import ncsym as nc
    from .reference import _labeled_of_parts, _star_K_product_words

    checks = 0
    for total in range(2, max_n + 1):
        for m in range(1, total):
            n = total - m
            for block1 in itertools.combinations(range(1, total + 1), m):
                block2 = tuple(v for v in range(1, total + 1) if v not in block1)
                K = PartitionIndex(total, [block1, block2])
                for mp in set_partitions(range(1, m + 1)):
                    for np_ in set_partitions(range(1, n + 1)):
                        glued = union_K(
                            _labeled_of_parts(mp, m), _labeled_of_parts(np_, n), K
                        )
                        x = nc.NCSymElem.single(
                            "p", nc.canonical_index(PartitionIndex(m, mp))
                        )
                        y = nc.NCSymElem.single(
                            "p", nc.canonical_index(PartitionIndex(n, np_))
                        )
                        product = nc.star_K_product(x, y, K)
                        where = "p_%s *_%s p_%s" % (
                            PartitionIndex(m, mp).to_text(),
                            K.to_text(),
                            PartitionIndex(n, np_).to_text(),
                        )
                        # the word-by-word product keeps the check independent
                        # of the m-basis rule
                        if product != _star_K_product_words(x, y, K):
                            return False, where + " differs from the word product"
                        rhs = nc.NCSymElem.single(
                            "p",
                            nc.canonical_index(PartitionIndex(total, glued.parts())),
                        )
                        if nc.p_from_m(product) != rhs:
                            return False, where
                        checks += 1
    return True, "%d products" % checks


def _suite_charmap(q, max_n, budget, samples, seed):
    from .reference import characteristic_map_check

    if q != 2:
        raise ValueError("the characteristic map lives at q = 2")
    ok = characteristic_map_check(max_n, budget=budget)
    return ok, "degrees up to %d" % max_n


SUITES = {
    "orthogonality": _suite_orthogonality,
    "restriction": _suite_restriction,
    "tensor": _suite_tensor,
    "superinduction": _suite_superinduction,
    "words": _suite_words,
    "charmap": _suite_charmap,
}
