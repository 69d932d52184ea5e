"""Top-level acceptance checks, one test per headline guarantee.

Each test states a complete mathematical claim and verifies it exactly
(integer, rational, or cyclotomic arithmetic throughout -- no floats).
The slow group-theoretic sweeps run from this file, not from the
per-module tests, so `pytest tests/test_acceptance.py -v` reads as the
engine's checklist; four of them call verify suites (`superchar.verify`),
asserted with their exact check counts.
"""

import itertools
import time
from fractions import Fraction

from superchar.oracle import PatternGroup
from superchar.qcoeff import Cyclotomic, LaurentPoly
from superchar.ring import CharCombo, char_value, restrict, tensor
from superchar.setpart import (
    LabeledSetPartition,
    PartitionIndex,
    count_sn,
    enumerate_compatible,
)
from superchar.verify import SUITES

from routes import (
    char_values_of_functional,
    permchar_hypothesis_check,
    sg_identity_a,
    sg_identity_b,
    sg_ones,
    sg_sow,
    sinfres_identities_check,
)


def lsp(n, arcs):
    return LabeledSetPartition(range(1, n + 1), [tuple(a) for a in arcs])


def suite(name, p, max_n):
    """The verify suite's report on U_n(p) for every n <= max_n, at the
    oracle's default group bound; the detail counts every check made."""
    return SUITES[name](p, max_n, None, 0, 0)


def term_dict(combo):
    """A combination as {sorted arc triples: coefficient}."""
    return {t.arcs: c for t, c in combo.terms.items()}


def test_criterion_01_interval_restriction_worked_example():
    """Restriction from U_7 to the interval subgroup on {2..5}: four golden
    decompositions, exact symbolic coefficients, for every arc label at
    p in {2, 3, 5}.  Runs in under a second."""
    K = PartitionIndex(7, [[1], [2, 3, 4, 5], [6], [7]])
    one = LaurentPoly.one()
    started = time.perf_counter()
    for p in (2, 3, 5):
        for a in range(1, p):
            # an arc already inside the interval restricts to itself
            got = term_dict(restrict(lsp(7, [(2, 5, a)]), K, p))
            assert got == {((2, 5, a),): one}

            # left endpoint one step outside: trivial character plus every
            # relocated left endpoint, all with coefficient 1
            got = term_dict(restrict(lsp(7, [(1, 5, a)]), K, p))
            want = {(): one}
            for j in (2, 3, 4):
                for b in range(1, p):
                    want[((j, 5, b),)] = one
            assert got == want

            # both endpoints outside, arc spanning the whole interval:
            # q(4q-3) on the trivial term, q(q-1) on every arc inside
            got = term_dict(restrict(lsp(7, [(1, 7, a)]), K, p))
            want = {(): LaurentPoly({2: 4, 1: -3})}
            for j, k in ((2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)):
                for b in range(1, p):
                    want[((j, k, b),)] = LaurentPoly({2: 1, 1: -1})
            assert got == want

            # arc leaving the interval on the right: a factor of q remains
            got = term_dict(restrict(lsp(7, [(5, 7, a)]), K, p))
            assert got == {(): LaurentPoly({1: 1})}
    assert time.perf_counter() - started < 1.0


def test_criterion_02_tensor_worked_example():
    """The two-crossing tensor square in U_6 at p = 3.  The displayed
    constituent families with coefficients q(2q-1) and q(q-1)^2 carry the
    merged label b+d on the long arc and therefore land on the same three
    terms; each term's total coefficient evaluates to
    q(2q-1) + q(q-1)^2 = q^3 = 27 at q = 3.  Requires d != -b."""
    full6 = PartitionIndex.full(6)
    q = LaurentPoly({1: 1})
    family_total = q * LaurentPoly({1: 2, 0: -1}) + q * LaurentPoly({1: 1, 0: -1}) ** 2
    want_coeff = family_total.eval_at(Fraction(3))
    assert want_coeff == Fraction(27)

    started = time.perf_counter()
    for b, d in ((1, 1), (2, 2)):  # the two choices with d != -b mod 3
        assert (b + d) % 3 != 0
        x = CharCombo.of(lsp(6, [(1, 6, 1), (2, 5, b)]), full6)
        y = CharCombo.of(lsp(6, [(1, 4, 1), (2, 5, d)]), full6)
        got = term_dict(tensor(x, y, 3))
        bd = (b + d) % 3
        want_terms = {((1, 6, 1), (2, 5, bd))} | {
            ((1, 6, 1), (2, 5, bd), (3, 4, e)) for e in (1, 2)
        }
        assert set(got) == want_terms
        for coeff in got.values():
            assert coeff.eval_at(Fraction(3)) == want_coeff
    assert time.perf_counter() - started < 1.0


def test_criterion_03_restriction_matches_direct_evaluation():
    """For every labeled partition, every subgroup index K, and every
    superclass of U_K: the restricted combination evaluates to the same
    cyclotomic number as the original character does on that superclass.
    Exhaustive for n <= 5 at p = 2 and n <= 4 at p = 3."""
    assert suite("restriction", 2, 5) == (True, "19582 pointwise values")
    assert suite("restriction", 3, 4) == (True, "7054 pointwise values")


def test_criterion_04_orthogonality_under_group_average():
    """<chi^lam, chi^mu> over the full group equals q^{#crossings(lam)}
    when lam == mu and 0 otherwise, for all pairs, n <= 4, p in {2, 3}.
    The inner product side is the independent enumeration oracle."""
    assert suite("orthogonality", 2, 4) == (True, "254 inner products")
    assert suite("orthogonality", 3, 4) == (True, "2531 inner products")


def test_criterion_05_superinduction_triangle():
    """Three independent computations of superinduction agree: the
    branching pipeline, the definition-based double average, and (for a
    two-block index and the trivial character) the closed form.  All
    coefficients compared exactly after evaluating q at p.
    n <= 4 at p = 2, n <= 3 at p = 3."""
    assert suite("superinduction", 2, 4) == (True, "972 coefficients")
    assert suite("superinduction", 3, 3) == (True, "246 coefficients")


def test_criterion_06_zero_one_matrix_identities():
    """Summing (q-1)^ones(w) q^sow(w) over 0-1 matrices with at most one 1
    per row and column gives q^{mn}; the corner-signed sum vanishes.  Both
    verified symbolically in q for all m, n <= 4, in under a second.  The
    3x4 matrix with 1s at (1,2) and (2,4) has ones = 2, sow = 6."""
    w = ((0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0))
    assert sg_ones(w) == 2
    assert sg_sow(w) == 6

    started = time.perf_counter()
    for m in range(1, 5):
        for n in range(1, 5):
            assert sg_identity_a(m, n) == LaurentPoly({m * n: 1}), (m, n)
            assert sg_identity_b(m, n) == LaurentPoly.zero(), (m, n)
    assert time.perf_counter() - started < 1.0


def test_criterion_07_characteristic_map_is_multiplicative():
    """Both sides of the characteristic map respect the glued product.
    Group side (p = 2, degrees m+n <= 4): superinducing the product of
    scaled superclass indicators z_mu*kappa_mu gives the scaled indicator
    of the glued superclass.  NCSym side (degrees m+n <= 6): the
    coarsening-sum basis satisfies p_mu *_K p_nu = p_{mu union_K nu} for
    every two-block shuffle, with the product computed by the m-basis
    (Rosas-Sagan) rule; the words verify suite makes this check, and first
    checks each product against the class route, which tests/test_ncsym.py
    checks against the word-by-word product."""
    assert suite("charmap", 2, 4) == (True, "degrees up to 4")
    assert suite("words", 2, 6) == (True, "2452 products")


def test_criterion_08_labeled_partition_counting():
    """count_sn(n, 2) runs through the Bell numbers, and for p in {2, 3}
    the count matches exhaustive enumeration up to n = 6."""
    bell = (1, 1, 2, 5, 15, 52, 203)
    for n, b in enumerate(bell):
        assert count_sn(n, 2) == b
    for p in (2, 3):
        for n in range(0, 7):
            assert count_sn(n, p) == sum(
                1 for _ in enumerate_compatible(PartitionIndex.full(n), p)
            )


def test_criterion_09_inflation_restriction_product_identities():
    """The four product identities relating a character to its inflated
    restrictions hold pointwise on every superclass, for every admissible
    vertex quadruple i < j < k < l and all labels: n <= 5 at p = 2, and
    n = 4 at p = 3 with every label pair (a, b), where a + b = 0 mod 3 for
    two pairs and the fourth identity, for a + b != 0, runs on the other two."""
    for n in (4, 5):
        for i, j, k, l in itertools.combinations(range(1, n + 1), 4):
            assert sinfres_identities_check(i, j, k, l, 1, 1, n, 2), (i, j, k, l, n)
    for a, b in itertools.product((1, 2), repeat=2):
        assert sinfres_identities_check(1, 2, 3, 4, a, b, 4, 3), (a, b)


def test_criterion_10_permutation_character_factorization_remark():
    """For the non-parabolic pattern subgroup of U_3 missing the (2,3)
    entry, the proportionality hypothesis fails -- the subgroup character
    takes value 1 where its inflation takes value 0 -- yet superinduction
    still factors through the inflation with coefficient q^{-1}.
    Checked at p in {2, 3}."""
    for p in (2, 3):
        H = PatternGroup(3, [(1, 2), (1, 3)], p)
        G = PatternGroup.full(3, p)
        hypothesis, conclusion, ratio = permchar_hypothesis_check(G, H, {(1, 3): 1})
        assert hypothesis is False
        assert conclusion is True
        assert ratio == Fraction(1, p)

        # the two displayed values behind the failed hypothesis
        values = char_values_of_functional(H, {(1, 3): 1})
        assert values[H.class_of_label(lsp(3, [(1, 2, 1)]))] == Cyclotomic.one(p)
        lam = lsp(3, [(1, 3, 1)])
        mu = lsp(3, [(1, 2, 1)])
        assert char_value(lam, mu, p) == Cyclotomic.zero(p)
