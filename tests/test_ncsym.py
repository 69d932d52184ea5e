"""Symmetric functions in non-commuting variables: bases, shuffles, the bridge."""

import gc
import itertools
import math
import random
from fractions import Fraction

import pytest

from superchar.ncsym import (
    NCSymElem,
    _coarsenings_with_mobius,
    canonical_index,
    concat_product,
    m_from_p,
    p_from_m,
    star_K_product,
)
from superchar.setpart import PartitionIndex, set_partitions
from superchar.verify import SUITES

from routes import (
    WordExpansion,
    _star_K_product_words,
    coarsenings,
    expand,
    m_expand,
    mobius_partition,
    mobius_telescope_check,
    star_K_product_classes,
)

BELL = (1, 1, 2, 5, 15, 52, 203)


def pidx(n, parts):
    return PartitionIndex(n, parts)


def m_single(n, parts, coeff=1):
    return NCSymElem.single("m", pidx(n, parts), coeff)


def p_single(n, parts, coeff=1):
    return NCSymElem.single("p", pidx(n, parts), coeff)


def indices(n):
    return [canonical_index(pidx(n, parts)) for parts in set_partitions(range(1, n + 1))]


def assert_stored_exactly(coeffs):
    """Each coefficient is an int exactly when integral, else a Fraction in
    lowest terms, and none is zero."""
    for c in coeffs.values():
        assert c != 0
        if type(c) is not int:
            assert type(c) is Fraction
            assert c.denominator != 1 and math.gcd(c.numerator, c.denominator) == 1


class TestPartitionLattice:
    def test_coarsening_counts(self):
        for n in range(1, 6):
            discrete = pidx(n, [[i] for i in range(1, n + 1)])
            assert len(coarsenings(discrete)) == BELL[n]
            assert coarsenings(PartitionIndex.full(n)) == [PartitionIndex.full(n)]

    def test_every_coarsening_is_refined_by_the_start(self):
        for parts in set_partitions(range(1, 5)):
            K = pidx(4, parts)
            for M in coarsenings(K):
                assert K.refines(M)

    def test_mobius_spot_values(self):
        for parts in set_partitions(range(1, 4)):
            K = pidx(3, parts)
            assert mobius_partition(K, K) == 1
        chain = [pidx(n, [[i] for i in range(1, n + 1)]) for n in range(2, 5)]
        # mu from the discrete to the one-block partition: (-1)^(n-1) (n-1)!
        assert mobius_partition(chain[0], PartitionIndex.full(2)) == -1
        assert mobius_partition(chain[1], PartitionIndex.full(3)) == 2
        assert mobius_partition(chain[2], PartitionIndex.full(4)) == -6

    def test_telescope(self):
        for n in range(1, 7):
            assert mobius_telescope_check(n)

    def test_coarsening_walk_mobius_matches_the_interval_formula(self):
        for n in range(7):
            for parts in set_partitions(range(1, n + 1)):
                K = pidx(n, parts)
                seen = []
                for parts_of_M, mu in _coarsenings_with_mobius(K):
                    M = pidx(n, parts_of_M)
                    assert M.parts == M.grouping()
                    assert mu == mobius_partition(K, M)
                    seen.append(M)
                assert len(set(seen)) == len(seen) == BELL[len(parts)]


class TestWordExpansion:
    def test_monomial_expansion_two_letters(self):
        two_blocks = m_expand(pidx(2, [[1], [2]]), 2)
        assert two_blocks.coeffs == {(1, 2): 1, (2, 1): 1}
        one_block = m_expand(pidx(2, [[1, 2]]), 2)
        assert one_block.coeffs == {(1, 1): 1, (2, 2): 1}

    def test_degree_zero(self):
        empty = m_expand(PartitionIndex.from_text("{}"), 0)
        assert empty.coeffs == {(): 1}

    def test_too_few_letters_warns_and_vanishes(self):
        with pytest.warns(UserWarning):
            out = m_expand(pidx(2, [[1], [2]]), 1)
        assert not out

    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            # the class of (1,2) also contains (2,1)
            WordExpansion(2, 2, {(1, 2): 1})
        with pytest.raises(ValueError):
            WordExpansion(2, 2, {(1, 2): 1, (2, 1): 2})
        with pytest.raises(ValueError):
            WordExpansion(2, 2, {(1, 2, 1): 1})
        with pytest.raises(ValueError):
            WordExpansion(2, 2, {(1, 3): 1, (3, 1): 1})

    def test_class_coefficients(self):
        x = m_single(2, [[1], [2]], Fraction(1, 2)) + m_single(2, [[1, 2]], 3)
        classes = expand(x, 3).class_coefficients()
        assert classes == {((1,), (2,)): Fraction(1, 2), ((1, 2),): Fraction(3)}

    def test_expand_is_the_sum_of_monomial_expansions(self):
        x = p_single(3, [[1], [2], [3]], Fraction(-2, 3)) + p_single(3, [[1, 3], [2]], 5)
        total = WordExpansion(4, 3, {})
        for K, c in m_from_p(x).coeffs.items():
            total = total + m_expand(K, 4).scale(c)
        assert expand(x, 4) == total


class TestBasisChange:
    def test_degree_two_goldens(self):
        assert m_from_p(p_single(2, [[1], [2]])) == (
            m_single(2, [[1], [2]]) + m_single(2, [[1, 2]])
        )
        assert m_from_p(p_single(2, [[1, 2]])) == m_single(2, [[1, 2]])
        assert p_from_m(m_single(2, [[1], [2]])) == (
            p_single(2, [[1], [2]]) + p_single(2, [[1, 2]], -1)
        )

    def test_wrong_basis_rejected(self):
        with pytest.raises(ValueError):
            p_from_m(p_single(2, [[1, 2]]))
        with pytest.raises(ValueError):
            m_from_p(m_single(2, [[1, 2]]))

    def test_round_trips(self):
        for n in range(1, 7):
            for parts in set_partitions(range(1, n + 1)):
                m = m_single(n, parts)
                assert m_from_p(p_from_m(m)) == m
                p = p_single(n, parts)
                assert p_from_m(m_from_p(p)) == p


class TestShuffleProducts:
    def test_two_singletons(self):
        x = m_single(1, [[1]])
        out = star_K_product(x, x, pidx(2, [[1], [2]]))
        assert out == m_single(2, [[1], [2]]) + m_single(2, [[1, 2]])

    def test_interleaved_index(self):
        x = m_single(2, [[1, 2]])
        y = m_single(1, [[1]])
        out = star_K_product(x, y, pidx(3, [[1, 3], [2]]))
        assert out == m_single(3, [[1, 3], [2]]) + m_single(3, [[1, 2, 3]])

    def test_index_validation(self):
        x = m_single(1, [[1]])
        with pytest.raises(ValueError):
            star_K_product(x, x, pidx(2, [[1, 2]]))
        with pytest.raises(ValueError):
            star_K_product(x, x, pidx(3, [[1], [2, 3]]))
        with pytest.raises(ValueError):
            star_K_product(m_single(2, [[1, 2]]), x, pidx(3, [[1], [2, 3]]))

    def test_concat_is_the_interval_shuffle(self):
        x = m_single(2, [[1], [2]])
        y = m_single(2, [[1, 2]])
        assert concat_product(x, y) == star_K_product(x, y, pidx(4, [[1, 2], [3, 4]]))

    def test_matches_the_word_product(self):
        # every single-factor pair along every two-block index, in all four
        # basis pairings: the class route, the word route and the m-basis
        # rule agree up to total degree 4, the class route and the rule at 5
        for total in range(2, 6):
            for m in range(1, total):
                for block1 in itertools.combinations(range(1, total + 1), m):
                    block2 = [v for v in range(1, total + 1) if v not in block1]
                    K = pidx(total, [block1, block2])
                    for (bx, by), pa, pb in itertools.product(
                        ["mm", "mp", "pm", "pp"],
                        set_partitions(range(1, m + 1)),
                        set_partitions(range(1, total - m + 1)),
                    ):
                        x = NCSymElem.single(bx, pidx(m, pa))
                        y = NCSymElem.single(by, pidx(total - m, pb))
                        got = star_K_product(x, y, K)
                        want = star_K_product_classes(x, y, K)
                        assert got == want, (x.to_text(), y.to_text(), K)
                        assert got.to_text() == want.to_text()
                        if total <= 4:
                            assert _star_K_product_words(x, y, K) == want

    def test_mixed_basis_factors(self):
        x = m_single(2, [[1], [2]], 3) + m_single(2, [[1, 2]], Fraction(1, 2))
        y = p_single(2, [[1], [2]], -1)
        K = pidx(4, [[1, 3], [2, 4]])
        out = star_K_product(x, y, K)
        assert out.basis == "m"
        assert out == star_K_product(x, m_from_p(y), K)
        assert out == _star_K_product_words(x, y, K) == star_K_product_classes(x, y, K)
        assert star_K_product(y, x, K) == _star_K_product_words(y, x, K)
        assert star_K_product(y, x, K) == star_K_product_classes(y, x, K)

    def test_leaves_no_cyclic_garbage(self):
        x = m_single(3, [[1, 3], [2]])
        y = m_single(2, [[1], [2]])
        K = pidx(5, [[1, 2, 4], [3, 5]])
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            star_K_product(x, y, K)
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()

    def test_concat_associativity(self):
        for a in range(1, 5):
            for b in range(1, 5):
                for c in range(1, 5):
                    if a + b + c > 6:
                        continue
                    for pa in set_partitions(range(1, a + 1)):
                        x = m_single(a, pa)
                        for pb in set_partitions(range(1, b + 1)):
                            y = m_single(b, pb)
                            for pc in set_partitions(range(1, c + 1)):
                                z = m_single(c, pc)
                                assert concat_product(
                                    concat_product(x, y), z
                                ) == concat_product(x, concat_product(y, z))


class TestSerialization:
    def test_json_round_trip_keeps_exact_fractions(self):
        x = m_single(3, [[1, 3], [2]], Fraction(1, 2)) + m_single(
            3, [[1, 2, 3]], Fraction(-7, 3)
        )
        blob = x.to_json()
        assert blob["basis"] == "m" and blob["degree"] == 3
        assert sorted(t["coeff"] for t in blob["terms"]) == ["-7/3", "1/2"]
        assert NCSymElem.from_json(blob) == x

    def test_text_rendering(self):
        x = m_single(2, [[1], [2]], Fraction(1, 2))
        assert x.to_text() == "(1/2)*m[{1|2}]"

    @pytest.mark.parametrize("degree", [2.7, 2.0, "2", True])
    def test_a_non_int_degree_is_refused(self, degree):
        blob = {"basis": "m", "degree": degree, "terms": [{"partition": "{1,2}", "coeff": 1}]}
        with pytest.raises(TypeError, match="degree must be an int"):
            NCSymElem.from_json(blob)
        with pytest.raises(TypeError, match="degree must be an int"):
            NCSymElem("m", degree, {})

    def test_a_negative_degree_is_refused(self):
        with pytest.raises(ValueError, match="degree must be nonnegative, not -1"):
            NCSymElem("m", -1, {})
        with pytest.raises(ValueError, match="degree must be nonnegative, not -2"):
            NCSymElem.from_json({"basis": "p", "degree": -2, "terms": []})
        assert not NCSymElem("m", 0, {})

    def test_repeated_terms_are_summed(self):
        terms = [
            {"partition": "{1,2}", "coeff": 1},
            {"partition": "{1|2}", "coeff": "1/2"},
            {"partition": "{1,2}", "coeff": 2},
            {"partition": "{2|1}", "coeff": "-1/2"},
        ]
        x = NCSymElem.from_json({"basis": "m", "degree": 2, "terms": terms})
        assert x == m_single(2, [[1, 2]], 3)

    @pytest.mark.parametrize(
        "blob, message",
        [
            ([], "NCSym JSON form must be an object"),
            ({}, "no 'basis' field"),
            ({"basis": "m", "terms": []}, "no 'degree' field"),
            ({"basis": "m", "degree": 2}, "no 'terms' field"),
            ({"basis": "m", "degree": 2, "terms": {}}, "terms must be a list"),
            ({"basis": "m", "degree": 2, "terms": [[]]}, "term JSON form must be an object"),
            ({"basis": "m", "degree": 2, "terms": [{"coeff": 1}]}, "no 'partition' field"),
            ({"basis": "m", "degree": 2, "terms": [{"partition": "{1,2}"}]}, "no 'coeff' field"),
        ],
    )
    def test_json_that_is_not_a_full_object_is_refused(self, blob, message):
        with pytest.raises(ValueError, match=message):
            NCSymElem.from_json(blob)


class TestBridge:
    def test_products_match_across_the_bridge(self):
        # the group side is charmap's, the NCSym side words' glue check
        assert SUITES["charmap"](2, 3, None, 0, 0) == (True, "degrees up to 3")
        assert SUITES["words"](2, 3, None, 0, 0) == (True, "14 products")


class TestCoefficients:
    """Coefficients are stored as ints when integral, else as Fractions;
    the boundary sets this and refuses floats."""

    def test_the_boundary_normalizes(self):
        K, M = pidx(2, [[1], [2]]), pidx(2, [[1, 2]])
        x = NCSymElem("m", 2, {K: Fraction(4, 2), M: "3/6"})
        assert_stored_exactly(x.coeffs)
        assert type(x.coeff(K)) is int and x.coeff(M) == Fraction(1, 2)
        assert NCSymElem("m", 2, {K: Fraction(0), M: 0}).coeffs == {}
        assert type(NCSymElem.single("p", K, Fraction(-6, 3)).coeff(K)) is int
        assert type(NCSymElem.zero("m", 2).coeff(K)) is int
        assert_stored_exactly(x.scale(Fraction(2)).coeffs)
        assert_stored_exactly(x.scale(Fraction(4, 6)).coeffs)
        assert_stored_exactly(NCSymElem.from_json(x.to_json()).coeffs)
        assert NCSymElem.from_json(x.to_json()) == x

    def test_floats_are_refused(self):
        K = pidx(2, [[1], [2]])
        # Fraction(0.1) is the binary fraction 3602879701896397/36028797018963968
        with pytest.raises(TypeError, match="float"):
            NCSymElem("m", 2, {K: 0.1})
        with pytest.raises(TypeError, match="float"):
            NCSymElem.single("p", K, 0.5)
        with pytest.raises(TypeError, match="float"):
            NCSymElem.single("m", K).scale(0.5)
        blob = {"basis": "m", "degree": 2, "terms": [{"partition": "{1|2}", "coeff": 0.5}]}
        with pytest.raises(TypeError, match="float"):
            NCSymElem.from_json(blob)

    def test_a_zero_denominator_is_refused(self):
        K = pidx(2, [[1], [2]])
        with pytest.raises(ValueError, match="zero denominator"):
            NCSymElem("m", 2, {K: "2/0"})
        blob = {"basis": "m", "degree": 2, "terms": [{"partition": "{1|2}", "coeff": "1/0"}]}
        with pytest.raises(ValueError, match="zero denominator"):
            NCSymElem.from_json(blob)

    def test_repr_shows_the_element(self):
        assert repr(p_single(2, [[1], [2]])) == "NCSymElem(p, (1)*p[{1|2}])"
        assert repr(m_single(2, [[1, 2]], Fraction(-1, 2))) == "NCSymElem(m, (-1/2)*m[{1,2}])"
        assert repr(NCSymElem.zero("m", 3)) == "NCSymElem(m, 0)"

    def test_every_operation_keeps_the_invariant(self):
        half = Fraction(1, 2)
        x = m_single(2, [[1], [2]], half) + m_single(2, [[1, 2]], Fraction(3, 2))
        y = p_single(2, [[1], [2]], Fraction(2, 3)) + p_single(2, [[1, 2]], Fraction(-1, 3))
        K = pidx(4, [[1, 3], [2, 4]])
        results = [
            x + m_single(2, [[1], [2]], half),
            x - x,
            x.scale(2),
            y.scale(Fraction(3, 2)),
            star_K_product(x, y, K),
            star_K_product(x.scale(2), y.scale(3), K),
            concat_product(y, x),
            p_from_m(x),
            m_from_p(y),
            p_from_m(m_from_p(y)),
            _star_K_product_words(x, y, K),
            _star_K_product_words(x.scale(2), y.scale(3), K),
            star_K_product_classes(x, y, K),
            star_K_product_classes(x.scale(2), y.scale(3), K),
        ]
        for out in results:
            assert_stored_exactly(out.coeffs)
        assert type(star_K_product(x.scale(2), y.scale(3), K).coeff(pidx(4, [[1, 2, 3, 4]]))) is int
        for e in (expand(x, 3), expand(y.scale(3)), m_expand(pidx(2, [[1], [2]]), 2)):
            assert_stored_exactly(e.coeffs)
            assert_stored_exactly(e.class_coefficients())
        assert_stored_exactly(expand(x, 3).scale(2).coeffs)
        assert_stored_exactly((expand(x, 3) + expand(x, 3)).coeffs)


def _fraction_fold(x, with_mobius):
    """The basis change term by term in Fractions: each coefficient goes
    to every coarsening, times the Mobius value for the m-to-p direction."""
    out = {}
    for K, c in x.coeffs.items():
        for M in coarsenings(K):
            w = mobius_partition(K, M) if with_mobius else 1
            out[M] = out.get(M, Fraction(0)) + Fraction(c) * w
    return {M: c for M, c in out.items() if c}


class TestBasisChangeOverACommonDenominator:
    """p_from_m and m_from_p sum in ints over the input's least common
    denominator; they must equal the Fraction fold on every index of
    degree at most 5."""

    DENOMINATORS = (2, 3, 4, 6)

    def _check(self, x):
        p_or_m = p_from_m if x.basis == "m" else m_from_p
        got = p_or_m(x)
        assert_stored_exactly(got.coeffs)
        assert got.coeffs == _fraction_fold(x, x.basis == "m"), x

    def test_seeded_combinations(self):
        rnd = random.Random(5)
        for n in range(1, 6):
            idx = indices(n)
            for K in idx:
                others = rnd.sample(idx, min(2, len(idx)))
                coeffs = {
                    M: Fraction(rnd.choice((-7, -5, -3, -1, 1, 2, 3, 5)), rnd.choice(self.DENOMINATORS))
                    for M in [K] + others
                }
                for basis in "mp":
                    self._check(NCSymElem(basis, n, coeffs))

    def test_sums_that_cancel_to_zero_or_an_integer(self):
        # With K and the one-block index F in the support, F's output
        # coefficient is c_F + c_K * w (w the Mobius value, or 1): choosing
        # c_F cancels it to 0 or to the integer 1.
        for n in range(2, 6):
            F = PartitionIndex.full(n)
            for K in indices(n):
                if K == F:
                    continue
                for basis, w in (("m", mobius_partition(K, F)), ("p", 1)):
                    for d in self.DENOMINATORS:
                        c = Fraction(1, d)
                        for target in (0, 1):
                            x = NCSymElem(basis, n, {K: c, F: target - c * w})
                            got = (p_from_m if basis == "m" else m_from_p)(x)
                            assert got.coeff(F) == target
                            self._check(x)

    def test_every_single_element(self):
        for n in range(6):
            for K in indices(n):
                for basis in "mp":
                    for c in (1, Fraction(-5, 6)):
                        self._check(NCSymElem.single(basis, K, c))
