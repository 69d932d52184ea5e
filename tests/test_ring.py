"""The supercharacter calculus over a pattern group: values, branching, products."""

import gc
import importlib
import itertools
import pkgutil
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superchar.qcoeff import Cyclotomic, LaurentPoly
from superchar.ring import (
    CharCombo,
    char_value,
    chi_to_kappa,
    combo_value,
    degree,
    inner_product,
    kappa_to_chi,
    restrict,
    restrict_combo,
    restriction_table,
    sinf,
    star_K,
    superinduce,
    superinduction_table,
    tensor,
)
import superchar
from superchar import ring
from superchar.setpart import (
    LabeledSetPartition,
    PartitionIndex,
    enumerate_compatible,
    set_partitions,
    union_K,
)
from superchar.verify import superinduce_trivial_twoblock

from routes import (
    _parts_are_intervals_within,
    reflect_combo,
    reflect_index,
    reflect_partition,
    superinduce_via_permchar,
)


def lsp(n, arcs):
    return LabeledSetPartition(range(1, n + 1), [tuple(a) for a in arcs])


def refinements(L):
    """Every index K whose parts each sit inside a part of L."""
    per_part = [list(set_partitions(part)) for part in L.parts]
    for choice in itertools.product(*per_part):
        yield PartitionIndex(L.n, [block for blocks in choice for block in blocks])


class TestDegree:
    def test_spot_values(self):
        assert degree(lsp(3, [])) == LaurentPoly.one()
        assert degree(lsp(7, [(1, 7, 1)])) == LaurentPoly({5: 1})
        # nested arcs multiply: one vertex under 1-4 not counting... each arc
        # contributes q^(right-left-1) regardless of nesting
        assert degree(lsp(4, [(1, 4, 1), (2, 3, 1)])) == LaurentPoly({2: 1})
        nine = LabeledSetPartition.from_text("n=9; 1-5:1, 5-7:2, 2-3:1, 6-8:1, 8-9:2")
        assert degree(nine) == LaurentPoly({5: 1})

    def test_identity_superclass_value_is_the_degree(self):
        for p in (2, 3):
            for lam in enumerate_compatible(PartitionIndex.full(4), p):
                empty = lsp(4, [])
                want = Cyclotomic.from_rational(p, degree(lam).eval_at(p))
                assert char_value(lam, empty, p) == want

    def test_linear_iff_every_arc_is_adjacent(self):
        for lam in enumerate_compatible(PartitionIndex.full(5), 2):
            linear = degree(lam) == LaurentPoly.one()
            assert linear == all(l == i + 1 for i, l, _ in lam.arcs)

    def test_degree_inside_a_subgroup_skips_gap_vertices(self):
        K = PartitionIndex(3, [[1, 3], [2]])
        lam = lsp(3, [(1, 3, 1)])
        assert degree(lam, K) == LaurentPoly.one()
        assert degree(lam) == LaurentPoly({1: 1})


class TestCharValue:
    def test_single_arc_on_its_own_superclass(self):
        # n=3: value is q * zeta^(a*b), no crossing correction
        for p in (2, 3, 5):
            for a in range(1, p):
                for b in range(1, p):
                    got = char_value(lsp(3, [(1, 3, a)]), lsp(3, [(1, 3, b)]), p)
                    want = Cyclotomic.from_rational(p, p) * Cyclotomic.zeta_power(
                        p, (a * b) % p
                    )
                    assert got == want

    def test_vanishing_when_a_shorter_arc_nests_strictly(self):
        for p in (2, 3):
            got = char_value(lsp(3, [(1, 3, 1)]), lsp(3, [(1, 2, 1)]), p)
            assert got == Cyclotomic.zero(p)

    def test_support_mismatch_rejected(self):
        with pytest.raises(ValueError):
            char_value(lsp(3, []), lsp(4, []), 2)

    def test_value_inside_subgroup_standardizes_each_part(self):
        K = PartitionIndex(3, [[1, 3], [2]])
        lam = lsp(3, [(1, 3, 1)])
        # inside U_K the part {1,3} is a two-vertex group: value is zeta^1 = -1
        assert char_value(lam, lam, 2, K) == -Cyclotomic.one(2)


def per_arc_value(lam_arcs, mu_arcs, p):
    """chi^lam(u_mu) object at a time: 0 when an arc of mu shares an end
    with an arc of lam and is shorter, else the product over lam's arcs
    i-l:a of the Cyclotomic p^(l-i-1-inside) * zeta^(a*t), with t the label
    of mu's arc i-l (0 if none) and ``inside`` the arcs of mu under i-l."""
    total = Cyclotomic.one(p)
    for i, l, a in lam_arcs:
        if any((j == i and k < l) or (k == l and j > i) for j, k, _ in mu_arcs):
            return Cyclotomic.zero(p)
        inside = sum(1 for j, k, _ in mu_arcs if i < j and k < l)
        t = next((b for j, k, b in mu_arcs if (j, k) == (i, l)), 0)
        total = total * (p ** (l - i - 1 - inside) * Cyclotomic.zeta_power(p, a * t))
    return total


def per_part_value(lam, mu, K, p):
    """chi^lam(u_mu) inside U_K: the product over the parts of K of
    ``per_arc_value`` on the arcs inside the part, renumbered 1..m."""
    total = Cyclotomic.one(p)
    for part in K.parts:
        rank = {v: t for t, v in enumerate(part, 1)}
        lam_loc, mu_loc = (
            [(rank[i], rank[l], a) for i, l, a in x.arcs if i in rank and l in rank]
            for x in (lam, mu)
        )
        total = total * per_arc_value(lam_loc, mu_loc, p)
    return total


def summed_value(x, mu, p):
    """combo_value as a sum of Cyclotomic objects, one term at a time."""
    total = Cyclotomic.zero(p)
    for lam, c in x.terms.items():
        total = total + c.eval_at(p) * per_part_value(lam, mu, x.ambient, p)
    return total


def assert_canonical(v):
    """Every integral coordinate is stored as an int."""
    assert all(type(c) is int or (type(c) is Fraction and c.denominator != 1) for c in v.coords)


def small_parabolics():
    """(K, p) for every parabolic U_K of U_n(p), n <= 3 and p in {2, 3, 5},
    and of U_4(2); the one-part index is the full group."""
    for p, top in ((2, 4), (3, 3), (5, 3)):
        for n in range(1, top + 1):
            for parts in set_partitions(range(1, n + 1)):
                yield PartitionIndex(n, parts), p


class TestMonomialValues:
    """Values are built from monomials p^e zeta^k and one coordinate
    vector per result; they equal the object-at-a-time routes exactly."""

    def test_char_values_match_the_per_arc_products(self):
        for K, p in small_parabolics():
            labels = list(enumerate_compatible(K, p))
            full = len(K.parts) == 1
            for lam in labels:
                for mu in labels:
                    got = char_value(lam, mu, p, K)
                    assert got == per_part_value(lam, mu, K, p), (K.to_text(), lam, mu)
                    assert_canonical(got)
                    if full:
                        assert char_value(lam, mu, p) == got

    def test_combo_values_match_the_cyclotomic_sums(self):
        for K, p in small_parabolics():
            full = PartitionIndex.full(K.n)
            g_labels = list(enumerate_compatible(full, p))
            k_labels = list(enumerate_compatible(K, p))
            combos = [(restrict(nu, K, p), k_labels) for nu in g_labels]
            combos += [(superinduce(mu, K, p), g_labels) for mu in k_labels]
            for x, labels in combos:
                for mu in labels:
                    got = combo_value(x, mu, p)
                    assert got == summed_value(x, mu, p), (x.to_text(), mu)
                    assert_canonical(got)


class TestValueTables:
    """The verify suites read a combination's values at every label off one
    monomial table; each value's coordinates are exactly ``combo_value``'s."""

    @staticmethod
    def assert_coords_match(x, labels, p, rows=None):
        got = ring._combo_coords(x, labels, p, rows)
        assert got == [combo_value(x, mu, p).coords for mu in labels], x.to_text()

    def test_monomial_coords_are_cyclotomic_coords(self):
        for p in (2, 3, 5):
            assert ring._mono_coords(None, p) == Cyclotomic.zero(p).coords
            for e in range(3):
                for k in range(p):
                    want = (Cyclotomic.zeta_power(p, k) * p ** e).coords
                    assert ring._mono_coords((e, k), p) == want

    def test_every_tensor_and_restriction_suite_result(self):
        for p in (2, 3):
            for n in range(2, 5):
                full = PartitionIndex.full(n)
                labels = list(enumerate_compatible(full, p))
                rows = ring._value_rows(labels, labels, full, p)
                for i, lam in enumerate(labels):
                    # tensor commutes, so each unordered pair gives one result
                    for mu in labels[i:]:
                        x = tensor(CharCombo.of(lam, full), CharCombo.of(mu, full), p)
                        self.assert_coords_match(x, labels, p, rows)
                for parts in set_partitions(range(1, n + 1)):
                    K = PartitionIndex(n, parts)
                    k_labels = list(enumerate_compatible(K, p))
                    k_rows = ring._value_rows(k_labels, k_labels, K, p)
                    for lam in labels:
                        x = restrict_combo(CharCombo.of(lam, full), K, p)
                        # the suite's route and restrict's are one rule
                        assert x == restrict(lam, K, p)
                        self.assert_coords_match(x, k_labels, p, k_rows)

    def test_a_coefficient_with_a_negative_power_of_q(self):
        x = superinduce(lsp(4, [(1, 3, 1)]), PartitionIndex(4, [(1, 2, 3), (4,)]), 2)
        assert any(e < 0 for c in x.terms.values() for e in c.coeffs)
        labels = list(enumerate_compatible(PartitionIndex.full(4), 2))
        self.assert_coords_match(x, labels, 2)
        # rows missing some terms are completed
        partial = ring._value_rows(list(x.terms)[:1], labels, x.ambient, 2)
        self.assert_coords_match(x, labels, 2, partial)


@st.composite
def value_cases(draw):
    """p and two labeled set partitions of one n <= 7: each vertex in turn
    starts no arc, or one labeled arc to a later vertex that ends none."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    n = draw(st.integers(0, 7))

    def partition():
        ended, arcs = set(), []
        for i in range(1, n + 1):
            l = draw(st.sampled_from([None] + [l for l in range(i + 1, n + 1) if l not in ended]))
            if l is not None:
                ended.add(l)
                arcs.append((i, l, draw(st.integers(1, p - 1))))
        return lsp(n, arcs)

    return p, partition(), partition()


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(value_cases())
def test_char_value_is_the_per_arc_product(case):
    p, lam, mu = case
    got = char_value(lam, mu, p)
    assert got == per_arc_value(lam.arcs, mu.arcs, p)
    assert_canonical(got)


class TestLabelRange:
    """Arc labels are nonzero residues mod p: every public rule that takes
    p refuses a label p or larger instead of computing with it."""

    def test_out_of_range_labels_are_refused(self):
        bad = lsp(3, [(1, 3, 5)])
        good = lsp(3, [(1, 3, 1)])
        K = PartitionIndex(3, [[1, 3], [2]])
        full = PartitionIndex.full(3)
        calls = [
            lambda: restrict(bad, K, 2),
            lambda: restrict_combo(CharCombo.of(bad), K, 2),
            lambda: tensor(CharCombo.of(good), CharCombo.of(bad), 2),
            lambda: tensor(CharCombo.of(bad), CharCombo.of(good), 2),
            lambda: superinduce(bad, K, 2),
            lambda: superinduce(lsp(3, [(1, 3, 2)]), K, 2, L=full),
            lambda: star_K(lsp(2, [(1, 2, 2)]), lsp(1, []), PartitionIndex(3, [[1, 2], [3]]), 2),
            lambda: star_K(lsp(1, []), lsp(2, [(1, 2, 3)]), PartitionIndex(3, [[1], [2, 3]]), 3),
            lambda: char_value(bad, good, 2),
            lambda: char_value(good, bad, 2),
            lambda: char_value(bad, good, 2, K),
            lambda: char_value(good, bad, 2, K),
            lambda: combo_value(CharCombo.of(bad), good, 2),
            lambda: combo_value(CharCombo.of(good), bad, 2),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="outside 1..[12]"):
                call()

    def test_straightening_refuses_labels_outside_the_field(self):
        # 2 at p = 2 would read as 0; a 0 pair cancels before any arc survives
        for arcs, n, p in (
            ([(1, 2, 3)], 2, 2),
            ([(1, 3, 2), (1, 3, 2)], 3, 2),
            ([(1, 3, 0), (1, 3, 0)], 3, 3),
            ([(1, 2, -1)], 2, 3),
        ):
            with pytest.raises(ValueError, match="has a label outside 1..%d" % (p - 1)):
                ring.straighten(arcs, n, p)

    def test_straightening_refuses_arcs_that_are_not_ints(self):
        # 1.5-3:1 was kept in a partition that rendered as 1-3:1
        for arc in ((1.5, 3, 1), (True, 3, 1), (1, 3, 1.0)):
            with pytest.raises(TypeError, match="an arc end or label must be an int"):
                ring.straighten([arc], 3, 2)

    def test_straightening_refuses_arcs_that_are_not_three_values(self):
        # refused by name, as the partition constructor refuses them, not by
        # the unpacking error of the range check
        for arc in ((1, 3), (1, 3, 1, 9)):
            with pytest.raises(ValueError, match=r"^arc %s is not \(left, right, label\)$"
                               % re.escape(repr(arc))):
                ring.straighten([arc], 3, 2)

    def test_the_largest_label_is_accepted(self):
        lam = lsp(3, [(1, 3, 2)])
        K = PartitionIndex(3, [[1, 3], [2]])
        # vertex 2 lies under the arc but outside its part of K
        assert restrict(lam, K, 3) == CharCombo.of(lam, K, LaurentPoly.q_power(1))
        assert char_value(lam, lam, 3) == char_value(lam, lam, 3, PartitionIndex.full(3))


# each rule that takes p, on a valid input, keyed by its name
NOT_PRIME_CALLS = {
    "restrict": lambda p: restrict(lsp(3, []), PartitionIndex(3, [[1, 2], [3]]), p),
    "restrict_combo": lambda p: restrict_combo(
        CharCombo.of(lsp(3, [])), PartitionIndex(3, [[1, 2], [3]]), p),
    "tensor": lambda p: tensor(CharCombo.of(lsp(3, [])), CharCombo.of(lsp(3, [])), p),
    # U_3's trivial character from {1,2|3} was induced at p = 1 to (1)*chi[n=3]
    "superinduce": lambda p: superinduce(lsp(3, []), PartitionIndex(3, [[1, 2], [3]]), p),
    "star_K": lambda p: star_K(lsp(2, []), lsp(1, []), PartitionIndex(3, [[1, 2], [3]]), p),
    # chi(u) at p = 4 was the Cyclotomic(p=4, 4*z) of a field that does not exist
    "char_value": lambda p: char_value(lsp(3, [(1, 3, 1)]), lsp(3, [(1, 3, 1)]), p),
    "combo_value": lambda p: combo_value(CharCombo.of(lsp(3, [])), lsp(3, []), p),
    "chi_to_kappa": lambda p: chi_to_kappa(CharCombo.of(lsp(2, [])), p),
    "straighten": lambda p: ring.straighten([], 3, p),
    "restriction_table": lambda p: restriction_table(PartitionIndex(3, [[1, 2], [3]]), p),
    "superinduction_table": lambda p: superinduction_table(PartitionIndex(3, [[1, 2], [3]]), p),
    # no values was the empty answer at any p
    "kappa_to_chi": lambda p: kappa_to_chi({}, p),
}


@pytest.mark.parametrize("p", [1, 4])
@pytest.mark.parametrize("rule", sorted(NOT_PRIME_CALLS))
def test_a_rule_refuses_a_p_that_is_not_prime(rule, p):
    with pytest.raises(ValueError, match="^p must be prime, got %d$" % p):
        NOT_PRIME_CALLS[rule](p)


class TestIndexSize:
    """A partition on another n than the index is refused by every public
    rule that takes both, with one message."""

    def test_a_partition_off_the_index_n_is_refused(self):
        chi, u = lsp(3, [(1, 3, 1)]), lsp(5, [(1, 3, 1)])
        arc = lsp(2, [(1, 2, 1)])
        full, full3 = PartitionIndex.full(5), PartitionIndex.full(3)
        K = PartitionIndex(3, [[1, 2], [3]])
        calls = [
            (lambda: restrict(chi, full, 2), 3, 5),
            (lambda: superinduce(arc, K, 2), 2, 3),
            (lambda: superinduce(lsp(5, [(4, 5, 1)]), full3, 2), 5, 3),
            (lambda: sinf(arc, K, full3), 2, 3),
            (lambda: char_value(chi, u, 2, full), 3, 5),
            (lambda: char_value(u, chi, 2, full), 3, 5),
            (lambda: char_value(chi, u, 2), 5, 3),
            (lambda: degree(chi, full), 3, 5),
            (lambda: combo_value(CharCombo.of(chi), u, 2), 5, 3),
        ]
        for call, n, k in calls:
            with pytest.raises(ValueError, match="partition has n=%d, the index n=%d" % (n, k)):
                call()


class TestStraddlingArcs:
    """A partition with an arc across two parts of the index is no label of
    U_K: every public rule that takes both refuses it, as ``CharCombo``
    does, where the values and degrees dropped the arc."""

    def test_a_partition_across_the_parts_is_refused(self):
        K = PartitionIndex(3, [[1, 2], [3]])
        across, empty, inside = lsp(3, [(1, 3, 1)]), lsp(3, []), lsp(3, [(1, 2, 1)])
        calls = [
            lambda: degree(across, K),
            lambda: char_value(empty, across, 2, K),
            lambda: char_value(across, empty, 2, K),
            lambda: combo_value(CharCombo.of(inside, K), across, 2),
            lambda: superinduce(across, K, 2),
            lambda: sinf(across, K, PartitionIndex.full(3)),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"arc 1-3 straddles the parts of \{1,2\|3\}"):
                call()


class TestCountedOnce:
    """``superinduce`` reads mu's crossings off its one check, and
    ``combo_value`` checks only the labels of terms already on the
    ambient: both still refuse what they refused."""

    def test_mu_across_two_parts_is_refused(self):
        K = PartitionIndex(4, [[1, 2], [3, 4]])
        for L in (None, PartitionIndex.full(4)):
            with pytest.raises(ValueError, match=r"arc 2-3 straddles the parts of \{1,2\|3,4\}"):
                superinduce(lsp(4, [(2, 3, 1)]), K, 2, L)

    def test_a_term_label_p_or_larger_is_refused(self):
        # a combination built at p = 5 and read at p = 3, on two parts
        K = PartitionIndex(4, [[1, 2], [3, 4]])
        x = CharCombo(K, [(lsp(4, [(1, 2, 4), (3, 4, 1)]), 1)])
        assert combo_value(x, lsp(4, []), 5) == Cyclotomic.one(5)
        with pytest.raises(ValueError, match="arc 1-2:4 has a label outside 1..2"):
            combo_value(x, lsp(4, []), 3)


class TestRestrict:
    def test_pointwise_against_direct_evaluation(self):
        # small sweep; the full one is in the acceptance suite
        for p in (2, 3):
            for lam in enumerate_compatible(PartitionIndex.full(3), p):
                for parts in set_partitions(range(1, 4)):
                    K = PartitionIndex(3, parts)
                    res = restrict(lam, K, p)
                    for mu in enumerate_compatible(K, p):
                        assert combo_value(res, mu, p) == char_value(lam, mu, p)

    def test_reflection_equivariance(self):
        for n in range(2, 6):
            for lam in enumerate_compatible(PartitionIndex.full(n), 2):
                for parts in set_partitions(range(1, n + 1)):
                    K = PartitionIndex(n, parts)
                    mirrored = restrict(reflect_partition(lam), reflect_index(K), 2)
                    assert mirrored == reflect_combo(restrict(lam, K, 2))

    def test_restriction_is_transitive(self):
        # restricting from U_n to U_L and then to U_K equals restricting
        # straight to U_K; the second step runs on a non-full ambient.  The
        # label sums make coefficients p-specific (2 against q at p = 2 for
        # 1-3 down to {1|2|3}), so compare at q = p
        for p, max_n in ((2, 4), (3, 4)):
            for n in range(2, max_n + 1):
                full = PartitionIndex.full(n)
                indices = [PartitionIndex(n, parts) for parts in set_partitions(range(1, n + 1))]
                for lam in enumerate_compatible(full, p):
                    x = CharCombo.of(lam, full)
                    for L in indices:
                        via_L = restrict_combo(x, L, p)
                        for K in refinements(L):
                            a = restrict_combo(via_L, K, p)
                            b = restrict_combo(x, K, p)
                            assert a.ambient == b.ambient
                            for mu in set(a.terms) | set(b.terms):
                                assert a.coeff(mu).eval_at(Fraction(p)) == b.coeff(
                                    mu
                                ).eval_at(Fraction(p))


class TestTensor:
    def test_values_multiply_pointwise(self):
        for p in (2, 3):
            full = PartitionIndex.full(3)
            chars = classes = list(enumerate_compatible(full, p))
            for lam in chars:
                for mu in chars:
                    prod = tensor(CharCombo.of(lam, full), CharCombo.of(mu, full), p)
                    for nu in classes:
                        assert combo_value(prod, nu, p) == char_value(
                            lam, nu, p
                        ) * char_value(mu, nu, p)

    def test_values_multiply_pointwise_on_two_part_ambients(self):
        for p, max_n in ((2, 4), (3, 3)):
            for n in range(2, max_n + 1):
                for parts in set_partitions(range(1, n + 1)):
                    K = PartitionIndex(n, parts)
                    if len(K.parts) != 2:
                        continue
                    labels = list(enumerate_compatible(K, p))
                    for lam in labels:
                        for mu in labels:
                            x, y = CharCombo.of(lam, K), CharCombo.of(mu, K)
                            prod = tensor(x, y, p)
                            for nu in labels:
                                assert combo_value(prod, nu, p) == combo_value(
                                    x, nu, p
                                ) * combo_value(y, nu, p)

    def test_single_arc_products_multiply_pointwise(self):
        # every pair of labeled arcs sharing an end, through every case of
        # the subset bracket: labels that do not cancel need p > 2, and the
        # nested j-k arcs of the merged case need n = 4
        for p, max_n in ((2, 5), (3, 4), (5, 3)):
            for n in range(2, max_n + 1):
                full = PartitionIndex.full(n)
                classes = list(enumerate_compatible(full, p))
                arcs = [
                    (i, l, a) for i, l in itertools.combinations(range(1, n + 1), 2)
                    for a in range(1, p)
                ]
                for x, y in itertools.product(arcs, repeat=2):
                    if x[0] != y[0] and x[1] != y[1]:
                        continue
                    terms = [(lsp(n, t), c) for t, c in ring.tensor_pair(x, y, p)]
                    prod = CharCombo(full, terms)
                    lam, mu = lsp(n, [x]), lsp(n, [y])
                    for nu in classes:
                        assert combo_value(prod, nu, p) == char_value(
                            lam, nu, p
                        ) * char_value(mu, nu, p)

    def test_the_unchecked_single_arc_product_is_not_public(self):
        # tensor_pair checks neither labels nor arcs; straighten checks both
        # before it calls it, and the module attribute stays for it
        assert "tensor_pair" not in ring.__all__
        assert callable(ring.tensor_pair)

    def test_straightening_refuses_a_rewrite_that_does_not_shrink(self, monkeypatch):
        # the rewrite of 1-2 and 1-4 is replaced by one of the same measure
        # (two arcs, total length 4); straightening must stop, not loop
        stuck = [(((1, 4, 1), (2, 3, 1)), LaurentPoly.one())]
        monkeypatch.setattr(ring, "tensor_pair", lambda arc1, arc2, p: stuck)
        with pytest.raises(RuntimeError, match="measure must drop"):
            ring.straighten([(1, 2, 1), (1, 4, 1)], 4, 2)

    def test_straightening_refuses_arcs_off_the_group(self):
        # two copies of 5-6:1 cancel at p = 2, leaving no arc off {1..4}
        # behind, so only an input check can refuse them
        for arcs in ([(5, 6, 1), (5, 6, 1)], [(3, 2, 1)], [(0, 2, 1)]):
            with pytest.raises(ValueError):
                ring.straighten(arcs, 4, 2)

    def test_commutes_on_random_pairs(self):
        rng = random.Random(21)
        full = PartitionIndex.full(6)
        pool = list(enumerate_compatible(full, 2))
        for _ in range(40):
            lam, mu = rng.choice(pool), rng.choice(pool)
            x, y = CharCombo.of(lam, full), CharCombo.of(mu, full)
            assert tensor(x, y, 2) == tensor(y, x, 2)

    def test_square_of_a_long_arc_at_p_two(self):
        # chi^{1-4} twice: the label sum collapses and every shorter
        # constituent shows up once (checked pointwise by the exhaustive
        # value sweep above and frozen here as a golden)
        x = CharCombo.of(lsp(4, [(1, 4, 1)]))
        got = tensor(x, x, 2)
        want_terms = [
            [],
            [(1, 2, 1)],
            [(1, 2, 1), (2, 4, 1)],
            [(1, 2, 1), (3, 4, 1)],
            [(1, 3, 1)],
            [(1, 3, 1), (2, 4, 1)],
            [(1, 3, 1), (3, 4, 1)],
            [(2, 4, 1)],
            [(3, 4, 1)],
        ]
        want = CharCombo(
            PartitionIndex.full(4), [(lsp(4, arcs), LaurentPoly.one()) for arcs in want_terms]
        )
        assert got == want


def straightened_extend(product, step, p):
    """``ring._extend`` without its fast paths: every bracket term, the
    empty diagram too, is multiplied in by straightening."""
    ri, rl, a = step
    i, l = (ri + 1) // 2, rl // 2 + 1
    if ri & rl & 1:
        bracket = [(((i, l, a),), LaurentPoly.one())]
    else:
        bracket = ring._bracket(i, l, bool(ri & 1), bool(rl & 1), p)
    acc = {}
    for arcs1, c1 in product.items():
        for arcs2, c2 in bracket:
            for arcs, c in ring._straighten(arcs1 + arcs2, p).items():
                ring._add(acc, arcs, c1 * c2 * c)
    return acc


class TestRestrictionFactor:
    """The work ``_trace`` and ``_extend`` leave out changes no factor."""

    def test_an_arc_with_one_end_kept_and_nothing_under_it_is_the_identity(self):
        # ranks one apart: _trace drops the step, since its bracket is 1
        for p in (2, 3, 5):
            for i in range(6):
                assert ring._bracket(i, i + 1, True, False, p) == (((), 1),)
                assert ring._bracket(i, i + 1, False, True, p) == (((), 1),)

    def test_the_bracket_table_cannot_be_mutated(self):
        for left, right in ((True, False), (False, True), (False, False)):
            bracket = ring._bracket(1, 5, left, right, 3)
            assert type(bracket) is tuple
            assert all(type(term) is tuple and type(term[0]) is tuple for term in bracket)

    def test_an_arc_sharing_no_end_is_straight_already(self):
        for p in (2, 3):
            for n in range(1, 6):
                for lam in enumerate_compatible(PartitionIndex.full(n), p):
                    arcs = tuple(tuple(arc) for arc in lam.arcs)
                    lefts, rights = {i for i, _, _ in arcs}, {l for _, l, _ in arcs}
                    for i, l in itertools.combinations(range(1, n + 1), 2):
                        if i in lefts or l in rights:
                            continue
                        for a in range(1, p):
                            got = ring._straighten(arcs + ((i, l, a),), p)
                            assert got == {tuple(sorted(arcs + ((i, l, a),))): 1}

    def test_the_fast_paths_change_no_factor(self, monkeypatch, fresh_factor_table):
        # every factor that the superinductions of n <= 5 at p = 2 build,
        # each once in the emptied table: 122 distinct (factor, step) products
        fast, products = ring._extend, set()

        def checked(product, step, p):
            got = fast(product, step, p)
            assert got == straightened_extend(product, step, p), (product, step)
            products.add((frozenset(product.items()), step))
            return got

        monkeypatch.setattr(ring, "_extend", checked)
        for n in range(2, 6):
            for K in refinements(PartitionIndex.full(n)):
                for mu in enumerate_compatible(K, 2):
                    superinduce(mu, K, 2)
        assert len(products) == 122

    def test_no_reader_mutates_a_cached_factor(self, fresh_factor_table):
        # the table hands its dicts to every reader: after every rule has
        # read them on every parabolic of U_n(2), n <= 5, the factors of all
        # labels' traces are the same objects, equal to copies taken before
        def snapshot(factor):
            return {arcs: dict(c.coeffs) for arcs, c in factor.items()}

        held = {}
        for n in range(1, 6):
            labels = list(enumerate_compatible(PartitionIndex.full(n), 2))
            for K in refinements(PartitionIndex.full(n)):
                layout = ring._layout(K, PartitionIndex.full(n))
                for nu in labels:
                    for rank, block in layout.walk:
                        trace = ring._trace(nu.arcs, rank, block, layout.where)
                        held[trace] = ring._factor(trace, 2)
        copies = {trace: snapshot(factor) for trace, factor in held.items()}
        for n in range(1, 6):
            full = PartitionIndex.full(n)
            labels = list(enumerate_compatible(full, 2))
            x = CharCombo(full, [(nu, t + 1) for t, nu in enumerate(labels)])
            for K in refinements(full):
                restriction_table(K, 2)
                superinduction_table(K, 2)
                restrict_combo(x, K, 2)
                for nu in labels:
                    restrict(nu, K, 2)
                for mu in enumerate_compatible(K, 2):
                    superinduce(mu, K, 2)
        assert len(held) > 100
        assert all(ring._factor(trace, 2) is factor for trace, factor in held.items())
        assert {trace: snapshot(factor) for trace, factor in held.items()} == copies


def rule_results(cases, copy=lambda K: K, full_l=False):
    """The rendered results of every rule that reads the index tables, on
    each (K, p, labels) of ``cases``, K passed through ``copy`` and the
    walkers given L = None, or the full group if ``full_l``."""
    out = []
    for K, p, nus in cases:
        K, full = copy(K), PartitionIndex.full(K.n)
        target = full if full_l else None
        x = CharCombo(full, [(nu, t + 1) for t, nu in enumerate(nus)])
        y = restrict_combo(x, K, p)
        mus = list(enumerate_compatible(K, p))[-3:]
        out.append([restrict(nu, K, p).to_text() for nu in nus])
        out.append([y.to_text(), tensor(y, y, p).to_text()])
        out.append([(k.to_text(), v.to_text()) for k, v in restriction_table(K, p, target).items()])
        out.append([superinduce(mu, K, p, target).to_text() for mu in mus])
        out.append([(k.to_text(), v.to_text())
                    for k, v in superinduction_table(K, p, target).items()])
    return out


class TestIndexTables:
    """The rules read each index's structure from two tables keyed by the
    indices alone (``ring._layout``, ``ring._steps``): a result is the same
    whether they hold its entries or not."""

    @staticmethod
    def cases():
        rng = random.Random(39)
        cases = []
        for n, p in ((4, 2), (5, 2), (4, 3)):
            labels = list(enumerate_compatible(PartitionIndex.full(n), p))
            indices = [PartitionIndex(n, parts) for parts in set_partitions(range(1, n + 1))]
            cases += [(K, p, rng.sample(labels, 3)) for K in rng.sample(indices, 5)]
        return cases

    def test_cold_and_warm_tables_give_the_same_results(self, fresh_factor_table):
        cases = self.cases()
        cold = rule_results(cases)
        assert ring._layout.cache_info().misses and ring._steps.cache_info().misses
        tables = (ring._layout, ring._steps)
        hits = [table.cache_info().hits for table in tables]
        assert rule_results(cases) == cold
        assert all(table.cache_info().hits > h for table, h in zip(tables, hits))

    def test_equal_indices_and_the_default_l_share_their_results(self, fresh_factor_table):
        cases = self.cases()
        want = rule_results(cases)
        assert rule_results(cases, copy=lambda K: PartitionIndex(K.n, K.parts)) == want
        assert rule_results(cases, full_l=True) == want
        ring._layout.cache_clear()
        ring._steps.cache_clear()
        assert rule_results(cases, full_l=True) == want

    def test_a_k_that_does_not_refine_l_is_refused_after_k_is_cached(self, fresh_factor_table):
        K, L = PartitionIndex(4, [[1, 3], [2, 4]]), PartitionIndex(4, [[1, 2], [3, 4]])
        mu = lsp(4, [(1, 3, 1)])
        restrict(lsp(4, [(1, 4, 1)]), K, 2)
        superinduce(mu, K, 2)
        calls = [
            lambda: restrict_combo(CharCombo.of(lsp(4, []), L), K, 2),
            lambda: restriction_table(K, 2, L),
            lambda: superinduce(mu, K, 2, L),
            lambda: superinduction_table(K, 2, L),
        ]
        for call in calls * 2:
            with pytest.raises(ValueError, match="the subgroup must refine the target"):
                call()


def test_every_process_table_is_bounded():
    # a table kept for the life of the process holds at most maxsize entries
    tables = {}
    for info in pkgutil.iter_modules(superchar.__path__):
        module = importlib.import_module("superchar." + info.name)
        for obj in vars(module).values():
            for fn in [obj, *vars(obj).values()] if isinstance(obj, type) else [obj]:
                fn = getattr(fn, "__func__", fn)
                if hasattr(fn, "cache_parameters"):
                    tables[fn.__qualname__] = fn.cache_parameters()["maxsize"]
    assert len(tables) >= 8, sorted(tables)
    assert [name for name, bound in tables.items() if bound is None] == []


class TestSuperinduce:
    def test_frobenius_reciprocity(self):
        # <SInd_K^L chi^mu, chi^nu> = <chi^mu, Res chi^nu> as formal Laurent
        # polynomials, for every K refining L, intermediate L included
        for p, max_n in ((2, 5), (3, 4)):
            for n in range(2, max_n + 1):
                for parts in set_partitions(range(1, n + 1)):
                    L = PartitionIndex(n, parts)
                    nus = [CharCombo.of(nu, L) for nu in enumerate_compatible(L, p)]
                    for K in refinements(L):
                        down = [restrict_combo(x_nu, K, p) for x_nu in nus]
                        for mu, lifted in superinduction_table(K, p, L).items():
                            x_mu = CharCombo.of(mu, K)
                            for x_nu, res in zip(nus, down):
                                assert inner_product(lifted, x_nu) == inner_product(x_mu, res)

    def test_the_table_is_the_per_mu_calls(self):
        # every (K, L) with K refining L, at n <= 5 for p = 2 and n <= 4 for p = 3:
        # the columns are the per-mu superinductions, the rows the per-nu
        # restrictions, and a combination of every nu restricts as their sum
        calls = [0, 0]
        for p, max_n in ((2, 5), (3, 4)):
            for n in range(1, max_n + 1):
                for parts in set_partitions(range(1, n + 1)):
                    L = PartitionIndex(n, parts)
                    nus = list(enumerate_compatible(L, p))
                    coeffs = [LaurentPoly.q_power(t % 3 - 1, t + 1) for t in range(len(nus))]
                    x = CharCombo(L, zip(nus, coeffs))
                    for K in refinements(L):
                        cols = {mu: superinduce(mu, K, p, L) for mu in enumerate_compatible(K, p)}
                        rows = {nu: restrict_combo(CharCombo.of(nu, L), K, p) for nu in nus}
                        for table, want in (
                            (superinduction_table(K, p, L), cols),
                            (restriction_table(K, p, L), rows),
                        ):
                            assert table == want, (K.to_text(), L.to_text(), p)
                            assert {key: y.to_text() for key, y in table.items()} == {
                                key: y.to_text() for key, y in want.items()
                            }
                        calls[0] += len(cols)
                        calls[1] += len(rows)
                        total = CharCombo.zero(K)
                        for nu, c in zip(nus, coeffs):
                            total = total + rows[nu].scale(c)
                        assert restrict_combo(x, K, p) == total, (K.to_text(), L.to_text(), p)
        assert calls == [1821, 6984]

    def test_past_n_five_it_is_the_adjoint_of_the_per_nu_restriction(self):
        # n = 6, p = 2, a seeded sample of three-block and of non-contiguous
        # K, each mu with arcs: the coefficient of chi^nu is q^(cr_K mu - cr nu)
        # times that of chi^mu in restrict(nu, K, 2), a route that carries
        # no traces through the label walk
        rng = random.Random(6)
        full = PartitionIndex.full(6)
        nus = list(enumerate_compatible(full, 2))
        indices = [PartitionIndex(6, parts) for parts in set_partitions(range(1, 7))]
        three = [K for K in indices if len(K.parts) == 3]
        gapped = [K for K in indices if any(part[-1] - part[0] >= len(part) for part in K.parts)]
        checked = 0
        for K in rng.sample(three, 6) + rng.sample(gapped, 6):
            rows = {nu: restrict(nu, K, 2) for nu in nus}
            with_arcs = [mu for mu in enumerate_compatible(K, 2) if mu.arcs]
            for mu in rng.sample(with_arcs, min(4, len(with_arcs))):
                c_mu = mu.crossings_within(K)
                want = CharCombo(full, [
                    (nu, row.coeff(mu).shift(c_mu - nu.num_crossings())) for nu, row in rows.items()])
                got = superinduce(mu, K, 2)
                assert got == want, (mu.to_text(), K.to_text())
                assert got.to_text() == want.to_text()
                checked += bool(got)
        assert checked >= 40

    def test_the_table_defaults_to_the_full_group_and_checks_the_indices(self):
        K = PartitionIndex(4, [[1, 3], [2, 4]])
        full = PartitionIndex.full(4)
        assert superinduction_table(K, 3) == superinduction_table(K, 3, full)
        with pytest.raises(ValueError, match="refine"):
            superinduction_table(full, 2, K)
        with pytest.raises(ValueError, match="refine"):
            superinduction_table(K, 2, PartitionIndex.full(5))
        assert restriction_table(K, 3) == restriction_table(K, 3, full)
        for bad in ((full, 2, K), (K, 2, PartitionIndex.full(5))):
            with pytest.raises(ValueError, match="the source of restriction"):
                restriction_table(*bad)

    def test_trivial_character_from_an_atom(self):
        got = superinduce(lsp(3, []), PartitionIndex(3, [[1], [2, 3]]), 2)
        want = CharCombo(
            PartitionIndex.full(3),
            [
                (lsp(3, []), LaurentPoly.one()),
                (lsp(3, [(1, 2, 1)]), LaurentPoly.one()),
                (lsp(3, [(1, 3, 1)]), LaurentPoly.one()),
            ],
        )
        assert got == want

    def test_incompatible_character_is_refused(self):
        # the arc 1-3 straddles the parts {1} and {2,3}, so mu is no
        # supercharacter of U_K
        K = PartitionIndex(3, [[1], [2, 3]])
        with pytest.raises(ValueError, match="straddles"):
            superinduce(lsp(3, [(1, 3, 1)]), K, 2)
        with pytest.raises(ValueError, match="straddles"):
            superinduce(lsp(3, [(1, 3, 1)]), K, 2, L=K)

    def test_factorized_route_agrees_on_interval_indices(self):
        for p, max_n in ((2, 4), (3, 3)):
            for n in range(2, max_n + 1):
                full = PartitionIndex.full(n)
                for parts in set_partitions(range(1, n + 1)):
                    K = PartitionIndex(n, parts)
                    if not _parts_are_intervals_within(K, full):
                        continue
                    for mu in enumerate_compatible(K, p):
                        a = superinduce(mu, K, p)
                        b = superinduce_via_permchar(mu, K, p)
                        for lam in set(a.terms) | set(b.terms):
                            assert a.coeff(lam).eval_at(Fraction(p)) == b.coeff(
                                lam
                            ).eval_at(Fraction(p))

    def test_factorized_route_refuses_gapped_parts(self):
        # with a gap in a part the factorization is not an identity (the
        # enumeration oracle exhibits value-level failures), so the route
        # refuses rather than answer wrongly
        K = PartitionIndex(4, [[1, 4], [2, 3]])
        with pytest.raises(ValueError):
            superinduce_via_permchar(lsp(4, [(1, 4, 1)]), K, 2)

    def test_empty_character_reduces_to_the_closed_form(self):
        for p in (2, 3):
            for n in range(2, 5):
                for k in range(1, n):
                    K = PartitionIndex(n, [range(1, k + 1), range(k + 1, n + 1)])
                    got = superinduce_via_permchar(lsp(n, []), K, p)
                    assert got == superinduce_trivial_twoblock(k, n, p)

    def test_trivial_character_renders_like_the_closed_form(self):
        # deep enough that traces share prefixes, so the prefix memo is used
        for p, sizes in ((2, range(5, 9)), (3, range(4, 6))):
            for n in sizes:
                for k in range(1, n):
                    K = PartitionIndex(n, [range(1, k + 1), range(k + 1, n + 1)])
                    got = superinduce(lsp(n, []), K, p).to_text()
                    assert got == superinduce_trivial_twoblock(k, n, p).to_text(), (p, n, k)

    def test_leaves_no_cyclic_garbage(self):
        K = PartitionIndex(7, [[1, 2, 3], [4, 5, 6, 7]])
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            superinduce(lsp(7, []), K, 2)
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()

    def test_closed_form_degree_sum_is_a_q_power(self):
        # evaluating the two-block trivial superinduction at the identity
        # must give q^(k(n-k)); the label sums make the coefficients
        # p-specific, so compare at q=p
        for p in (2, 3):
            for n in range(2, 7):
                for k in range(1, n):
                    total = Fraction(0)
                    for lam, coeff in superinduce_trivial_twoblock(k, n, p).terms.items():
                        total += (coeff * degree(lam)).eval_at(Fraction(p))
                    assert total == Fraction(p ** (k * (n - k)))


class TestStarProduct:
    def test_smallest_glued_square(self):
        e1 = LabeledSetPartition((1,), [])
        K = PartitionIndex(2, [[1], [2]])
        got = star_K(e1, e1, K, 2)
        want = CharCombo(
            PartitionIndex.full(2),
            [(lsp(2, []), LaurentPoly.one()), (lsp(2, [(1, 2, 1)]), LaurentPoly.one())],
        )
        assert got == want
        got3 = star_K(e1, e1, K, 3)
        assert set(got3.terms) == {lsp(2, []), lsp(2, [(1, 2, 1)]), lsp(2, [(1, 2, 2)])}

    def test_glued_character_is_a_nonzero_constituent(self):
        p = 2
        for total in range(2, 5):
            for m in range(1, total):
                n = total - m
                for block1 in itertools.combinations(range(1, total + 1), m):
                    block2 = tuple(v for v in range(1, total + 1) if v not in block1)
                    K = PartitionIndex(total, [block1, block2])
                    for lam in enumerate_compatible(PartitionIndex.full(m), p):
                        for mu in enumerate_compatible(PartitionIndex.full(n), p):
                            prod = star_K(lam, mu, K, p)
                            glued = union_K(lam, mu, K)
                            assert prod.coeff(glued) != LaurentPoly.zero(), (
                                lam.to_text(),
                                mu.to_text(),
                                K.to_text(),
                            )

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            star_K(
                lsp(2, []),
                lsp(2, []),
                PartitionIndex(4, [[1], [2, 3, 4]]),
                2,
            )


class TestKappaBasis:
    def test_trivial_character_has_all_ones_values(self):
        for p in (2, 3):
            x = CharCombo.one(PartitionIndex.full(3))
            values = chi_to_kappa(x, p)
            assert len(values) == sum(1 for _ in enumerate_compatible(PartitionIndex.full(3), p))
            assert all(v == Cyclotomic.one(p) for v in values.values())

    def test_two_by_two_solve(self):
        arc = lsp(2, [(1, 2, 1)])
        triv = lsp(2, [])
        values = {arc: Cyclotomic.one(2), triv: Cyclotomic.zero(2)}
        out = kappa_to_chi(values, 2)
        assert out == {
            triv: Cyclotomic.from_rational(2, Fraction(1, 2)),
            arc: Cyclotomic.from_rational(2, Fraction(-1, 2)),
        }

    def test_a_missing_superclass_value_is_refused(self):
        values = chi_to_kappa(CharCombo.one(PartitionIndex.full(3)), 2)
        del values[lsp(3, [(1, 3, 1)])]
        with pytest.raises(ValueError, match="every superclass label of U_3"):
            kappa_to_chi(values, 2)

    def test_a_value_of_another_order_is_refused(self):
        values = chi_to_kappa(CharCombo.one(PartitionIndex.full(3)), 2)
        values[lsp(3, [(1, 3, 1)])] = Cyclotomic.zeta_power(3, 1)
        with pytest.raises(ValueError, match="zeta_2"):
            kappa_to_chi(values, 2)

    def test_round_trips_on_the_groups_with_one_superclass(self):
        # U_0 (no parts) and U_1 have one label, the empty partition
        for n in (0, 1):
            for p in (2, 3):
                values = chi_to_kappa(CharCombo.one(PartitionIndex.full(n)), p)
                assert values == {lsp(n, []): Cyclotomic.one(p)}
                assert kappa_to_chi(values, p) == values

    def test_round_trips(self):
        for p, max_n in ((2, 4), (3, 3), (5, 3)):
            for n in range(2, max_n + 1):
                full = PartitionIndex.full(n)
                chars = list(enumerate_compatible(full, p))
                # basis elements come back as themselves
                for lam in chars:
                    back = kappa_to_chi(chi_to_kappa(CharCombo.of(lam, full), p), p)
                    assert back == {lam: Cyclotomic.one(p)}
                    assert_canonical(back[lam])
                # and a mixed combination survives both directions
                x = CharCombo(
                    full,
                    [(chars[0], LaurentPoly.const(2)), (chars[-1], LaurentPoly({1: 1}))],
                )
                back = kappa_to_chi(chi_to_kappa(x, p), p)
                want = {
                    chars[0]: Cyclotomic.from_rational(p, 2),
                    chars[-1]: Cyclotomic.from_rational(p, p),
                }
                assert back == want


class TestSinf:
    def test_same_arcs_coarser_group(self):
        K = PartitionIndex(4, [[1, 2], [3, 4]])
        lam = lsp(4, [(1, 2, 1), (3, 4, 1)])
        assert sinf(lam, K, PartitionIndex.full(4)) == lam

    def test_validation(self):
        K = PartitionIndex(3, [[1, 2], [3]])
        with pytest.raises(ValueError, match="straddles"):
            sinf(lsp(3, [(1, 3, 1)]), K, PartitionIndex.full(3))
        with pytest.raises(ValueError):
            sinf(lsp(3, []), PartitionIndex(3, [[1, 3], [2]]), PartitionIndex(3, [[1, 2], [3]]))


class TestBoundary:
    """The constructors and the rule entries refuse input from outside; the
    rules build their results unchecked, so those must be valid as built."""

    def test_a_term_on_another_n_is_refused(self):
        with pytest.raises(ValueError, match="partition has n=4, the index n=3"):
            CharCombo(PartitionIndex.full(3), [(lsp(4, []), 1)])

    def test_an_arc_across_two_parts_is_refused(self):
        K = PartitionIndex(3, [[1], [2, 3]])
        with pytest.raises(ValueError, match="straddles"):
            CharCombo(K, [(lsp(3, [(1, 3, 1)]), 1)])

    def test_zero_coefficients_are_dropped(self):
        full = PartitionIndex.full(3)
        x = CharCombo(
            full,
            [
                (lsp(3, []), 0),
                (lsp(3, [(1, 2, 1)]), LaurentPoly.zero()),
                (lsp(3, [(1, 3, 1)]), 2),
                (lsp(3, [(2, 3, 1)]), 1),
                (lsp(3, [(2, 3, 1)]), -1),
            ],
        )
        assert x.terms == {lsp(3, [(1, 3, 1)]): LaurentPoly.const(2)}

    def test_a_coefficient_that_is_not_an_int_is_refused(self):
        # rather than truncated: 1/2 would drop the term, 1.5 and 2.7 lose a part
        lam = lsp(3, [(1, 3, 1)])
        for make in (
            lambda: CharCombo.of(lam, coeff=Fraction(1, 2)),
            lambda: CharCombo.of(lam, coeff=1.5),
            lambda: CharCombo.of(lam).scale(2.7),
            lambda: CharCombo(PartitionIndex.full(3), [(lam, Fraction(3, 2))]),
        ):
            with pytest.raises(TypeError):
                make()
        assert CharCombo.of(lam, coeff=-2).scale(3).coeff(lam) == -6

    def test_unparseable_combination_text_is_refused(self):
        full = PartitionIndex.full(3)
        for text in ("(1)*chi[n=3] (1)*chi[n=3; 1-2:1]", "chi[n=3]", "(1)*chi[n=3] +"):
            with pytest.raises(ValueError, match="unparseable"):
                CharCombo.from_text(text, full)

    def test_restriction_to_an_index_off_the_ambient_is_refused(self):
        x = CharCombo.of(lsp(3, []), PartitionIndex(3, [[1, 2], [3]]))
        with pytest.raises(ValueError, match="must refine the target of superinduction, "
                           "the source of restriction"):
            restrict_combo(x, PartitionIndex(3, [[1], [2, 3]]), 2)

    def test_superinduction_from_an_index_off_the_target_is_refused(self):
        L = PartitionIndex(3, [[1, 2], [3]])
        with pytest.raises(ValueError, match="refine the target"):
            superinduce(lsp(3, []), PartitionIndex(3, [[1], [2, 3]]), 2, L=L)

    def test_basis_conversion_off_the_full_group_is_refused(self):
        for K in (PartitionIndex(3, [[1, 2], [3]]), PartitionIndex(2, [[1], [2]])):
            with pytest.raises(ValueError, match="full group"):
                chi_to_kappa(CharCombo.one(K), 2)

    def test_every_rule_result_is_a_valid_partition(self):
        def check(x):
            for lam in x.terms:
                assert lam == LabeledSetPartition(range(1, lam.n + 1), lam.arcs)
                assert all(type(arc) is tuple for arc in lam.arcs)
                lam.crossings_within(x.ambient)

        for p in (2, 3):
            for n in range(1, 5):
                full = PartitionIndex.full(n)
                indices = [PartitionIndex(n, parts) for parts in set_partitions(range(1, n + 1))]
                for K in indices:
                    for lam in enumerate_compatible(full, p):
                        check(restrict(lam, K, p))
                    for L in indices:
                        if K.refines(L):
                            for mu in enumerate_compatible(K, p):
                                check(superinduce(mu, K, p, L))
                if n <= 3:
                    labels = [CharCombo.of(lam) for lam in enumerate_compatible(full, p)]
                    for x, y in itertools.product(labels, repeat=2):
                        check(tensor(x, y, p))


class TestSerialization:
    def test_json_round_trip(self):
        K = PartitionIndex(7, [[1], [2, 3, 4, 5], [6], [7]])
        x = restrict(lsp(7, [(1, 7, 1)]), K, 3)
        assert CharCombo.from_json(x.to_json()) == x
        blob = x.to_json()
        assert blob["ambient"] == K.to_text()
        assert all(set(t) == {"partition", "coeff"} for t in blob["terms"])

    @pytest.mark.parametrize(
        "blob, message",
        [
            ([], "JSON form must be an object"),
            ({}, "no 'ambient' field"),
            ({"ambient": "{1,2}"}, "no 'terms' field"),
            ({"ambient": "{1,2}", "terms": {}}, "terms must be a list"),
            ({"ambient": "{1,2}", "terms": [[]]}, "term JSON form must be an object"),
            ({"ambient": "{1,2}", "terms": [{"coeff": {"0": 1}}]}, "no 'partition' field"),
            ({"ambient": "{1,2}", "terms": [{"partition": "n=2"}]}, "no 'coeff' field"),
        ],
    )
    def test_json_that_is_not_a_full_object_is_refused(self, blob, message):
        with pytest.raises(ValueError, match=message):
            CharCombo.from_json(blob)

    @pytest.mark.parametrize("blob", [
        {"ambient": 12, "terms": []},
        {"ambient": "{1,2}", "terms": [{"partition": 2, "coeff": {"0": 1}}]},
    ], ids=["ambient", "partition"])
    def test_json_partition_that_is_not_a_str_is_refused(self, blob):
        with pytest.raises(TypeError, match="partition text must be a str"):
            CharCombo.from_json(blob)

    def test_json_coefficient_true_is_refused(self):
        # JSON true is a bool, not the coefficient 1
        blob = {"ambient": "{1,2}", "terms": [{"partition": "n=2", "coeff": {"0": True}}]}
        with pytest.raises(TypeError, match="a Laurent exponent or coefficient must be an int"):
            CharCombo.from_json(blob)

    def test_text_round_trip(self):
        full = PartitionIndex.full(4)
        x = CharCombo(
            full,
            [
                (lsp(4, []), LaurentPoly({1: 4, 0: -3})),
                (lsp(4, [(2, 4, 1)]), LaurentPoly({-1: 1})),
            ],
        )
        assert CharCombo.from_text(x.to_text(), full) == x
