"""Labeled set-partition combinatorics: arcs, crossings, reflection, gluing,
counting."""

import itertools
import random
import re
from fractions import Fraction
from functools import reduce

import pytest

from superchar import cli, ring
from superchar.qcoeff import LaurentPoly
from superchar.setpart import (
    LabeledSetPartition,
    PartitionIndex,
    check_on,
    count_sn,
    enumerate_compatible,
    set_partitions,
    union_K,
    walk_choices,
)

from routes import arcs_of_parts, count_sn_poly, reflect_index, reflect_partition

BELL = (1, 1, 2, 5, 15, 52, 203, 877, 4140)

# the running nine-vertex example: parts {1,5,7}, {2,3}, {4}, {6,8,9}
NINE = LabeledSetPartition.from_text("n=9; 1-5:1, 5-7:2, 2-3:1, 6-8:1, 8-9:2")


def crossing_pairs(lam):
    """Every pair of arcs (i-k, j-l) of lam with i < j < k < l, counted one
    pair at a time."""
    out = []
    for a, b in itertools.combinations(lam.arcs, 2):
        first, second = (a, b) if a[0] < b[0] else (b, a)
        (i, k, _), (j, l, _) = first, second
        if i < j < k < l:
            out.append((first, second))
    return out


def random_labeled(rng, k, p):
    """A random labeled partition of {1..n} for a random n <= k."""
    verts = list(range(1, rng.randrange(k + 1) + 1))
    rng.shuffle(verts)
    parts, i = [], 0
    while i < len(verts):
        size = rng.randrange(1, len(verts) - i + 1)
        parts.append(sorted(verts[i : i + size]))
        i += size
    arcs = [
        (u, v, rng.randrange(1, p)) for part in parts for u, v in arcs_of_parts([part])
    ]
    return LabeledSetPartition(verts, arcs)


class TestValidation:
    def test_an_arc_of_the_wrong_length_is_refused(self):
        # a fourth value was dropped, and two values raised IndexError
        for arc in ((1, 3, 1, 9), (1, 3)):
            with pytest.raises(ValueError, match=r"arc \(1, 3.*\) is not \(left, right, label\)"):
                LabeledSetPartition(range(1, 4), [arc])

    def test_rejected_arc_shapes(self):
        with pytest.raises(ValueError):
            LabeledSetPartition(range(1, 3), [(2, 1, 1)])
        with pytest.raises(ValueError):
            LabeledSetPartition(range(1, 3), [(1, 1, 1)])
        with pytest.raises(ValueError):
            LabeledSetPartition(range(1, 3), [(1, 2, 0)])
        with pytest.raises(ValueError):
            LabeledSetPartition(range(1, 3), [(1, 4, 1)])

    def test_vertices_must_be_one_to_n(self):
        with pytest.raises(ValueError):
            LabeledSetPartition((2, 3, 5), [])
        with pytest.raises(ValueError):
            LabeledSetPartition(range(0, 3), [])
        with pytest.raises(ValueError):
            LabeledSetPartition(range(1, 4), [(2, 4, 1)])
        lam = LabeledSetPartition((3, 1, 2), [(1, 3, 1)])
        assert lam.n == 3 and lam == LabeledSetPartition(range(1, 4), [(1, 3, 1)])

    @pytest.mark.parametrize("build", [
        lambda: PartitionIndex(2.7, [[1.9, 2.2]]),
        lambda: PartitionIndex(True, [[True]]),
        lambda: PartitionIndex(2, [[1, 2.0]]),
        lambda: PartitionIndex.from_subset([1.5], 2),
        lambda: LabeledSetPartition(range(1, 4), [(1.5, 3, 1)]),
        lambda: LabeledSetPartition(range(1, 4), [(1, 3, True)]),
        lambda: LabeledSetPartition([1.0, 2, 3]),
        lambda: list(set_partitions([1.5, 2.7])),
        lambda: list(set_partitions([1, True])),
    ], ids=["index-floats", "index-bools", "index-float-element", "subset-float",
            "arc-float-end", "arc-bool-label", "float-vertex", "set-partitions-floats",
            "set-partitions-bool"])
    def test_a_non_int_is_refused_not_truncated(self, build):
        with pytest.raises(TypeError, match="must be an int"):
            build()

    @pytest.mark.parametrize("parse", [PartitionIndex.from_text, LabeledSetPartition.from_text])
    @pytest.mark.parametrize("text", [5, None, ["{1,2}"]])
    def test_a_partition_text_that_is_not_a_str_is_refused(self, parse, text):
        # an int from JSON raised AttributeError on .strip(), an internal fault
        with pytest.raises(TypeError, match="partition text must be a str"):
            parse(text, n=2)

    def test_an_arc_list_on_a_negative_n_is_refused(self):
        # range(1, n + 1) is empty for every n < 0, yet that is no n=0 partition
        for text in ("", "1-2:1"):
            with pytest.raises(ValueError, match="n must be nonnegative, not -1"):
                LabeledSetPartition.from_text(text, n=-1)
        assert LabeledSetPartition.from_text("", n=0) == LabeledSetPartition(())

    def test_each_vertex_carries_at_most_one_arc_end(self):
        with pytest.raises(ValueError):
            LabeledSetPartition(range(1, 5), [(1, 3, 1), (1, 4, 1)])
        with pytest.raises(ValueError):
            LabeledSetPartition(range(1, 5), [(1, 4, 1), (3, 4, 1)])
        # a vertex may close one arc and open another (chains)
        LabeledSetPartition(range(1, 4), [(1, 2, 1), (2, 3, 1)])

    def test_random_arc_sets_accepted_iff_degrees_bounded(self):
        rng = random.Random(5)
        pairs = [(i, j) for i in range(1, 7) for j in range(i + 1, 7)]
        for _ in range(300):
            chosen = rng.sample(pairs, rng.randrange(5))
            lefts = [i for i, _ in chosen]
            rights = [j for _, j in chosen]
            valid = len(set(lefts)) == len(lefts) and len(set(rights)) == len(rights)
            try:
                LabeledSetPartition(range(1, 7), [(i, j, 1) for i, j in chosen])
            except ValueError:
                assert not valid
            else:
                assert valid


class TestPartsAndCrossings:
    def test_parts_are_the_arc_chains(self):
        assert NINE.parts() == ((1, 5, 7), (2, 3), (4,), (6, 8, 9))
        assert LabeledSetPartition(range(1, 4), []).parts() == ((1,), (2,), (3,))
        assert LabeledSetPartition(range(1, 3), [(1, 2, 1)]).parts() == ((1, 2),)

    def test_parts_to_arcs_reconstruction(self):
        rng = random.Random(6)
        for _ in range(200):
            lam = random_labeled(rng, 9, 3)
            rebuilt = arcs_of_parts(lam.parts())
            assert set(rebuilt) == {(i, l) for i, l, _ in lam.arcs}

    def test_crossings(self):
        (pair,) = crossing_pairs(NINE)
        assert pair[0][:2] == (5, 7)
        assert pair[1][:2] == (6, 8)
        assert NINE.num_crossings() == 1
        for n in range(7):
            for lam in enumerate_compatible(PartitionIndex.full(n), 2):
                assert lam.num_crossings() == len(crossing_pairs(lam)), lam
        assert LabeledSetPartition(range(1, 5), [(1, 3, 1)]).num_crossings() == 0
        two = LabeledSetPartition(range(1, 5), [(1, 3, 1), (2, 4, 1)])
        assert two.num_crossings() == 1

    def test_crossings_within_parts_of_an_index(self):
        lam = LabeledSetPartition(range(1, 5), [(1, 3, 1), (2, 4, 1)])
        assert lam.crossings_within(PartitionIndex.full(4)) == lam.num_crossings()
        assert lam.crossings_within(PartitionIndex(4, [[1, 3], [2, 4]])) == 0
        with pytest.raises(ValueError):
            lam.crossings_within(PartitionIndex(4, [[1, 2], [3, 4]]))

    def test_check_on_refuses_what_does_not_label_the_index(self):
        lam = LabeledSetPartition(range(1, 5), [(1, 3, 2), (2, 4, 1)])
        K = PartitionIndex(4, [[1, 3], [2, 4]])
        check_on((lam,), K, 3)
        check_on((lam,), PartitionIndex.full(4))  # no p: the labels go unchecked
        for index, p, message in (
            (PartitionIndex.full(3), None, "^partition has n=4, the index n=3$"),
            (K, 2, "^arc 1-3:2 has a label outside 1..1$"),
            (K, 4, "^p must be prime, got 4$"),
            (PartitionIndex(4, [[1, 2], [3, 4]]), 3,
             r"^arc 1-3 straddles the parts of \{1,2\|3,4\}$"),
        ):
            with pytest.raises(ValueError, match=message):
                check_on((lam,), index, p)


class TestTransport:
    def test_reflect(self):
        lam = LabeledSetPartition(range(1, 4), [(1, 2, 2)])
        assert reflect_partition(lam).to_text() == "n=3; 2-3:2"
        assert reflect_partition(NINE).num_crossings() == 1
        rng = random.Random(9)
        for _ in range(300):
            lam = random_labeled(rng, 9, 3)
            assert reflect_partition(reflect_partition(lam)) == lam


class TestUnionK:
    LAM = LabeledSetPartition(range(1, 4), [(2, 3, 1)])
    MU = LabeledSetPartition(range(1, 5), [(1, 2, 2), (2, 4, 3)])

    def test_two_glued_examples(self):
        K = PartitionIndex(7, [[1, 4, 6], [2, 3, 5, 7]])
        assert union_K(self.LAM, self.MU, K).to_text() == "n=7; 2-3:2, 3-7:3, 4-6:1"
        K = PartitionIndex(7, [[2, 3, 7], [1, 4, 5, 6]])
        glued = union_K(self.LAM, self.MU, K)
        assert glued.to_text() == "n=7; 1-4:2, 3-7:1, 4-6:3"
        # glued and parsed partitions hold plain arc tuples, as the rules build
        assert all(type(arc) is tuple for arc in glued.arcs + NINE.arcs)

    def test_empty_factor_leaves_the_other_unchanged(self):
        empty = LabeledSetPartition((), [])
        K = PartitionIndex(4, [range(1, 5)])
        assert union_K(empty, self.MU, K) == self.MU
        assert union_K(self.MU, empty, K) == self.MU
        assert union_K(empty, empty, PartitionIndex.full(0)) == empty
        with pytest.raises(ValueError):
            union_K(empty, empty, K)

    def test_size_mismatch_rejected(self, capsys):
        with pytest.raises(ValueError):
            union_K(self.LAM, self.MU, PartitionIndex(7, [[1, 2], [3, 4, 5, 6, 7]]))
        # one message for a shuffle index of the wrong shape, as on the NCSym side
        arc = LabeledSetPartition(range(1, 3), [(1, 2, 1)])
        message = re.escape("{1,3|2} is not a shuffle index for factors of sizes 1 and 2")
        with pytest.raises(ValueError, match="^%s$" % message):
            union_K(LabeledSetPartition((1,)), arc, PartitionIndex(3, [[1, 3], [2]]))
        argv = ["star", "--left", "n=1", "--right", "n=2; 1-2:1",
                "--blocks", "{1,3|2}", "--q", "2"]
        assert cli.main(argv) == cli.EXIT_PARSE
        assert re.fullmatch("error: %s\n" % message, capsys.readouterr().err)

    def test_gluing_never_loses_crossings(self):
        # exhaustive at q=2 for all two-block shapes with m+n <= 7
        for total in range(2, 8):
            for m in range(1, total):
                n = total - m
                for block1 in itertools.combinations(range(1, total + 1), m):
                    block2 = tuple(v for v in range(1, total + 1) if v not in block1)
                    K = PartitionIndex(total, [block1, block2])
                    for mp in set_partitions(range(1, m + 1)):
                        lam = LabeledSetPartition(range(1, m + 1), [
                            (u, v, 1) for u, v in arcs_of_parts(mp)
                        ])
                        for np_ in set_partitions(range(1, n + 1)):
                            mu = LabeledSetPartition(range(1, n + 1), [
                                (u, v, 1) for u, v in arcs_of_parts(np_)
                            ])
                            glued = union_K(lam, mu, K)
                            assert (
                                glued.num_crossings()
                                >= lam.num_crossings() + mu.num_crossings()
                            )


class TestEnumerationAndCounting:
    def test_counts_match_enumeration(self):
        for p in (2, 3, 5):
            for n in range(0, 7):
                assert count_sn(n, p) == sum(
                    1 for _ in enumerate_compatible(PartitionIndex.full(n), p)
                )

    def test_enumeration_is_deterministic_and_duplicate_free(self):
        seen = [lam.to_text() for lam in enumerate_compatible(PartitionIndex.full(4), 3)]
        again = [lam.to_text() for lam in enumerate_compatible(PartitionIndex.full(4), 3)]
        assert seen == again
        assert len(seen) == len(set(seen))

    def test_bell_numbers_at_q_two(self):
        for n, b in enumerate(BELL[:7]):
            assert count_sn(n, 2) == b
        assert count_sn(0, 7) == 1

    def test_counting_polynomial(self):
        # s_3(q) = 1 + 3(q-1) + (q-1)^2 = q^2 + q - 1
        assert count_sn_poly(3) == LaurentPoly({2: 1, 1: 1, 0: -1})
        # count_sn sums the recurrence in ints; this Laurent polynomial route
        # (tests/routes.py) is its reference, at prime and composite q
        for q in (2, 3, 4, 5, 7):
            for n in range(0, 9):
                assert count_sn(n, q) == count_sn_poly(n).eval_at(q)

    def test_the_count_refuses_a_bad_n_or_q(self):
        with pytest.raises(ValueError, match="q must be at least 2"):
            count_sn(3, 1)
        with pytest.raises(ValueError, match="n must be nonnegative"):
            count_sn(-1, 2)
        # the count is exact: a float q is refused, not summed in floats
        for q in (2.0, True):
            with pytest.raises(TypeError, match="q must be an int"):
                count_sn(3, q)

    def test_set_partition_stream(self):
        for n in range(0, 8):
            assert sum(1 for _ in set_partitions(range(1, n + 1))) == BELL[n]
        # any element set, 0-based or with gaps, and the empty set
        for elements in (range(4), [2, 5, 6, 9], []):
            got = list(set_partitions(elements))
            assert len(got) == len(set(got)) == BELL[len(elements)]
            for parts in got:
                assert sorted(v for part in parts for v in part) == list(elements)
                assert all(list(part) == sorted(part) for part in parts)
                assert [part[0] for part in parts] == sorted(part[0] for part in parts)

    def test_compatible_enumeration_is_per_part(self):
        K = PartitionIndex(5, [[1, 2, 3], [4, 5]])
        lookup = K.part_lookup()
        for p in (2, 3):
            want = count_sn(3, p) * count_sn(2, p)
            got = list(enumerate_compatible(K, p))
            assert len(got) == want
            for mu in got:
                for i, l, _ in mu.arcs:
                    assert lookup[i] == lookup[l]

    def test_compatible_labels_match_the_validating_constructor(self):
        # the walk yields each set of labeled arcs inside the parts with the
        # degree condition exactly once, arcs sorted, and (skipping
        # validation) each label is the partition the public constructor
        # builds from its arcs
        for K in covered_indices():
            for p in (2, 3):
                got = list(enumerate_compatible(K, p))
                assert len(got) == len(set(got))
                assert {label.arcs for label in got} == brute_force_labels(K, p)
                for label in got:
                    assert label.arcs == tuple(sorted(label.arcs))
                    assert all(type(arc) is tuple for arc in label.arcs)
                    checked = LabeledSetPartition(range(1, K.n + 1), label.arcs)
                    assert label == checked
                    assert hash(label) == hash(checked)

    def test_the_walk_order_is_pinned(self):
        # vertex by vertex: no arc first, then arcs by right end, then by
        # label, so the empty partition comes first
        for K in covered_indices():
            for p in (2, 3):
                got = [label.arcs for label in enumerate_compatible(K, p)]
                assert got == sorted(brute_force_labels(K, p), key=lambda arcs: walk_key(arcs, K.n))
                assert got[0] == ()

    def test_carried_traces_are_the_traces_of_each_label(self, fresh_factor_table):
        # with superinduce's walk choices (ring._steps), read cold and warm,
        # each label comes with its _trace on every part of K, in the plain
        # walk's order, as from choices built afresh from the per-part
        # trace tables: K a covered index inside U_n, and the refinement of
        # a covered index L splitting each part by parity of position
        for X in covered_indices():
            split = [part[side::2] for part in X.parts for side in (0, 1) if part[side::2]]
            for K, L in ((X, PartitionIndex.full(X.n)), (PartitionIndex(X.n, split), X)):
                layout = ring._layout(K, L)
                for p in (2, 3, 5):
                    inside = [(i, l, a) for part in L.parts
                              for i, l in itertools.combinations(part, 2) for a in range(1, p)]
                    tables = [{arc: ring._trace((arc,), rank, block, layout.where)
                               for arc in inside} for rank, block in layout.walk]
                    items = list(enumerate_compatible(L, p, walk_choices(L, p, tables)))
                    assert [arcs for arcs, _ in items] == [
                        label.arcs for label in enumerate_compatible(L, p)]
                    # each trace at p <= 3; at p = 5 the walks are compared alone
                    for arcs, traces in items if p < 5 else ():
                        assert traces == tuple(ring._trace(arcs, rank, block, layout.where)
                                               for rank, block in layout.walk)
                    for _ in "cold", "warm":
                        assert list(enumerate_compatible(L, p, ring._steps(K, L, p))) == items
        assert ring._steps.cache_info().hits

    def test_the_plain_walk_builds_its_choices_with_no_tables(self):
        # with no trace tables every choice appends nothing, and the walk
        # starts from no traces
        K = PartitionIndex(5, [[1, 4], [2, 3, 5]])
        starts, traces = walk_choices(K, 3)
        assert traces == ()
        assert [[w for w, _ in choices] for choices in starts] == [[4], [3, 5], [5]]
        assert starts[0] == ((4, (((1, 4, 1), None), ((1, 4, 2), None))),)


def covered_indices():
    """Every index of {1..n}, n <= 5, in both part orders, and the
    non-contiguous {1,4|2,5,6|3}."""
    indices = [PartitionIndex(6, [[1, 4], [2, 5, 6], [3]])]
    for n in range(0, 6):
        for parts in set_partitions(range(1, n + 1)):
            indices += [PartitionIndex(n, parts), PartitionIndex(n, parts[::-1])]
    return indices


def walk_key(arcs, n):
    """The walk's choices at the vertices 1..n in turn: (right end, label)
    of the arc the vertex starts, (0, 0) -- before any arc -- if none."""
    starts = {i: (l, a) for i, l, a in arcs}
    return [starts.get(v, (0, 0)) for v in range(1, n + 1)]


def brute_force_labels(K, p):
    """Every sorted tuple of labeled arcs inside the parts of K in which no
    vertex starts or ends two arcs."""
    pairs = [pair for part in K.parts for pair in itertools.combinations(part, 2)]
    out = set()
    for k in range(len(pairs) + 1):
        for chosen in itertools.combinations(sorted(pairs), k):
            lefts = {i for i, _ in chosen}
            rights = {j for _, j in chosen}
            if len(lefts) == len(rights) == k:
                for labels in itertools.product(range(1, p), repeat=k):
                    out.add(tuple((i, j, a) for (i, j), a in zip(chosen, labels)))
    return out


class TestPartitionIndex:
    def test_text_round_trip(self):
        text = "{1,5,7|2,3|4|6,8,9}"
        K = PartitionIndex.from_text(text)
        assert K.to_text() == text
        assert K.n == 9
        assert PartitionIndex.from_text("{}").n == 0

    def test_full_index(self):
        assert PartitionIndex.full(3).parts == ((1, 2, 3),)
        # U_0 is the trivial group: its index has no parts
        assert PartitionIndex.full(0).parts == ()
        assert PartitionIndex.full(0).grouping() == PartitionIndex.from_text("{}").grouping()

    @pytest.mark.parametrize("n", range(8))
    def test_full_index_matches_the_checked_constructor(self, n):
        full, checked = PartitionIndex.full(n), PartitionIndex(n, [range(1, n + 1)] if n else [])
        assert full == checked and hash(full) == hash(checked)
        assert (type(full.n), full.parts, full.to_text()) == (int, checked.parts, checked.to_text())

    def test_the_hash_is_kept_and_is_the_hash_of_n_and_parts(self):
        # computed once when the index is built, by every route that builds one
        routes = [
            PartitionIndex(5, [[1, 4], [2, 3, 5]]),
            PartitionIndex.from_text("{1,4|2,3,5}"),
            PartitionIndex.from_subset([1, 4], 5),
            PartitionIndex.from_text("[2,4]", 5),
            PartitionIndex.full(5),
            PartitionIndex(5, [range(1, 6)]),
            PartitionIndex.full(0),
            PartitionIndex.from_text("{}"),
        ]
        for K in routes:
            assert hash(K) == hash((K.n, K.parts)) == K._hash
        for x, y in itertools.combinations(routes, 2):
            if x == y:
                assert hash(x) == hash(y)
        assert routes[0] == routes[1] and routes[4] == routes[5] and routes[6] == routes[7]
        assert PartitionIndex.from_subset([2, 3, 4], 5) == routes[3]

    @pytest.mark.parametrize("n, error", [
        (-1, ValueError), (-7, ValueError),
        (3.0, TypeError), ("3", TypeError), (None, TypeError), (Fraction(3), TypeError),
    ])
    def test_full_index_refuses_a_negative_or_non_int_n(self, n, error):
        with pytest.raises(error):
            PartitionIndex.full(n)

    def test_interval_shorthand(self):
        K = PartitionIndex.from_text("[2,5]", 7)
        assert K.grouping() == PartitionIndex(7, [[1], [2, 3, 4, 5], [6], [7]]).grouping()
        with pytest.raises(ValueError):
            PartitionIndex.from_text("[2,5]")

    def test_cover_must_be_exact(self):
        with pytest.raises(ValueError):
            PartitionIndex(4, [[1, 2], [2, 3, 4]])
        with pytest.raises(ValueError):
            PartitionIndex(4, [[1, 2], [4]])
        with pytest.raises(ValueError):
            PartitionIndex(3, [[1, 2, 3], []])

    def test_refines(self):
        fine = PartitionIndex(4, [[1], [2], [3], [4]])
        mid = PartitionIndex(4, [[1, 3], [2], [4]])
        coarse = PartitionIndex(4, [[1, 2, 3], [4]])
        assert fine.refines(mid) and fine.refines(coarse)
        assert mid.refines(coarse) and mid.refines(PartitionIndex.full(4))
        assert not coarse.refines(mid)
        assert not PartitionIndex(4, [[1, 2], [3, 4]]).refines(
            PartitionIndex(4, [[1, 3], [2, 4]])
        )

    def test_reflect_and_lookup(self):
        K = PartitionIndex(5, [[1, 4], [2, 3], [5]])
        assert reflect_index(K).grouping() == PartitionIndex(5, [[1], [2, 5], [3, 4]]).grouping()
        lookup = K.part_lookup()
        assert lookup[1] == lookup[4] and lookup[1] != lookup[2]


def test_arcs_of_parts():
    assert arcs_of_parts(((1, 5, 7), (2, 3), (4,))) == ((1, 5), (2, 3), (5, 7))
    assert arcs_of_parts(()) == ()
