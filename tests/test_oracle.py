"""Brute-force enumeration oracle: groups, superclasses, dual orbits, budgets."""

import gc
import itertools
from fractions import Fraction

import pytest

from superchar.qcoeff import Cyclotomic, LaurentPoly
from superchar.ring import char_value, combo_value, degree, superinduce
from superchar.oracle import (
    DEFAULT_MAX_GROUP,
    BudgetError,
    PatternGroup,
    _classes_in,
    brute_inner_product,
    brute_inner_product_table,
    brute_superinduce,
    brute_superinduction_table,
    z_value,
)
from superchar.setpart import (
    LabeledSetPartition,
    PartitionIndex,
    count_sn,
    enumerate_compatible,
    set_partitions,
)

from routes import (
    permchar_hypothesis_check,
    sg_identity_a,
    sg_identity_b,
    sg_matrices,
    sg_ones,
    sg_sow,
)


def lsp(n, arcs):
    return LabeledSetPartition(range(1, n + 1), [tuple(a) for a in arcs])


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


class TestConstruction:
    def test_full_group_order(self):
        for p in (2, 3):
            for n in range(1, 5):
                if p ** (n * (n - 1) // 2) > DEFAULT_MAX_GROUP:
                    continue
                assert PatternGroup.full(n, p).size == p ** (n * (n - 1) // 2)

    def test_parabolic_order_multiplies_over_parts(self):
        K = PartitionIndex(5, [[1, 3, 5], [2, 4]])
        assert PatternGroup.parabolic(K, 2).size == 2 ** (3 + 1)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            PatternGroup(3, [(1, 2)], 4)  # not prime
        with pytest.raises(ValueError):
            PatternGroup(3, [(1, 2), (2, 3)], 2)  # not transitively closed
        with pytest.raises(ValueError):
            PatternGroup(3, [(2, 2)], 2)  # not strictly upper
        with pytest.raises(ValueError):
            PatternGroup(3, [(1, 2), (1, 2)], 2)  # repeated
        with pytest.raises(TypeError):
            PatternGroup(3, [(1.9, 2.5)], 2)  # not ints: was truncated to (1, 2)

    def test_refuses_an_index_its_positions_do_not_match(self):
        with pytest.raises(ValueError, match="parabolic positions"):
            PatternGroup(3, [(1, 2)], 2, index=PartitionIndex.full(3))
        with pytest.raises(ValueError, match="parabolic positions"):
            PatternGroup(3, [(1, 2)], 2, index=PartitionIndex.full(2))  # another n
        with pytest.raises(ValueError, match="parabolic positions"):
            PatternGroup(3, [(1, 2), (1, 3), (2, 3)], 2, index=PartitionIndex(3, [[1, 3], [2]]))
        K = PartitionIndex(4, [[1, 3], [2, 4]])
        G = PatternGroup(4, [(2, 4), (1, 3)], 2, index=K)  # any order of K's positions
        assert G.positions == PatternGroup.parabolic(K, 2).positions
        assert len(G.superclass_table()) == 4

    def test_group_budget(self):
        with pytest.raises(BudgetError):
            PatternGroup.full(5, 2)
        assert PatternGroup.full(5, 2, max_size=2 ** 10).size == 1024


class TestSuperclasses:
    def test_counts_match_the_closed_formula(self):
        for p, max_n in ((2, 4), (3, 4)):
            for n in range(1, max_n + 1):
                G = PatternGroup.full(n, p)
                assert len(G.superclass_table()) == count_sn(n, p)

    def test_parabolic_counts_multiply_over_parts(self):
        K = PartitionIndex(5, [[1, 3, 5], [2, 4]])
        G = PatternGroup.parabolic(K, 2)
        assert len(G.superclass_table()) == count_sn(3, 2) * count_sn(2, 2)

    def test_partition_of_the_group(self):
        for p in (2, 3):
            G = PatternGroup.full(3, p)
            table = G.superclass_table()
            assert sum(table.sizes()) == G.size
            seen = sorted(vec for m in table.members for vec in m)
            assert seen == list(itertools.product(range(p), repeat=3))
            # the identity (zero algebra element) sits alone
            assert table.members[table.class_of[(0, 0, 0)]] == [(0, 0, 0)]

    def test_labels_enumerate_every_character_index(self):
        for p in (2, 3):
            G = PatternGroup.full(4, p)
            table = G.superclass_table()
            assert set(table.labels) == set(enumerate_compatible(PartitionIndex.full(4), p))
            for i, lam in enumerate(table.labels):
                assert G.class_of_label(lam) == i

    def test_z_values(self):
        G2 = PatternGroup.full(2, 2)
        assert z_value(G2, lsp(2, [])) == G2.size
        assert z_value(G2, lsp(2, [(1, 2, 1)])) == 2
        G3 = PatternGroup.full(3, 2)
        # e_13 is central: a singleton superclass
        assert z_value(G3, lsp(3, [(1, 3, 1)])) == 8


class TestCharacterTable:
    def test_rows_match_the_arc_formula(self):
        # the oracle builds values from dual orbit sums; the closed per-arc
        # formula must agree entry by entry, on every parabolic
        for K, p in small_parabolics():
            G = PatternGroup.parabolic(K, p)
            table = G.superclass_table()
            rows = G.character_table()
            for lam, row in zip(table.labels, rows):
                for mu, got in zip(table.labels, row):
                    assert got == char_value(lam, mu, p, K), (lam.to_text(), mu.to_text())
                    assert_canonical(got)

    def test_orthogonality_on_a_parabolic(self):
        K = PartitionIndex(4, [[1, 2, 4], [3]])
        G = PatternGroup.parabolic(K, 2)
        rows = G.character_table()
        labels = G.superclass_table().labels
        for i, ri in enumerate(rows):
            for j, rj in enumerate(rows):
                got = brute_inner_product(G, ri, rj)
                if i == j:
                    want = Cyclotomic.from_rational(2, 2 ** labels[i].num_crossings())
                else:
                    want = Cyclotomic.zero(2)
                assert got == want

    def test_degree_sum_reconstructs_the_group_order(self):
        for p in (2, 3, 5):
            for n in range(1, 5):
                total = Fraction(0)
                for lam in enumerate_compatible(PartitionIndex.full(n), p):
                    d = degree(lam).eval_at(p)
                    total += Fraction(d * d, p ** lam.num_crossings())
                assert total == p ** (n * (n - 1) // 2)


class TestBruteSuperinduce:
    def test_inducing_from_the_whole_group_changes_nothing(self):
        G = PatternGroup.full(3, 2)
        for row in G.character_table():
            assert brute_superinduce(G, G, row) == row

    def test_agrees_with_the_symbolic_route(self):
        for K, p in small_parabolics():
            G = PatternGroup.full(K.n, p)
            g_labels = G.superclass_table().labels
            H = PatternGroup.parabolic(K, p)
            h_table = H.superclass_table()
            for mu, chi_vals in zip(h_table.labels, H.character_table()):
                lifted = superinduce(mu, K, p)
                got = brute_superinduce(G, H, chi_vals)
                for lam, val in zip(g_labels, got):
                    want = combo_value(lifted, lam, p)
                    assert val == want, (K.to_text(), mu.to_text(), lam.to_text())
                    assert_canonical(val)

    def test_u_4_3_from_two_blocks(self):
        # U_4(3) is the largest group the default bound admits
        K = PartitionIndex(4, [[1, 2], [3, 4]])
        G = PatternGroup.full(4, 3)
        H = PatternGroup.parabolic(K, 3)
        g_labels = G.superclass_table().labels
        for mu, row in zip(H.superclass_table().labels, H.character_table()):
            lifted = superinduce(mu, K, 3)
            got = brute_superinduce(G, H, row)
            assert list(got) == [combo_value(lifted, lam, 3) for lam in g_labels], mu.to_text()

    def test_subgroup_validation(self):
        G = PatternGroup.full(3, 2)
        H_other_p = PatternGroup.full(3, 3)
        with pytest.raises(ValueError):
            brute_superinduce(G, H_other_p, ())
        # another n, and positions off G's
        for H in (PatternGroup.full(2, 2), G):
            with pytest.raises(ValueError, match="pattern subgroup"):
                brute_superinduce(PatternGroup(3, [(1, 2)], 2), H, ())

    def test_the_table_is_the_inner_products_of_the_rows(self):
        # each row of brute_superinduce, paired with each supercharacter of G
        for K, p in small_parabolics():
            G = PatternGroup.full(K.n, p)
            H = PatternGroup.parabolic(K, p)
            g_rows = G.character_table()
            chi_rows = H.character_table()
            want = [[brute_inner_product(G, brute_superinduce(G, H, chi), g) for g in g_rows]
                    for chi in chi_rows]
            got = brute_superinduction_table(G, H, chi_rows)
            assert got == want, (K.to_text(), p)
            for row in got:
                for v in row:
                    assert_canonical(v)

    def test_values_of_another_order_are_refused(self):
        G = PatternGroup.full(3, 2)
        thirds = tuple(Cyclotomic.zeta_power(3, 1) for _ in range(len(G.superclass_table())))
        with pytest.raises(ValueError, match="zeta_2"):
            brute_superinduce(G, G, thirds)
        with pytest.raises(ValueError, match="zeta_2"):
            brute_inner_product(G, thirds, thirds)
        with pytest.raises(ValueError, match="zeta_2"):
            brute_superinduction_table(G, G, [thirds])
        with pytest.raises(ValueError, match="one value per H-superclass"):
            brute_superinduction_table(G, G, [thirds[1:]])


def matrix(G, vec, unipotent=False):
    """The n x n matrix A (or 1 + A) of the coordinate vector of A."""
    rows = [[int(unipotent and i == j) for j in range(G.n)] for i in range(G.n)]
    for (i, j), v in zip(G.positions, vec):
        rows[i - 1][j - 1] = v
    return rows


def matmul(A, B, p):
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) % p for j in range(n)] for i in range(n)]


def vec_of_matrix(G, M):
    """The coordinates of the strictly upper part of M on G's positions;
    None when M has a nonzero strictly upper entry off them."""
    vec = [0] * len(G.positions)
    for i, row in enumerate(M, 1):
        for j, v in enumerate(row, 1):
            if j > i and v % G.p:
                k = G.pos_at.get((i, j))
                if k is None:
                    return None
                vec[k] = v % G.p
    return tuple(vec)


def matrix_action_tables(G):
    """(vecs, L, R): G's coordinate vectors in lexicographic order, and
    L[g][a] = the index in ``vecs`` of g*A and R[a][g] = that of A*g, for
    g = 1 + vecs[g] and A = vecs[a], every product by ``matmul`` and read
    back with ``vec_of_matrix``."""
    vecs = list(itertools.product(range(G.p), repeat=len(G.positions)))
    index = {vec: a for a, vec in enumerate(vecs)}
    mats = [matrix(G, vec, unipotent=True) for vec in vecs]
    algs = [matrix(G, vec) for vec in vecs]
    L = [[index[vec_of_matrix(G, matmul(gm, am, G.p))] for am in algs] for gm in mats]
    R = [[index[vec_of_matrix(G, matmul(am, gm, G.p))] for gm in mats] for am in algs]
    return vecs, L, R


def literal_superinduce(G, H, chi_rows, tables):
    """The defining double sum of ``brute_superinduce`` term by term, over
    every x and every y in G, for each class function of H in ``chi_rows``;
    ``tables`` are G's ``matrix_action_tables``.  G-algebra elements are
    read into H through their matrices."""
    vecs, L, R = tables
    h_table = H.superclass_table()
    h_class = []
    for vec in vecs:
        h = vec_of_matrix(H, matrix(G, vec))
        h_class.append(None if h is None else h_table.class_of[h])
    scale = Fraction(1, G.size * H.size)
    outs = [[] for _ in chi_rows]
    for rep in G.superclass_table().reps:
        a = vecs.index(rep)
        counts = [0] * len(h_table)
        for x in range(G.size):
            for y in range(G.size):
                c = h_class[R[L[x][a]][y]]
                if c is not None:
                    counts[c] += 1
        for out, chi in zip(outs, chi_rows):
            total = Cyclotomic.zero(G.p)
            for c, cnt in enumerate(counts):
                total = total + cnt * chi[c]
            out.append(scale * total)
    return [tuple(out) for out in outs]


def pattern_subgroups(n):
    """Every transitively closed set of strictly upper positions on 1..n."""
    upper = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    for r in range(len(upper) + 1):
        for positions in itertools.combinations(upper, r):
            if all((i, l) in positions for (i, j) in positions for (k, l) in positions if j == k):
                yield positions


class TestOrbitCountedSuperinduction:
    """``brute_superinduce`` sums over the H-superclasses inside each
    superclass of G, which the defining double sum over G x G covers
    evenly; it must equal that double sum taken term by term."""

    def check(self, G, H, tables):
        rows = H.character_table()
        want = literal_superinduce(G, H, rows, tables)
        assert [brute_superinduce(G, H, chi) for chi in rows] == want

    def test_every_pattern_subgroup_to_n_3(self):
        for p in (2, 3):
            for n in range(1, 4):
                G = PatternGroup.full(n, p)
                tables = matrix_action_tables(G)
                for positions in pattern_subgroups(n):
                    self.check(G, PatternGroup(n, positions, p), tables)

    def test_parabolic_subgroups_of_u_4_2(self):
        G = PatternGroup.full(4, 2)
        tables = matrix_action_tables(G)
        for parts in set_partitions(range(1, 5)):
            self.check(G, PatternGroup.parabolic(PartitionIndex(4, parts), 2), tables)

    def test_pattern_subgroups_are_enumerated(self):
        # U_3 has 7 pattern subgroups: all subsets of its three positions
        # except {(1,2), (2,3)}, which is not closed
        assert len(list(pattern_subgroups(3))) == 7


class TestClassesIn:
    """``_classes_in`` reads each H-superclass at its representative: every
    member must lie in the G-superclass it gives, carried onto G's
    positions coordinate by coordinate."""

    def check(self, G, H):
        classes_in = _classes_in(G, H)
        class_of = G.superclass_table().class_of
        for c, members in enumerate(H.superclass_table().members):
            for h in members:
                coords = dict(zip(H.positions, h))
                assert class_of[tuple(coords.get(pos, 0) for pos in G.positions)] == classes_in[c]

    def test_every_pattern_subgroup_to_n_3(self):
        for p in (2, 3):
            for n in range(1, 4):
                G = PatternGroup.full(n, p)
                for positions in pattern_subgroups(n):
                    self.check(G, PatternGroup(n, positions, p))

    def test_parabolic_subgroups_of_u_4_2(self):
        G = PatternGroup.full(4, 2)
        for parts in set_partitions(range(1, 5)):
            self.check(G, PatternGroup.parabolic(PartitionIndex(4, parts), 2))


def summed_inner_product(G, f_vals, g_vals):
    """``brute_inner_product`` as a sum of Cyclotomic objects."""
    total = Cyclotomic.zero(G.p)
    for size, a, b in zip(G.superclass_table().sizes(), f_vals, g_vals):
        total = total + size * (a * b.conj())
    return Fraction(1, G.size) * total


class TestCoordinateRoutes:
    """The oracle sums values in coordinate lists; it must equal the route
    through Cyclotomic objects exactly."""

    def test_inner_products_match_the_cyclotomic_sums(self):
        for K, p in small_parabolics():
            H = PatternGroup.parabolic(K, p)
            rows = H.character_table()
            for f in rows:
                for g in rows:
                    got = brute_inner_product(H, f, g)
                    assert got == summed_inner_product(H, f, g)
                    assert_canonical(got)
            table = brute_inner_product_table(H, rows, rows)
            assert table == [[brute_inner_product(H, f, g) for g in rows] for f in rows]


class TestOrbitsByDefinition:
    """The orbits the oracle closes by moves on coordinate vectors, against
    their definitions by matrix products over every x and y in the group:
    the superclass of A is {x*A*y}, the dual orbit of lam is
    {A -> lam(x*A*y)}, and the right orbit of lam is {A -> lam(A*y)}."""

    def check(self, G):
        p, m = G.p, len(G.positions)
        vecs = list(itertools.product(range(p), repeat=m))
        group = [matrix(G, vec, unipotent=True) for vec in vecs]
        basis = [matrix(G, [int(k == t) for t in range(m)]) for k in range(m)]
        # images[x][y][k]: the coordinates of x*E_k*y; the maps are linear
        images = [[[vec_of_matrix(G, matmul(matmul(x, E, p), y, p)) for E in basis]
                   for y in group] for x in group]

        def moved(A, img):
            return tuple(sum(A[k] * img[k][t] for k in range(m)) % p for t in range(m))

        def pulled(lam, img):
            return tuple(sum(lam[t] * img[k][t] for t in range(m)) % p for k in range(m))

        # built without an index, classes come by their least vector
        table = G.superclass_table()
        assert sorted(table.class_of) == vecs
        assert sorted(vec for members in table.members for vec in members) == vecs
        assert table.reps == sorted(table.reps)
        for cid, (rep, members) in enumerate(zip(table.reps, table.members)):
            assert rep == members[0] == min(members)
            assert all(table.class_of[vec] == cid for vec in members)
            assert {moved(rep, img) for row in images for img in row} == set(members)

        orbits, orbit_of, right_sizes = G._dual_orbits()
        assert sorted(orbit_of) == sorted(vecs)
        for oid, members in enumerate(orbits):
            assert all(orbit_of[lam] == oid for lam in members)
            lam = members[0]
            assert {pulled(lam, img) for row in images for img in row} == set(members)
            assert len({pulled(lam, img) for img in images[0]}) == right_sizes[oid]

    def test_every_pattern_subgroup_to_n_3(self):
        for p in (2, 3):
            for n in range(1, 4):
                for positions in pattern_subgroups(n):
                    self.check(PatternGroup(n, positions, p))


class TestGarbage:
    def test_leaves_no_cyclic_garbage(self):
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            G = PatternGroup.full(3, 3)
            H = PatternGroup.parabolic(PartitionIndex(3, [[1, 2], [3]]), 3)
            rows = G.character_table()
            brute_superinduce(G, H, H.character_table()[1])
            brute_inner_product(G, rows[1], rows[2])
            del G, H, rows
            assert gc.collect() == 0
        finally:
            if was_enabled:
                gc.enable()


class TestPartialPermutationSums:
    def test_matrix_census(self):
        # sum over k of C(m,k) * n!/(n-k)! shapes
        assert len(sg_matrices(1, 1)) == 2
        assert len(sg_matrices(2, 2)) == 7
        assert len(sg_matrices(2, 3)) == 1 + 6 + 6
        w = ((0, 1, 0, 0), (0, 0, 0, 1), (0, 0, 0, 0))
        assert sg_ones(w) == 2
        assert sg_sow(w) == 6

    def test_smallest_identities(self):
        # 1 + (q-1) telescopes to q; the signed variant cancels outright
        assert sg_identity_a(1, 1) == LaurentPoly({1: 1})
        assert sg_identity_b(1, 1) == LaurentPoly.zero()


class TestPermcharFactorization:
    def test_holds_on_interval_parts(self):
        G = PatternGroup.full(4, 2)
        K = PartitionIndex(4, [[1, 2], [3, 4]])
        H = PatternGroup.parabolic(K, 2)
        hyp, conc, ratio = permchar_hypothesis_check(G, H, {(1, 2): 1})
        assert (hyp, conc, ratio) == (True, True, Fraction(1))

    def test_fails_on_a_gapped_part(self):
        # the proportionality hypothesis needs every position of the big
        # group under an arc's span to stay inside the arc's own part; the
        # index {1,4}{2,3} breaks that for an arc 1-4, and the enumeration
        # confirms both the hypothesis and the conclusion fail
        G = PatternGroup.full(4, 2)
        K = PartitionIndex(4, [[1, 4], [2, 3]])
        H = PatternGroup.parabolic(K, 2)
        hyp, conc, ratio = permchar_hypothesis_check(G, H, {(1, 4): 1})
        assert (hyp, conc) == (False, False)
        assert ratio == Fraction(1, 4)
