"""Verification suites: the symbolic engine checked exactly against second
routes, the brute-force oracle among them.

``SUITES`` maps each suite's name to a function of (q, max_n, budget,
samples, seed) that returns (ok, detail): ``ok`` is False at the first
mismatch, which ``detail`` names, and otherwise ``detail`` counts the checks
made.  Only the tensor suite reads ``samples`` and ``seed``; a budget of
None admits any walk and leaves the oracle at its default group bound.
The oracle and NCSym are imported by the suites that use them.  The second
routes the suites run live here; the tests keep the routes that only they
run in ``tests/routes.py``.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .qcoeff import Cyclotomic, LaurentPoly
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
    shuffle_index,
    union_K,
)

__all__ = ["SUITES"]


def superinduce_trivial_twoblock(k, n, p):
    """Closed form for superinducing the trivial character from the parabolic
    with parts {1..k} and {k+1..n}: one term per partition whose arcs all
    straddle the cut, weighted by an inverse q-power of its crossings."""
    full = PartitionIndex.full(n)
    return CharCombo(full, [
        (lam, LaurentPoly.q_power(-lam.num_crossings()))
        for lam in enumerate_compatible(full, p)
        if all(i <= k < l for i, l, _ in lam.arcs)
    ])


def _trace(C, rank):
    """Canonical parts of the set partition C restricted to the keys of
    ``rank`` and standardized by it (``rank`` numbers a block of K from 1
    in increasing order)."""
    blocks = (tuple(rank[v] for v in block if v in rank) for block in C)
    return tuple(sorted(b for b in blocks if b))


def _shuffle_traces(blocks, partitions):
    """Each of ``partitions``, the set partitions C of {1..m+n} as canonical
    parts, with its standardized traces on the two ``blocks`` of a shuffle
    index (``shuffle_blocks``: ``()`` for an empty factor, whose trace is
    ``()``)."""
    first, second = ({v: i for i, v in enumerate(block, 1)} for block in blocks)
    return [(C, _trace(C, first), _trace(C, second)) for C in partitions]


def _class_product(x, y, traces):
    """The m-coefficients of a shuffle product, read class by class: the
    coefficient at C is x's at C's first trace times y's at its second.

    ``x`` and ``y`` map canonical parts to the factors' nonzero m-basis
    coefficients, and ``traces`` is :func:`_shuffle_traces` of the index's
    blocks.
    Every C is read, so the route is independent of the partial matchings
    that :func:`superchar.ncsym.star_K_product` enumerates.
    """
    return {C: x[a] * y[b] for C, a, b in traces if a in x and b in y}


def _suite_orthogonality(q, max_n, budget, samples, seed):
    from .oracle import PatternGroup, brute_inner_product_table

    checks = 0
    for n in range(2, max_n + 1):
        G = PatternGroup.full(n, q, max_size=budget)
        labels = G.superclass_table().labels
        rows = G.character_table()
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
        combos = {lam: CharCombo.of(lam, amb) for lam in labels}
        for lam, mu in itertools.product(labels, repeat=2):
            t = tensor(combos[lam], combos[mu], q)
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
        x, y = CharCombo.of(lam, amb), CharCombo.of(mu, amb)
        if tensor(x, y, q) != tensor(y, x, q):
            return False, "commutativity %s (x) %s" % (lam.to_text(), mu.to_text())
        checks += 1
    return True, "%d checks" % checks


def _suite_superinduction(q, max_n, budget, samples, seed):
    from .oracle import PatternGroup, brute_superinduction_table

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
            K = shuffle_index(k, n - k)
            trivial = LabeledSetPartition(range(1, n + 1), [])
            if superinduce(trivial, K, q) != superinduce_trivial_twoblock(k, n, q):
                return False, "closed form at k=%d n=%d" % (k, n)
            checks += 1
    return True, "%d coefficients" % checks


def _suite_words(q, max_n, budget, samples, seed):
    from . import ncsym as nc

    # the class route reads every set partition of {1..max_n}: the labels
    # of U_max_n(2)
    check_walk_budget(max_n, 2, budget, "the words suite on")
    partitions = {d: list(set_partitions(range(1, d + 1))) for d in range(2, max_n + 1)}
    # per degree: each p-basis single with its label of U_d(2), read off the
    # walk that set_partitions follows, and its m-coefficients keyed by
    # parts, built once for every product
    singles = {}
    for d in range(1, max_n):
        singles[d] = []
        for lam in enumerate_compatible(PartitionIndex.full(d), 2):
            x = nc.NCSymElem.single("p", PartitionIndex(d, lam.parts()))
            coeffs = {P.parts: c for P, c in nc.m_from_p(x).coeffs.items()}
            singles[d].append((x, lam, coeffs))
    checks = 0
    for total in range(2, max_n + 1):
        for m in range(1, total):
            n = total - m
            for block1 in itertools.combinations(range(1, total + 1), m):
                block2 = tuple(v for v in range(1, total + 1) if v not in block1)
                K = PartitionIndex(total, [block1, block2])
                traces = _shuffle_traces((block1, block2), partitions[total])
                for x, mu, xm in singles[m]:
                    for y, nu, ym in singles[n]:
                        product = nc.star_K_product(x, y, K)
                        # the class route keeps the check independent of
                        # the m-basis rule
                        got = {P.parts: c for P, c in product.coeffs.items()}
                        if got != _class_product(xm, ym, traces):
                            return False, _where(x, K, y) + " differs from the class route"
                        # p_A *_K p_B = p_glued, compared in the m-basis
                        glued = union_K(mu, nu, K)
                        rhs = nc.NCSymElem.single("p", PartitionIndex(total, glued.parts()))
                        if product != nc.m_from_p(rhs):
                            return False, _where(x, K, y)
                        checks += 1
    return True, "%d products" % checks


def _where(x, K, y):
    """Name the product p_A *_K p_B of two p-basis singles."""
    (A,), (B,) = x.coeffs, y.coeffs
    return "p_%s *_%s p_%s" % (A.to_text(), K.to_text(), B.to_text())


def _suite_charmap(q, max_n, budget, samples, seed):
    """Products match across the bridge at q = 2, for all degrees m + n up
    to ``max_n`` and all two-block shuffles.  Group side: superinducing
    (z_mu kappa_mu) x (z_nu kappa_nu) from the K-parabolic lands on z kappa
    of the glued partition, by the oracle, with every group it builds
    bounded by ``budget``.  The NCSym side of the same products, p_mu *_K
    p_nu = p of the glued partition in the m-basis, is the words suite's
    glue check, over the same degrees and shuffles."""
    from .oracle import PatternGroup, brute_superinduce, z_value

    if q != 2:
        raise ValueError("the characteristic map lives at q = 2")
    detail = "degrees up to %d" % max_n
    for total in range(2, max_n + 1):
        G = PatternGroup.full(total, q, max_size=budget)
        gt = G.superclass_table()
        for m in range(1, total):
            n = total - m
            Gm = PatternGroup.full(m, q, max_size=budget)
            Gn = PatternGroup.full(n, q, max_size=budget)
            for block1 in itertools.combinations(range(1, total + 1), m):
                block2 = tuple(v for v in range(1, total + 1) if v not in block1)
                K = PartitionIndex(total, [block1, block2])
                H = PatternGroup.parabolic(K, q, max_size=budget)
                ht = H.superclass_table()
                for mu in enumerate_compatible(PartitionIndex.full(m), 2):
                    z_mu = z_value(Gm, mu)
                    for nu in enumerate_compatible(PartitionIndex.full(n), 2):
                        z_nu = z_value(Gn, nu)
                        glued = union_K(mu, nu, K)
                        z_glued = z_value(G, glued)
                        scale = Fraction(z_mu * z_nu)
                        chi_vals = tuple(
                            Cyclotomic.from_rational(q, scale if lab == glued else 0)
                            for lab in ht.labels
                        )
                        vals = brute_superinduce(G, H, chi_vals)
                        for lab, got in zip(gt.labels, vals):
                            want = Fraction(z_glued) if lab == glued else Fraction(0)
                            if got.as_rational() != want:
                                return False, detail
    return True, detail


SUITES = {
    "orthogonality": _suite_orthogonality,
    "restriction": _suite_restriction,
    "tensor": _suite_tensor,
    "superinduction": _suite_superinduction,
    "words": _suite_words,
    "charmap": _suite_charmap,
}
