"""Reference routes: second implementations kept as test oracles.

Each operation has one public implementation in ``ring``, ``oracle`` or
``ncsym``.  The functions here recompute answers, or identities behind
them, by independent routes: superinduction by a permutation-character
factorization and by a closed form, product identities, NCSym shuffle
products read one set partition (one class of words) at a time, the
partition lattice, and the characteristic map checked against the
brute-force oracle.  Only the tests and the verify suites import them; the
word-by-word shuffle product, which checks the class route, lives with the
tests.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .ncsym import (
    NCSymElem,
    _coarsenings_with_mobius,
    canonical_index,
    m_from_p,
    star_K_product,
)
from .oracle import PatternGroup, _classes_in, brute_superinduce, z_value
from .qcoeff import Cyclotomic, LaurentPoly
from .ring import (
    CharCombo,
    _combo_coords,
    degree_in,
    restrict,
    sinf,
    superinduce,
    tensor,
)
from .setpart import (
    LabeledSetPartition,
    PartitionIndex,
    arcs_of_parts,
    enumerate_compatible,
    set_partitions,
    union_K,
)


# ---------------------------------------------------------------------------
# Superinduction by other routes
# ---------------------------------------------------------------------------

def superinduce_trivial_twoblock(k, n, p):
    """Closed form for superinducing the trivial character from the parabolic
    with parts {1..k} and {k+1..n}: one term per partition whose arcs all
    straddle the cut, weighted by an inverse q-power of its crossings."""
    if not (1 <= k < n):
        raise ValueError("need 1 <= k < n")
    full = PartitionIndex.full(n)
    terms = []
    for lam in enumerate_compatible(full, p):
        if all(a.left <= k < a.right for a in lam.arcs):
            terms.append((lam, LaurentPoly.q_power(-lam.num_crossings())))
    return CharCombo(full, terms)


def _parts_are_intervals_within(K, L):
    """True when every part of K occupies consecutive positions of its
    enclosing L-part."""
    lookup = L.part_lookup()
    for part in K.parts:
        ambient = sorted(L.parts[lookup[part[0]]])
        first = ambient.index(part[0])
        if list(part) != ambient[first : first + len(part)]:
            return False
    return True


def superinduce_via_permchar(mu, K, p, L=None):
    """Superinduction through the permutation-character factorization: the
    degree ratio (a q-power) times the inflated character tensored with the
    superinduced trivial character.

    The factorization is an identity only when every part of K is an
    interval inside its L-part.  With a gap in a part, positions of U_L
    sitting under one of its arcs belong to other parts, and the inflated
    character is no longer proportional to the original on U_K (the
    enumeration oracle exhibits failures at n = 4: K = {1,4|2,3} with a
    1-4 arc).  Such indices are refused; ``superinduce`` handles them.
    """
    n = K.n
    if L is None:
        L = PartitionIndex.full(n)
    if not _parts_are_intervals_within(K, L):
        raise ValueError(
            "the factorization needs each part of %s to be an interval "
            "inside its part of %s; use superinduce for general indices"
            % (K.to_text(), L.to_text())
        )
    deg_K = degree_in(mu, K)
    deg_L = degree_in(sinf(mu, K, L), L)
    (ek, ck), = deg_K.coeffs.items() if deg_K.coeffs else [(0, 0)]
    (el, cl), = deg_L.coeffs.items() if deg_L.coeffs else [(0, 0)]
    if ck != 1 or cl != 1:
        raise RuntimeError("degrees must be monic q-powers")
    sind_triv = superinduce(LabeledSetPartition(range(1, n + 1)), K, p, L)
    lifted = CharCombo.of(mu, L)
    return tensor(lifted, sind_triv, p).scale(LaurentPoly.q_power(ek - el))


# ---------------------------------------------------------------------------
# Restriction-inflation identities and the order-reversing symmetry
# ---------------------------------------------------------------------------

def sinf_combo(x, L):
    """Lift a combination on U_K to U_L (K must refine L): identical terms,
    coarser ambient."""
    if not x.ambient.refines(L):
        raise ValueError("ambient must refine the inflation target")
    return CharCombo(L, dict(x.terms))


def _sinfres_single(arc, lo, hi, n, p):
    """Restrict a single-arc character to the interval subgroup on [lo,hi]
    and read the result back in the full group (inflation keeps the arcs)."""
    lam = LabeledSetPartition(range(1, n + 1), [arc])
    sub = restrict(lam, PartitionIndex.from_subset(range(lo, hi + 1), n), p)
    return sinf_combo(sub, PartitionIndex.full(n))


def sinfres_identities_check(i, j, k, l, a, b, n, p):
    """Check the four restriction-inflation product identities for the
    quadruple i<j<k<l by exhaustive pointwise evaluation."""
    if not (1 <= i < j < k < l <= n):
        raise ValueError("need 1 <= i < j < k < l <= n")
    full = PartitionIndex.full(n)
    neg_a = (-a) % p

    def chi(*arcs):
        return CharCombo.of(LabeledSetPartition(range(1, n + 1), arcs), full)

    checks = [
        (
            tensor_values(chi((i, k, a)), chi((i, l, b)), n, p),
            tensor_values(_sinfres_single((i, k, a), i + 1, l, n, p), chi((i, l, b)), n, p),
        ),
        (
            tensor_values(chi((i, l, a)), chi((j, l, b)), n, p),
            tensor_values(chi((i, l, a)), _sinfres_single((j, l, b), i, l - 1, n, p), n, p),
        ),
        (
            tensor_values(chi((i, l, a)), chi((i, l, neg_a)), n, p),
            tensor_values(
                _sinfres_single((i, l, a), i + 1, l, n, p),
                _sinfres_single((i, l, neg_a), i, l - 1, n, p),
                n,
                p,
            ),
        ),
    ]
    if (a + b) % p != 0:
        ab = (a + b) % p
        checks.append(
            (
                tensor_values(chi((i, l, a)), chi((i, l, b)), n, p),
                tensor_values(
                    chi((i, l, ab)), _sinfres_single((i, l, ab), i + 1, l - 1, n, p), n, p
                ),
            )
        )
    return all(lhs == rhs for lhs, rhs in checks)


def tensor_values(x, y, n, p):
    """Value vector of a pointwise product over all superclass labels (no
    straightening involved -- tensor values are plain products)."""
    labels = list(enumerate_compatible(PartitionIndex.full(n), p))
    return tuple(
        Cyclotomic._make(p, a) * Cyclotomic._make(p, b)
        for a, b in zip(_combo_coords(x, labels, p), _combo_coords(y, labels, p))
    )


def reflect_combo(x):
    """Conjugate a combination by the order-reversing symmetry."""
    return CharCombo(
        x.ambient.reflect(),
        [(lam.reflect(), c) for lam, c in x.terms.items()],
    )


# ---------------------------------------------------------------------------
# Partial permutation matrices and the two power-sum identities
# ---------------------------------------------------------------------------

def sg_matrices(m, n):
    """All m x n 0-1 matrices with at most one 1 per row and per column,
    as tuples of row-tuples, deterministically ordered."""
    out = []
    for k in range(min(m, n) + 1):
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.permutations(range(n), k):
                w = [[0] * n for _ in range(m)]
                for r, c in zip(rows, cols):
                    w[r][c] = 1
                out.append(tuple(tuple(r) for r in w))
    out.sort()
    return out


def sg_ones(w):
    return sum(sum(row) for row in w)


def sg_sow(w):
    """Zeros of w lying below a 1 in their column or left of a 1 in their row."""
    m, n = len(w), len(w[0]) if w else 0
    count = 0
    for j in range(m):
        for k in range(n):
            if w[j][k]:
                continue
            if any(w[i][k] for i in range(j)) or any(w[j][l] for l in range(k + 1, n)):
                count += 1
    return count


def sg_identity_a(m, n):
    """sum over w of (q-1)^ones(w) q^sow(w), as a Laurent polynomial.
    Equals q^(mn)."""
    total = LaurentPoly.zero()
    qm1 = LaurentPoly.q_minus_one()
    for w in sg_matrices(m, n):
        total = total + (qm1 ** sg_ones(w)).shift(sg_sow(w))
    return total


def sg_identity_b(m, n):
    """The signed sum over w of (-1)^(w_1n) (q-1)^(ones(w) - w_1n) q^sow(w).

    Shapes whose top-right corner carries a 1 enter with one fewer label
    factor (the corner label is summed against theta, contributing -1), so
    the signed sum vanishes identically in q.
    """
    total = LaurentPoly.zero()
    qm1 = LaurentPoly.q_minus_one()
    for w in sg_matrices(m, n):
        corner = w[0][n - 1]
        term = (qm1 ** (sg_ones(w) - corner)).shift(sg_sow(w))
        total = total + (-term if corner else term)
    return total


# ---------------------------------------------------------------------------
# Permutation-character factorization of superinduction, by enumeration
# ---------------------------------------------------------------------------

def permchar_hypothesis_check(G, H, mu_coords):
    """Check, by enumeration, the proportionality hypothesis and the
    factorization conclusion for a supercharacter of H inside G.

    mu_coords: functional on the H-mask as {(i,j): value}.

    hypothesis: chi(1) * Sinf(chi)(h) == Sinf(chi)(1) * chi(h) for all h in H,
    where Sinf(chi) is the G-supercharacter of the functional extended by 0.

    conclusion: SInd(chi) == (chi(1)/Sinf(chi)(1)) * Sinf(chi) * SInd(triv),
    compared on every G-superclass.

    Returns (hypothesis_holds, conclusion_holds, ratio).
    """
    p = G.p
    g_table = G.superclass_table()
    h_table = H.superclass_table()

    chi_h = H.char_values_of_functional(mu_coords)
    sinf_g = G.char_values_of_functional(mu_coords)

    # identity sits in class of the zero algebra element
    id_class_h = h_table.class_of[0]
    id_class_g = g_table.class_of[0]
    chi_deg = chi_h[id_class_h]
    sinf_deg = sinf_g[id_class_g]

    # both sides are constant on an H-superclass: check one point of each
    hypothesis = all(
        chi_deg * sinf_g[g_cid] == sinf_deg * chi_h[h_cid]
        for h_cid, g_cid in enumerate(_classes_in(G, H))
    )

    triv = tuple(Cyclotomic.one(p) for _ in range(len(h_table)))
    sind_triv = brute_superinduce(G, H, triv)
    sind_chi = brute_superinduce(G, H, chi_h)

    ratio = chi_deg.as_rational() / sinf_deg.as_rational()
    conclusion = all(
        sind_chi[c] == ratio * sinf_g[c] * sind_triv[c]
        for c in range(len(g_table))
    )
    return hypothesis, conclusion, ratio


# ---------------------------------------------------------------------------
# NCSym shuffle products read one class at a time
# ---------------------------------------------------------------------------

def _trace(C, rank):
    """Canonical parts of the set partition C restricted to the keys of
    ``rank`` and standardized by it (``rank`` numbers a block of K from 1
    in increasing order)."""
    blocks = (tuple(rank[v] for v in block if v in rank) for block in C)
    return tuple(sorted(b for b in blocks if b))


def _shuffle_traces(K, partitions):
    """Each of ``partitions``, the set partitions C of {1..K.n} as
    canonical parts, with its standardized traces on the two blocks of K."""
    ranks = [{v: i for i, v in enumerate(block, 1)} for block in K.parts]
    return [(C, _trace(C, ranks[0]), _trace(C, ranks[1])) for C in partitions]


def _class_product(x, y, traces):
    """The m-coefficients of a shuffle product, read class by class: the
    coefficient at C is x's at C's first trace times y's at its second.

    ``x`` and ``y`` map canonical parts to the factors' nonzero m-basis
    coefficients, and ``traces`` is :func:`_shuffle_traces` of the index.
    Every C is read, so the route is independent of the partial matchings
    that :func:`superchar.ncsym.star_K_product` enumerates.
    """
    out = {}
    for C, a, b in traces:
        if a in x and b in y:
            out[C] = x[a] * y[b]
    return out


# ---------------------------------------------------------------------------
# The partition lattice
# ---------------------------------------------------------------------------

def coarsenings(K):
    """All partitions obtained by merging blocks of K (K itself included)."""
    return [PartitionIndex(K.n, parts) for parts, _ in _coarsenings_with_mobius(K)]


def mobius_partition(A, B):
    """Mobius function of the interval [A, B] in the partition lattice.

    A must refine B; the interval is a product of full partition lattices,
    one per block of B, giving the product of (-1)^(k-1) (k-1)! over the
    number k of A-blocks inside each B-block.
    """
    if not A.refines(B):
        raise ValueError("Mobius function needs A refining B")
    lk = A.part_lookup()
    value = 1
    for block in B.parts:
        k = len({lk[v] for v in block})
        sign = -1 if (k - 1) % 2 else 1
        value *= sign * math.factorial(k - 1)
    return value


def mobius_telescope_check(n):
    """Sum of mobius(M, B) over A <= M <= B is the delta on A == B; checked
    for every refinement pair of partitions of {1..n}."""
    idx = [canonical_index(PartitionIndex(n, pp)) for pp in set_partitions(range(1, n + 1))]
    for B in idx:
        below = [A for A in idx if A.refines(B)]
        for A in below:
            total = sum(mobius_partition(M, B) for M in below if A.refines(M))
            if total != (1 if A == B else 0):
                return False
    return True


# ---------------------------------------------------------------------------
# The bridge to the group side (q = 2)
# ---------------------------------------------------------------------------

def _labeled_of_parts(parts, n):
    """The labeled partition with the arc skeleton of an unlabeled one; all
    labels 1, which is the only choice at p = 2."""
    return LabeledSetPartition(range(1, n + 1), [(u, v, 1) for u, v in arcs_of_parts(parts)])


def characteristic_map_check(max_total=4, budget=None):
    """Products match across the bridge at p = 2, for all degrees m + n up
    to ``max_total`` and all two-block shuffles.

    Group side: superinducing the product of scaled superclass indicators
    (z_mu kappa_mu) x (z_nu kappa_nu) from the K-parabolic to the full group
    lands on z kappa of the glued partition -- computed by the oracle, with
    every group it builds bounded by ``budget``.  NCSym side:
    p_mu *_K p_nu = p of the glued partition, with the product computed by
    the m-basis rule.  Returns the conjunction of all the checks.
    """
    p = 2
    for total in range(2, max_total + 1):
        G = PatternGroup.full(total, p, max_size=budget)
        gt = G.superclass_table()
        for m in range(1, total):
            n = total - m
            Gm = PatternGroup.full(m, p, max_size=budget)
            Gn = PatternGroup.full(n, p, max_size=budget)
            for block1 in itertools.combinations(range(1, total + 1), m):
                block2 = tuple(v for v in range(1, total + 1) if v not in block1)
                K = PartitionIndex(total, [block1, block2])
                H = PatternGroup.parabolic(K, p, max_size=budget)
                ht = H.superclass_table()
                for mu_parts in set_partitions(range(1, m + 1)):
                    mu = _labeled_of_parts(mu_parts, m)
                    z_mu = z_value(Gm, mu)
                    p_mu = NCSymElem.single("p", PartitionIndex(m, mu_parts))
                    for nu_parts in set_partitions(range(1, n + 1)):
                        nu = _labeled_of_parts(nu_parts, n)
                        z_nu = z_value(Gn, nu)
                        p_nu = NCSymElem.single("p", PartitionIndex(n, nu_parts))
                        glued = union_K(mu, nu, K)
                        z_glued = z_value(G, glued)
                        scale = Fraction(z_mu * z_nu)
                        chi_vals = tuple(
                            Cyclotomic.from_rational(p, scale if lab == glued else 0)
                            for lab in ht.labels
                        )
                        vals = brute_superinduce(G, H, chi_vals)
                        for lab, got in zip(gt.labels, vals):
                            want = Fraction(z_glued) if lab == glued else Fraction(0)
                            if got.as_rational() != want:
                                return False
                        # NCSym side of the same product, compared in the m-basis
                        rhs = NCSymElem.single("p", PartitionIndex(total, glued.parts()))
                        if star_K_product(p_mu, p_nu, K) != m_from_p(rhs):
                            return False
    return True
