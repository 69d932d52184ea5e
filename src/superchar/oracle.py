"""Brute-force finite-group oracle.

Everything in this module works by explicit enumeration inside a pattern
group: elements are coordinate vectors over the pattern's positions, orbits
are closed by breadth-first search over the moves of the generators
1 + a*E_pos, read off the products of positions, and the defining sums
are evaluated over the orbits (superinduction from H over the superclasses
of H, each inside one superclass of G).  Nothing here shares code with the
symbolic rules in :mod:`superchar.ring`; that independence is the point --
the oracle is the referee for every symbolic identity, at desk scale only.

The budget is hard: a group larger than its bound raises
:class:`BudgetError` instead of grinding.  The default bound is 3^6 = 729
elements (U_4(3)); no table or sum here passes over more than one group's
algebra or dual, so the group bound bounds all of the oracle's work.

A group built with a partition index K must have K's parabolic positions.
Both orbit searches share one set-up (``PatternGroup._search``) and start
at K's labels, so superclass i and supercharacter row i belong to label i.
A superclass is a list of coordinate vectors, and a supercharacter row is
a tuple of values, one per superclass.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from operator import mul

from .qcoeff import Cyclotomic, is_prime, reduce_full
from .setpart import BudgetError, PartitionIndex, enumerate_compatible

__all__ = [
    "BudgetError",
    "PatternGroup",
    "SuperclassTable",
    "brute_superinduce",
    "brute_superinduction_table",
    "brute_inner_product",
    "brute_inner_product_table",
    "z_value",
    "DEFAULT_MAX_GROUP",
]

DEFAULT_MAX_GROUP = 3 ** 6


def _is_transitively_closed(positions):
    ps = set(positions)
    for (i, j) in ps:
        for (k, l) in ps:
            if j == k and (i, l) not in ps:
                return False
    return True


class PatternGroup:
    """A pattern group: unipotent matrices over F_p supported on a
    transitively closed set of strictly-upper positions.

    An element 1 + A (or the algebra element A) is the coordinate vector of
    A's entries at the sorted position list, and a functional on the
    algebra is the vector of its values there.  No matrix is built: every
    product is read off the products of positions (``_products``).
    """

    def __init__(self, n, positions, p, max_size=None, index=None):
        if not is_prime(p):
            raise ValueError("p must be prime, got %r" % (p,))
        positions = tuple(sorted((int(i), int(j)) for (i, j) in positions))
        for (i, j) in positions:
            if not (1 <= i < j <= n):
                raise ValueError("position (%d,%d) is not strictly upper in 1..%d" % (i, j, n))
        if len(set(positions)) != len(positions):
            raise ValueError("repeated position")
        if not _is_transitively_closed(positions):
            raise ValueError("position set is not transitively closed")
        if index is not None and (index.n != n or positions != _parabolic_positions(index)):
            raise ValueError("positions are not the parabolic positions of %s" % index.to_text())
        size = p ** len(positions)
        bound = DEFAULT_MAX_GROUP if max_size is None else max_size
        if size > bound:
            raise BudgetError(
                "pattern group of size %d^%d = %d exceeds the budget %d"
                % (p, len(positions), size, bound)
            )
        self.n = n
        self.p = p
        self.positions = positions
        self.pos_at = {pos: k for k, pos in enumerate(positions)}
        self.size = size
        self.index = index  # PartitionIndex when built as a parabolic
        self._class_table = None
        self._dual = None
        self._char_rows = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def full(cls, n, p, max_size=None):
        """The full unipotent group U_n(p)."""
        return cls.parabolic(PartitionIndex.full(n), p, max_size=max_size)

    @classmethod
    def parabolic(cls, index, p, max_size=None):
        """U_K for a partition index K: positions are the pairs inside parts."""
        return cls(index.n, _parabolic_positions(index), p, max_size=max_size, index=index)

    # -- orbit searches -----------------------------------------------------

    def _products(self):
        """Every product of positions (k,i)*(i,j) -> (k,j) of the pattern, as
        the coordinate triple (s, t, u) of its factors and its result."""
        pos_at = self.pos_at
        return [(s, pos_at[(i, j)], pos_at[(k, j)])
                for s, (k, i) in enumerate(self.positions)
                for h, j in self.positions if h == i]

    def _moves(self, dual):
        """(left, right): per position g, the (destination, source) pairs of
        A -> e*A and of A -> A*e for e = 1 + a*E_g, which add a*A[source]
        into A[destination].  g*t -> u moves A[t] into A[u] on the left, and
        s*g -> u moves A[s] into A[u] on the right.

        ``dual`` gives the action (x.lam.y)(A) = lam(x^-1 A y^-1) on
        functionals: e^-1 = 1 - a*E_g, so each pair is transposed, and -a
        runs over the same units as a."""
        left = [[] for _ in self.positions]
        right = [[] for _ in self.positions]
        for s, t, u in self._products():
            left[s].append((t, u) if dual else (u, t))
            right[t].append((s, u) if dual else (u, s))
        return [m for m in left if m], [m for m in right if m]

    def _label_vec(self, lam):
        """The coordinate vector of u_lam - 1."""
        vec = [0] * len(self.positions)
        for arc in lam.arcs:
            k = self.pos_at.get((arc.left, arc.right))
            if k is None:
                raise ValueError("arc %d-%d is not a position of this group" % (arc.left, arc.right))
            vec[k] = arc.label % self.p
            if vec[k] == 0:
                raise ValueError("arc label vanishes mod p")
        return tuple(vec)

    def _search(self, dual):
        """(labels, orbits, orbit_of): the orbits of the algebra (of the dual
        space when ``dual``) under the two-sided moves of ``_moves``, closed
        by ``_orbits``.  The search starts at the index's labels (none
        without one), at the vectors of their u_lam - 1, and goes on from
        every vector in lexicographic order; label i must start orbit i."""
        labels = [] if self.index is None else list(enumerate_compatible(self.index, self.p))
        starts = [self._label_vec(lam) for lam in labels]
        vecs = itertools.product(range(self.p), repeat=len(self.positions))
        left, right = self._moves(dual)
        orbits, orbit_of = _orbits(itertools.chain(starts, vecs), left + right, self.p)
        if starts and [orbit_of[vec] for vec in starts] != list(range(len(orbits))):
            raise AssertionError("the labels do not index the orbits one to one")
        return labels, orbits, orbit_of

    # -- superclasses --------------------------------------------------------

    def superclass_table(self):
        """Orbits of the algebra under two-sided multiplication by the group
        (``_search``).  Class i is label i's and is represented by its
        u_lam - 1; without an index, classes come by, and are represented
        by, their least vector in lexicographic order.
        """
        if self._class_table is None:
            labels, orbits, orbit_of = self._search(dual=False)
            self._class_table = SuperclassTable(orbits, orbit_of, labels or [None] * len(orbits))
        return self._class_table

    def class_of_label(self, lam):
        """Class id of the superclass of u_lam."""
        return self.superclass_table().class_of[self._label_vec(lam)]

    # -- supercharacters (two-sided dual orbits) ------------------------------

    def _dual_orbits(self):
        """Orbits of the dual space under (x.lam.y)(A) = lam(x^-1 A y^-1),
        a functional being its coordinate vector lam(E_pos) over the
        positions; returns (orbits, orbit_of, right_sizes), where
        right_sizes[i] is the size of the right orbit of orbits[i][0].

        Searched from the labels (``_search``; lam's functional is the
        vector of u_lam - 1), orbit i is label i's; without an index, orbits
        come by least functional."""
        if self._dual is None:
            _, orbits, orbit_of = self._search(dual=True)
            right = self._moves(dual=True)[1]
            right_sizes = [len(_orbits([members[0]], right, self.p)[0][0])
                           for members in orbits]
            self._dual = (orbits, orbit_of, right_sizes)
        return self._dual

    def character_table(self):
        """The supercharacters as value rows over the superclass table.

        chi_lam = (|lam.G| / |G.lam.G|) * sum over the orbit of theta o mu,
        evaluated at the class representatives.  Returns a list of rows, each
        a tuple of Cyclotomics, one per superclass; row i is dual orbit i's:
        with an index, the supercharacter of label i, else rows come by
        least functional.
        """
        if self._char_rows is None:
            p = self.p
            reps = self.superclass_table().reps
            orbits, _, right_sizes = self._dual_orbits()
            rows = []
            for members, rsize in zip(orbits, right_sizes):
                scale = Fraction(rsize, len(members))
                values = []
                for X in reps:
                    counts = Counter(sum(a * x for a, x in zip(mu, X)) % p for mu in members)
                    values.append(Cyclotomic._from_full(p, [scale * counts[r] for r in range(p)]))
                rows.append(tuple(values))
            self._char_rows = rows
        return self._char_rows

    def char_values_of_functional(self, coords):
        """Supercharacter values (per superclass) of the dual orbit through
        the functional given as {(i,j): value}: its ``character_table`` row."""
        vec = [0] * len(self.positions)
        for pos, v in coords.items():
            vec[self.pos_at[pos]] = v % self.p
        return self.character_table()[self._dual_orbits()[1][tuple(vec)]]


def _parabolic_positions(index):
    """The sorted positions of U_K: the pairs i < j inside a part of K."""
    return tuple(sorted((i, j) for part in index.parts for i in part for j in part if i < j))


def _orbits(vecs, moves, p):
    """Orbits of the vectors under the moves, closed by breadth-first search.

    A move is a list of (destination, source) pairs; with each unit a it
    sends A to the vector that adds a*A[source] into A[destination].  Orbits
    are found in the order of their first vector in ``vecs``, and each lists
    its members in the order found; returns (orbits, orbit_of)."""
    orbit_of = {}
    orbits = []
    for start in vecs:
        if start in orbit_of:
            continue
        oid = len(orbits)
        orbit_of[start] = oid
        members = [start]
        for vec in members:  # the queue: members grows while it is read
            for pairs in moves:
                terms = [(d, vec[s]) for d, s in pairs if vec[s]]
                if not terms:
                    continue
                for a in range(1, p):
                    out = list(vec)
                    for d, v in terms:
                        out[d] = (out[d] + a * v) % p
                    out = tuple(out)
                    if out not in orbit_of:
                        orbit_of[out] = oid
                        members.append(out)
        orbits.append(members)
    return orbits, orbit_of


class SuperclassTable:
    """Superclasses of a pattern group.

    ``members`` are the orbits, each a list of the algebra's coordinate
    vectors in the order the search found them; ``reps`` are their first
    vectors (u_mu - 1 when labels exist); ``class_of`` maps every vector to
    its class id; ``labels`` are the labeled set partitions (or Nones).
    """

    def __init__(self, members, class_of, labels):
        self.members = members
        self.reps = [m[0] for m in members]
        self.class_of = class_of
        self.labels = labels

    def __len__(self):
        return len(self.reps)

    def sizes(self):
        return [len(m) for m in self.members]


# ---------------------------------------------------------------------------
# Brute-force operations
# ---------------------------------------------------------------------------

def z_value(group, lam):
    """|G| divided by the size of the superclass of u_lam."""
    members = group.superclass_table().members[group.class_of_label(lam)]
    return Fraction(group.size, len(members))


def _classes_in(G, H):
    """The G-superclass of every H-superclass, read at its representative
    carried onto G's positions.  H lies in G, so each H-superclass lies in
    one G-superclass."""
    if (G.n, G.p) != (H.n, H.p) or not set(H.positions) <= set(G.positions):
        raise ValueError("H must be a pattern subgroup of G")
    at = [G.pos_at[pos] for pos in H.positions]
    class_of, out = G.superclass_table().class_of, []
    for rep in H.superclass_table().reps:
        vec = [0] * len(G.positions)
        for k, c in zip(at, rep):
            vec[k] = c
        out.append(class_of[tuple(vec)])
    return out


def _slots(p, values):
    """One Cyclotomic per class, slot by slot: [coordinate i of each class
    for i in 0..p-2]."""
    if any(v.p != p for v in values):
        raise ValueError("need values in Q(zeta_%d)" % p)
    return [[v.coords[i] for v in values] for i in range(p - 1)]


def _class_sums(G, H, chi_rows):
    """S_O = sum over the H-superclasses C in O of |C| chi(C) for each
    G-superclass O, slot by slot, for each chi in ``chi_rows``."""
    classes_in, sizes, out = _classes_in(G, H), H.superclass_table().sizes(), []
    for chi in chi_rows:
        if len(chi) != len(classes_in):
            raise ValueError("need one value per H-superclass")
        out.append([[0] * len(G.superclass_table()) for _ in range(G.p - 1)])
        for sums, slot in zip(out[-1], _slots(G.p, chi)):
            for o, size, a in zip(classes_in, sizes, slot):
                sums[o] += size * a
    return out


def _pairings(p, f_rows, g_rows, d):
    """The matrix of 1/d * sum over the classes of f * conj(g) for f in
    ``f_rows`` and g in ``g_rows``, slot by slot: slot i of f times slot j
    of g adds into coordinate i - j mod p, as conj(zeta^j) = zeta^-j."""
    def pairing(f, g):
        vec = [0] * p
        for i, fi in enumerate(f):
            for j, gj in enumerate(g):
                vec[(i - j) % p] += sum(map(mul, fi, gj))
        return Cyclotomic._make(p, [Fraction(a, d) if a else 0 for a in reduce_full(vec)])
    return [[pairing(f, g) for g in g_rows] for f in f_rows]


def brute_superinduce(G, H, chi_vals):
    """Superinduction, summed over the superclasses of H in each of G.

    ``H`` must be a pattern subgroup of ``G`` (same n and p, positions a
    subset).  ``chi_vals`` gives one Cyclotomic per H-superclass.  Returns a
    tuple of Cyclotomics, one per G-superclass, of the defining double sum

        SInd(chi)(g) = 1/(|G||H|) * sum over x,y in G with x(g-1)y + 1 in H
                       of chi(1 + x(g-1)y).

    The map (x, y) -> x(g-1)y covers the superclass O of g-1 and hits each
    of its points |G|^2/|O| times (orbit-stabilizer for G x G).  The points
    of O on H's algebra are whole H-superclasses C (``_classes_in``), so
    SInd(chi)(g) = |G|/(|H||O|) * S_O with ``_class_sums``' S_O.
    """
    (sums,), sizes = _class_sums(G, H, [chi_vals]), G.superclass_table().sizes()
    return tuple(Cyclotomic._make(G.p, [Fraction(G.size * s[o], H.size * size) for s in sums])
                 for o, size in enumerate(sizes))


def brute_superinduction_table(G, H, chi_rows):
    """The matrix of <SInd(chi), chi^lam> for chi in ``chi_rows`` (each as
    in ``brute_superinduce``) and the rows chi^lam of G's character table.
    By ``brute_superinduce``, the class sizes |O| cancel:
    <SInd(chi), chi^lam> = 1/|H| * sum over O of S_O conj(chi^lam(O))."""
    rows = [_slots(G.p, row) for row in G.character_table()]
    return _pairings(G.p, _class_sums(G, H, chi_rows), rows, H.size)


def brute_inner_product_table(group, f_rows, g_rows):
    """The matrix of <f, g> = 1/|G| sum over the group of f * conj(g) for f
    in ``f_rows`` and g in ``g_rows``, one Cyclotomic per superclass each."""
    sizes = group.superclass_table().sizes()
    weighted = [[list(map(mul, sizes, slot)) for slot in _slots(group.p, f)] for f in f_rows]
    return _pairings(group.p, weighted, [_slots(group.p, g) for g in g_rows], group.size)


def brute_inner_product(group, f_vals, g_vals):
    """<f, g>: the one entry of ``brute_inner_product_table``."""
    return brute_inner_product_table(group, [f_vals], [g_vals])[0][0]
