"""Correctness checks that do not rest on a copy of the program's output.

Every check here reads the program's rendered text and compares it with a
property or a value the benchmark computes with its own code:

* character degrees (the power of q is the number of same-part vertices
  strictly under each arc), preserved by restriction, multiplied by tensor
  products and straightening, and scaled by p^(#positions of U_n minus
  #positions of U_K) under superinduction;
* positivity of every coefficient at q = p;
* the number of F_q-labeled set partitions;
* the shape of a supercharacter value (0, or a power of p no larger than
  the degree times a p-th root of unity);
* NCSym products: p_A *_K p_B is the single p of the glued partition, and
  m_A *_K m_B is the sum of m_C over the partitions C whose traces on the
  two blocks are A and B (Rosas--Sagan);
* basis round trips return their input.

Each checker returns None when the output passes and a one-line reason
when it does not.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction

# ---------------------------------------------------------------------------
# parsing rendered text


_PARTITION_RE = re.compile(r"^n\s*=\s*(\d+)\s*(?:;\s*(.*))?$")
_ARC_RE = re.compile(r"^\s*(\d+)\s*-\s*(\d+)\s*:\s*(\d+)\s*$")
_COMBO_TERM_RE = re.compile(r"\(([^()]*)\)\*chi\[([^\]]*)\]")
_NCSYM_TERM_RE = re.compile(r"\(([^()]*)\)\*([mp])\[(\{[^\]]*\})\]")
_LAURENT_TERM_RE = re.compile(
    r"\s*([+-])?\s*(?:(\d+(?:/\d+)?)\s*\*\s*q|(q)|(\d+(?:/\d+)?))(?:\^(-?\d+))?\s*"
)
_CYCLO_TERM_RE = re.compile(
    r"\s*([+-])?\s*(?:(\d+(?:/\d+)?)\s*\*\s*z|(z)|(\d+(?:/\d+)?))(?:\^(\d+))?\s*"
)


class ParseError(ValueError):
    """Rendered text the checks cannot read."""


def parse_partition(text):
    """``"n=5; 1-3:1, 2-4:2"`` -> (5, ((1, 3, 1), (2, 4, 2)))."""
    m = _PARTITION_RE.match(text.strip())
    if not m:
        raise ParseError("bad partition text %r" % text)
    n = int(m.group(1))
    arcs = []
    body = (m.group(2) or "").strip()
    if body:
        for chunk in body.split(","):
            am = _ARC_RE.match(chunk)
            if not am:
                raise ParseError("bad arc %r" % chunk)
            arcs.append(tuple(int(g) for g in am.groups()))
    return n, tuple(sorted(arcs))


def _terms(regex, template, text, what):
    """Split a canonical ``t1 + t2 + ...`` rendering into regex matches,
    refusing any text the matches do not rebuild exactly."""
    text = text.strip()
    if text == "0":
        return []
    found = regex.findall(text)
    if " + ".join(template % f for f in found) != text:
        raise ParseError("unreadable %s %r" % (what, text))
    return found


def _signed_terms(regex, text, what):
    pos, first, out = 0, True, []
    text = text.strip()
    while pos < len(text):
        m = regex.match(text, pos)
        if not m or m.end() == pos:
            raise ParseError("bad %s %r" % (what, text))
        if not first and m.group(1) is None:
            raise ParseError("missing sign in %s %r" % (what, text))
        out.append(m)
        pos = m.end()
        first = False
    return out


def eval_laurent(text, p):
    """Value at q = p of a rendered coefficient: a Laurent polynomial such
    as ``2*q^-1 - q + 3`` or a plain rational such as ``3/2``."""
    text = text.strip()
    if text in ("", "0"):
        return Fraction(0)
    total = Fraction(0)
    for m in _signed_terms(_LAURENT_TERM_RE, text, "coefficient"):
        sign, coeff, lone, const, exp = m.groups()
        if const is not None:
            if exp is not None:
                raise ParseError("constant with exponent in %r" % text)
            c, e = Fraction(const), 0
        else:
            c = Fraction(coeff) if coeff else Fraction(1)
            e = int(exp) if exp is not None else 1
        total += (-c if sign == "-" else c) * Fraction(p) ** e
    return total


def parse_cyclotomic(text, p):
    """A rendered element of Q(zeta_p) on the basis 1, z, ..., z^(p-2) as a
    coordinate list of length p - 1."""
    coords = [Fraction(0)] * (p - 1)
    text = text.strip()
    if text == "0":
        return coords
    for m in _signed_terms(_CYCLO_TERM_RE, text, "value"):
        sign, coeff, lone, const, exp = m.groups()
        if const is not None:
            if exp is not None:
                raise ParseError("constant with exponent in %r" % text)
            c, k = Fraction(const), 0
        else:
            c = Fraction(coeff) if coeff else Fraction(1)
            k = int(exp) if exp is not None else 1
        if k > p - 2:
            raise ParseError("power z^%d outside the basis in %r" % (k, text))
        coords[k] += -c if sign == "-" else c
    return coords


def parse_combo(text, p):
    """Rendered combination -> list of (value of the coefficient at q = p,
    n, arcs)."""
    out = []
    for coeff, part in _terms(_COMBO_TERM_RE, "(%s)*chi[%s]", text, "combination"):
        n, arcs = parse_partition(part)
        out.append((eval_laurent(coeff, p), n, arcs))
    return out


def parse_set_partition(text):
    """``"{1,3|2}"`` -> frozenset of frozensets."""
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ParseError("bad set partition %r" % text)
    if text == "{}":
        return frozenset()
    return frozenset(
        frozenset(int(v) for v in chunk.split(",")) for chunk in text[1:-1].split("|")
    )


def parse_ncsym(text):
    """Rendered NCSym element -> (basis or None for 0, {partition: coeff})."""
    basis, out = None, {}
    for coeff, b, part in _terms(_NCSYM_TERM_RE, "(%s)*%s[%s]", text, "NCSym element"):
        if basis not in (None, b):
            raise ParseError("mixed bases in %r" % text)
        basis = b
        key = parse_set_partition(part)
        if key in out:
            raise ParseError("repeated term in %r" % text)
        out[key] = Fraction(coeff)
    return basis, out


# ---------------------------------------------------------------------------
# degrees


def part_of(parts):
    return {v: i for i, part in enumerate(parts) for v in part}


def degree_exponent(arcs, parts):
    """The power of q in the degree of chi^arcs inside U_parts: for every arc,
    the vertices of its own part strictly under it."""
    lookup = part_of(parts)
    e = 0
    for i, j, _ in arcs:
        if lookup[i] != lookup[j]:
            raise ValueError("arc %d-%d straddles the parts" % (i, j))
        e += sum(1 for m in parts[lookup[i]] if i < m < j)
    return e


def positions(parts):
    """Number of matrix positions of U_parts: pairs inside a part."""
    return sum(len(part) * (len(part) - 1) // 2 for part in parts)


def check_combo(text, p, n, parts, degree):
    """A rendered combination on U_parts (parts covering 1..n) whose degree
    must be ``degree`` and whose coefficients must be positive at q = p."""
    try:
        terms = parse_combo(text, p)
    except ParseError as exc:
        return str(exc)
    if not terms:
        return "empty combination"
    lookup = part_of(parts)
    total = Fraction(0)
    for c, tn, arcs in terms:
        if tn != n:
            return "term on n=%d, expected n=%d" % (tn, n)
        if c <= 0:
            return "coefficient %s at q=%d is not positive" % (c, p)
        if any(lookup[i] != lookup[j] for i, j, _ in arcs):
            return "term arcs leave the parts of the index"
        total += c * Fraction(p) ** degree_exponent(arcs, parts)
    if total != degree:
        return "degree %s, expected %s" % (total, degree)
    return None


def full_parts(n):
    return (tuple(range(1, n + 1)),)


def restrict_degree(n, arcs, p):
    """Restriction keeps the degree of chi^arcs on U_n."""
    return Fraction(p) ** degree_exponent(arcs, full_parts(n))


def tensor_degree(n, factors, p):
    """The product of the factors' degrees on U_n."""
    return Fraction(p) ** sum(degree_exponent(a, full_parts(n)) for a in factors)


def straighten_degree(arcs, p):
    """A product of single-arc characters: q^(l - i - 1) per arc i-l."""
    return Fraction(p) ** sum(j - i - 1 for i, j, _ in arcs)


def superinduce_degree(n, arcs, parts, p):
    """SInd from U_K to U_n multiplies the degree by the index [U_n : U_K]."""
    e = positions(full_parts(n)) - positions(parts) + degree_exponent(arcs, parts)
    return Fraction(p) ** e


def glue(left_arcs, m, right_arcs, k, blocks):
    """Transport arcs on {1..m} and {1..k} onto the two blocks, in order."""
    b1, b2 = sorted(blocks[0]), sorted(blocks[1])
    if (len(b1), len(b2)) != (m, k):
        raise ValueError("block sizes do not match")
    out = [(b1[i - 1], b1[j - 1], a) for i, j, a in left_arcs]
    out += [(b2[i - 1], b2[j - 1], a) for i, j, a in right_arcs]
    return tuple(sorted(out))


def check_rule(item, text):
    """Degree and positivity checks for a rendered branching result: a
    restriction, tensor product, straightening, star product or
    superinduction described by the request ``item``."""
    kind, n, p = item["kind"], item["n"], item["p"]
    full = full_parts(n)
    if kind == "restrict":
        return check_combo(text, p, n, item["parts"], restrict_degree(n, item["arcs"], p))
    if kind == "tensor":
        return check_combo(text, p, n, full, tensor_degree(n, item["factors"], p))
    if kind == "straighten":
        return check_combo(text, p, n, full, straighten_degree(item["arcs"], p))
    if kind == "star":
        m = len(item["parts"][0])
        arcs = glue(item["left"], m, item["right"], n - m, item["parts"])
    else:
        arcs = item["arcs"]
    return check_combo(text, p, n, full, superinduce_degree(n, arcs, item["parts"], p))


# ---------------------------------------------------------------------------
# counting and values


def count_labeled(n, q):
    """F_q-labeled set partitions of an n-set: sum over k of
    S(n, k) (q-1)^(n-k), with Stirling numbers of the second kind."""
    stirling = [[0] * (n + 1) for _ in range(n + 1)]
    stirling[0][0] = 1
    for i in range(1, n + 1):
        for k in range(1, i + 1):
            stirling[i][k] = k * stirling[i - 1][k] + stirling[i - 1][k - 1]
    return sum(stirling[n][k] * (q - 1) ** (n - k) for k in range(n + 1))


def check_count(text, n, q):
    want = count_labeled(n, q)
    try:
        got = int(text.strip())
    except ValueError:
        return "count %r is not an integer" % text
    return None if got == want else "count %d, expected %d" % (got, want)


def _is_power(x, p):
    if x.denominator != 1 or x < 1:
        return False
    x = x.numerator
    while x % p == 0:
        x //= p
    return x == 1


def check_value(text, p, n, arcs, at_identity):
    """chi(u) is 0 or c * zeta^k with |c| a power of p at most chi(1); at
    the identity it is chi(1) itself."""
    try:
        coords = parse_cyclotomic(text, p)
    except ParseError as exc:
        return str(exc)
    deg = Fraction(p) ** degree_exponent(arcs, full_parts(n))
    if at_identity:
        want = [deg] + [Fraction(0)] * (p - 2)
        return None if coords == want else "value at 1 is %r, expected %s" % (text, deg)
    nonzero = [c for c in coords if c]
    if not nonzero:
        return None
    if len(nonzero) == 1:
        c = nonzero[0]
    elif p > 2 and len(set(coords)) == 1:
        c = -coords[0]  # c * zeta^(p-1) = -c (1 + zeta + ... + zeta^(p-2))
    else:
        return "value %r is not a multiple of one root of unity" % text
    mag = abs(c)
    if mag > deg or not _is_power(mag, p):
        return "value %r has modulus %s, not a power of %d up to %s" % (text, mag, p, deg)
    return None


# ---------------------------------------------------------------------------
# NCSym


def transport(blocks, target):
    """Blocks of a partition of {1..len(target)} moved onto ``target`` in
    increasing order."""
    target = sorted(target)
    return [frozenset(target[v - 1] for v in b) for b in blocks]


def glued_partition(A, B, K1, K2):
    """p_A *_K p_B: A on the first block of K, B on the second."""
    return frozenset(transport(A, K1) + transport(B, K2))


def rosas_sagan(A, B, K1, K2):
    """The partitions C of K1 u K2 whose traces on K1 and K2 are A and B:
    every way of merging blocks of A with distinct blocks of B."""
    a, b = transport(A, K1), transport(B, K2)
    out = set()
    for k in range(min(len(a), len(b)) + 1):
        for left in itertools.combinations(range(len(a)), k):
            for right in itertools.permutations(range(len(b)), k):
                merged = [a[i] | b[j] for i, j in zip(left, right)]
                rest = [a[i] for i in range(len(a)) if i not in left]
                rest += [b[j] for j in range(len(b)) if j not in right]
                out.add(frozenset(merged + rest))
    return out


def check_ncsym_product(text, basis, A, B, K1, K2):
    """A rendered product of single basis elements along blocks K1 | K2."""
    try:
        got_basis, got = parse_ncsym(text)
    except ParseError as exc:
        return str(exc)
    if got_basis != basis:
        return "product in basis %r, expected %r" % (got_basis, basis)
    if basis == "p":
        want = {glued_partition(A, B, K1, K2): Fraction(1)}
    else:
        want = {C: Fraction(1) for C in rosas_sagan(A, B, K1, K2)}
    if got != want:
        return "%s-product has %d terms, expected %d (or differs)" % (basis, len(got), len(want))
    return None


def check_round_trip(text, basis, coeffs):
    """A basis change and back must return the input element."""
    try:
        got_basis, got = parse_ncsym(text)
    except ParseError as exc:
        return str(exc)
    if got_basis != basis or got != coeffs:
        return "round trip changed the %s-basis element" % basis
    return None
