"""Exact coefficient arithmetic.

Two scalar domains, both exact:

* :class:`LaurentPoly` -- integer Laurent polynomials in one variable ``q``,
  stored sparsely as ``{exponent: coeff}`` with no zero coefficients.
* :class:`Cyclotomic` -- elements of Q(zeta_p) for a prime p, written on the
  rational basis ``1, zeta, ..., zeta^(p-2)`` with the reduction
  ``zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))``.

Rational scalars (Cyclotomic coordinates, NCSym coefficients) are stored as
an int when integral, else as a Fraction; :func:`rational` brings a value
from outside to that form and refuses floats.

Everything here is immutable, so values can be shared freely across threads
or processes: an operation may return one of its operands or a shared
constant rather than a fresh object.  Values are validated where they enter
(the public constructors, ``from_text``, ``from_json``); arithmetic builds
its results with an unchecked ``_make``.
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import check_ints, check_prime

__all__ = [
    "LaurentPoly",
    "Cyclotomic",
]


def rational(c):
    """``c`` as an exact rational: an int when integral, else a Fraction in
    lowest terms.  Anything ``Fraction`` accepts except a float (a binary
    approximation) or a bool (JSON true is not the number 1), each refused
    with ``TypeError``, and a zero denominator, refused with ``ValueError``."""
    if type(c) is int:
        return c
    if isinstance(c, (bool, float)):
        raise TypeError("exact coefficients only, not the %s %r" % (type(c).__name__, c))
    if type(c) is not Fraction:
        try:
            c = Fraction(c)
        except ZeroDivisionError:
            raise ValueError("the rational %r has a zero denominator" % (c,)) from None
    return c.numerator if c.denominator == 1 else c


def reduce_full(vec):
    """The coordinates on 1, zeta, ..., zeta^(p-2) of the length-p vector
    ``vec`` on 1, zeta, ..., zeta^(p-1), by 1 + zeta + ... + zeta^(p-1) = 0:
    slot i minus slot p-1."""
    last = vec[-1]
    return tuple([a - last for a in vec[:-1]])


def json_fields(obj, form, *fields):
    """The values of ``fields`` in the JSON object ``obj``; a non-object or
    a missing field is refused with ``ValueError`` naming it."""
    if not isinstance(obj, dict):
        raise ValueError("%s JSON form must be an object" % form)
    for field in fields:
        if field not in obj:
            raise ValueError("%s JSON form has no %r field" % (form, field))
    return [obj[field] for field in fields]


# ---------------------------------------------------------------------------
# Laurent polynomials in q
# ---------------------------------------------------------------------------

class LaurentPoly:
    """Sparse integer Laurent polynomial in ``q``.

    ``coeffs`` maps exponent (any int, negative allowed) to a nonzero int.
    Supports +, -, * (with ints and other LaurentPolys), integer powers,
    exact shifts by q^k, and exact evaluation at a rational point.  The
    public constructor (and so ``const``, ``q_power``, ``from_text`` and
    ``from_json``) checks every exponent and coefficient and drops zeros,
    refusing a non-int (a bool too) with ``TypeError``; arithmetic builds
    its results with ``_make``, unchecked.  ``one`` and ``q_minus_one`` are
    shared constants.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        coeffs = coeffs or {}
        for term in coeffs.items():
            check_ints(term, "a Laurent exponent or coefficient")
        object.__setattr__(self, "coeffs", {e: c for e, c in coeffs.items() if c})

    @classmethod
    def _make(cls, coeffs):
        """A polynomial owning the trusted dict ``coeffs`` (int exponents to
        nonzero ints), with no checks: the constructor of internal results."""
        self = object.__new__(cls)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def one(cls):
        return _ONE

    @classmethod
    def const(cls, c):
        return cls({0: c})

    @classmethod
    def q_power(cls, k, coeff=1):
        """coeff * q^k."""
        return cls({k: coeff})

    @classmethod
    def q_minus_one(cls):
        return _Q_MINUS_ONE

    # -- ring operations ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly._make({0: other} if other else {})
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                del out[e]
        return LaurentPoly._make(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._make({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        x, y = (other, self) if len(self.coeffs) == 1 else (self, other)
        if len(y.coeffs) == 1:
            # a single term c*q^k shifts and scales; the term 1 is the identity
            (k, c), = y.coeffs.items()
            if k == 0 and c == 1:
                return x
            return LaurentPoly._make({e + k: a * c for e, a in x.coeffs.items()})
        out = {}
        for e1, c1 in x.coeffs.items():
            for e2, c2 in y.coeffs.items():
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly._make({e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, k):
        check_ints((k,), "a Laurent exponent or coefficient")
        if k < 0:
            raise ValueError("LaurentPoly powers must be nonnegative ints")
        acc = LaurentPoly.one()
        for _ in range(k):
            acc = acc * self
        return acc

    def shift(self, k):
        """Multiply by q^k (k may be negative; always exact for Laurent)."""
        check_ints((k,), "a Laurent exponent or coefficient")
        return self._shift(k)

    def _shift(self, k):
        """``shift`` of an int k, unchecked: the polynomial itself at k = 0."""
        return LaurentPoly._make({e + k: c for e, c in self.coeffs.items()}) if k else self

    # -- queries ------------------------------------------------------------

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        c = self.coeffs
        return hash(frozenset(c.items())) if c.keys() - {0} else hash(c.get(0, 0))

    def eval_at(self, x):
        """Exact evaluation; returns an int when x is an int and the value
        is integral, else a Fraction.  At an int x the sum is taken in ints:
        with a negative least exponent low, q^-low times the polynomial is
        summed and divided by x^-low once.  Evaluation at 0 with a negative
        exponent present is an error, and a float point is refused with
        ``TypeError``, as the constructors refuse a float."""
        if isinstance(x, float):
            raise TypeError("exact evaluation only, not at the float %r" % (x,))
        low = min(self.coeffs, default=0)
        if x == 0 and low < 0:
            raise ZeroDivisionError("Laurent polynomial has a pole at q=0")
        if not isinstance(x, int):
            x = Fraction(x)
            return sum((c * x ** e for e, c in self.coeffs.items()), Fraction(0))
        if low >= 0:
            return sum(c * x ** e for e, c in self.coeffs.items())
        value = Fraction(sum(c * x ** (e - low) for e, c in self.coeffs.items()), x ** -low)
        return value.numerator if value.denominator == 1 else value

    # -- serialization ------------------------------------------------------

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                var = "q" if e == 1 else "q^%d" % e
                body = var if mag == 1 else "%d*%s" % (mag, var)
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += " %s %s" % (sign, body)
        return text

    def __repr__(self):
        return "LaurentPoly(%s)" % self

    _TERM = re.compile(
        r"\s*(?P<sign>[+-])?\s*"
        r"(?:(?P<coeff>\d+)\s*\*\s*q|(?P<lone>q)|(?P<const>\d+))"
        r"(?:\^(?P<exp>-?\d+))?"
    )

    @classmethod
    def from_text(cls, s):
        """Parse the canonical text form, e.g. ``"3*q^2 - q^-1 + 1"``."""
        s = s.strip()
        if s in ("", "0"):
            return cls.zero()
        out = {}
        pos = 0
        first = True
        while pos < len(s):
            m = cls._TERM.match(s, pos)
            if not m:
                raise ValueError("bad Laurent polynomial text at %r" % s[pos:])
            sign = m.group("sign")
            if not first and sign is None:
                raise ValueError("missing +/- between terms in %r" % s)
            if m.group("const") is not None:
                if m.group("exp") is not None:
                    raise ValueError("constant with exponent in %r" % s)
                c, e = int(m.group("const")), 0
            else:
                c = int(m.group("coeff")) if m.group("coeff") else 1
                e = int(m.group("exp")) if m.group("exp") is not None else 1
            if sign == "-":
                c = -c
            out[e] = out.get(e, 0) + c
            pos = m.end()
            first = False
        return cls(out)

    def to_json(self):
        """JSON map form: ``{"2": 3, "-1": -1}``."""
        return {str(e): c for e, c in sorted(self.coeffs.items())}

    @classmethod
    def from_json(cls, obj):
        json_fields(obj, "Laurent")
        # JSON keys are strings; the constructor checks the ints
        return cls({int(e) if isinstance(e, str) else e: c for e, c in obj.items()})


_ONE = LaurentPoly._make({0: 1})
_Q_MINUS_ONE = LaurentPoly._make({1: 1, 0: -1})


# ---------------------------------------------------------------------------
# Cyclotomic rationals Q(zeta_p)
# ---------------------------------------------------------------------------

class Cyclotomic:
    """Element of Q(zeta_p) on the basis 1, zeta, ..., zeta^(p-2).

    For p=2 this degenerates to Q itself (zeta = -1).  Coordinates are
    int when integral, else Fraction; the class supports ring arithmetic
    and complex conjugation (zeta^k -> zeta^(p-k)).  The public constructor
    validates p and every coordinate; ``zero``, ``one``, ``from_rational``
    and ``zeta_power`` check only p.  The constructor and ``from_rational``
    refuse a float with ``TypeError``, as ``LaurentPoly`` does.  Arithmetic
    builds its results with ``_make``, unchecked.  An element with a
    rational value equals, and hashes as, that int or Fraction.
    """

    __slots__ = ("p", "coords")

    def __init__(self, p, coords):
        check_ints((p,), "cyclotomic order")
        check_prime(p, "cyclotomic order")
        coords = [rational(c) for c in coords]
        if len(coords) != p - 1:
            raise ValueError("expected %d coordinates, got %d" % (p - 1, len(coords)))
        self._store(p, coords)

    @classmethod
    def _make(cls, p, coords):
        """An element from trusted rational coordinates (ints or Fractions),
        with no checks: the constructor of internal results."""
        self = object.__new__(cls)
        self._store(p, coords)
        return self

    def _store(self, p, coords):
        """Set p and the coordinates, each integral one as an int."""
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "coords", tuple([
            c if type(c) is int or c.denominator != 1 else c.numerator for c in coords
        ]))

    def __setattr__(self, name, value):
        raise AttributeError("Cyclotomic is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def _from_full(cls, p, vec):
        """The element of the length-p coordinate vector ``vec`` (``reduce_full``)."""
        return cls._make(p, reduce_full(vec))

    @classmethod
    def zero(cls, p):
        return cls.from_rational(p, 0)

    @classmethod
    def one(cls, p):
        return cls.from_rational(p, 1)

    @classmethod
    def from_rational(cls, p, r):
        check_prime(p, "cyclotomic order")
        return cls._make(p, [rational(r)] + [0] * (p - 2))

    @classmethod
    def zeta_power(cls, p, k):
        """zeta_p^k, k any integer."""
        check_prime(p, "cyclotomic order")
        check_ints((k,), "a zeta exponent")
        vec = [0] * p
        vec[k % p] = 1
        return cls._from_full(p, vec)

    # -- field operations ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Cyclotomic):
            if other.p != self.p:
                raise ValueError("mixed cyclotomic orders %d and %d" % (self.p, other.p))
            return other
        if isinstance(other, (int, Fraction)):
            return Cyclotomic._make(self.p, [other] + [0] * (self.p - 2))
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Cyclotomic._make(self.p, [a + b for a, b in zip(self.coords, other.coords)])

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic._make(self.p, [-a for a in self.coords])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        p = self.p
        vec = [0] * p
        for i, a in enumerate(self.coords):
            if a == 0:
                continue
            for j, b in enumerate(other.coords):
                if b == 0:
                    continue
                vec[(i + j) % p] += a * b
        return Cyclotomic._from_full(p, vec)

    __rmul__ = __mul__

    def conj(self):
        """Complex conjugation: zeta^k -> zeta^(p-k)."""
        p = self.p
        vec = [0] * p
        for k, a in enumerate(self.coords):
            vec[(p - k) % p] += a
        return Cyclotomic._from_full(p, vec)

    # -- queries ------------------------------------------------------------

    def __bool__(self):
        return any(self.coords)

    def __eq__(self, other):
        if isinstance(other, Cyclotomic) and other.p != self.p:
            # Q(zeta_p) and Q(zeta_p') meet in Q
            r = self.as_rational()
            return r is not None and r == other.as_rational()
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        c = self.coords
        return hash((self.p, c)) if any(c[1:]) else hash(c[0])

    def as_rational(self):
        """Return the value as a Fraction if it is rational, else None."""
        if any(self.coords[1:]):
            return None
        return Fraction(self.coords[0])

    def __str__(self):
        if not self:
            return "0"
        parts = []
        for k, a in enumerate(self.coords):
            if a == 0:
                continue
            if k == 0:
                body = str(abs(a))
            else:
                var = "z" if k == 1 else "z^%d" % k
                body = var if abs(a) == 1 else "%s*%s" % (abs(a), var)
            parts.append(("-" if a < 0 else "+", body))
        text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        for sign, body in parts[1:]:
            text += " %s %s" % (sign, body)
        return text

    def __repr__(self):
        return "Cyclotomic(p=%d, %s)" % (self.p, self)

    def to_json(self):
        return {"p": self.p, "coords": [str(c) for c in self.coords]}

    @classmethod
    def from_json(cls, obj):
        return cls(*json_fields(obj, "cyclotomic", "p", "coords"))

