"""Second routes that only the tests call.

The NCSym word expansions and the word-by-word shuffle product: an element
of degree n is faithful over an alphabet of n letters, so a product of
degree m+n can be multiplied word by word over m+n letters and recognized
back into the m-basis.  It checks the class route of
``superchar.reference``, which the ``words`` verify suite reads, so the
chain of independent checks down to ``superchar.ncsym.star_K_product``
stays unbroken.
"""

from __future__ import annotations

import itertools
import math
import warnings

from superchar.ncsym import NCSymElem, _validate_shuffle_index, m_from_p
from superchar.qcoeff import rational
from superchar.reference import _class_product, _shuffle_traces
from superchar.setpart import PartitionIndex, set_partitions


def _parts_of_word(word):
    """Equal-positions partition of a word: 1-based positions grouped by
    letter, parts sorted by minimum."""
    where = {}
    for pos, letter in enumerate(word, start=1):
        where.setdefault(letter, []).append(pos)
    return tuple(sorted((tuple(v) for v in where.values()), key=lambda t: t[0]))


class WordExpansion:
    """Exact expansion of a degree-n element over a finite alphabet.

    Words are length-n tuples of letters 1..alphabet with exact rational
    coefficients, stored as ``NCSymElem`` stores them: an int when integral,
    else a Fraction, and no zero.  Construction asserts the defining
    symmetry: the coefficient only depends on the equal-positions partition
    of the word, and a class is either absent or fully present.
    """

    __slots__ = ("alphabet", "degree", "coeffs", "_classes")

    def __init__(self, alphabet, degree, coeffs):
        alphabet = int(alphabet)
        degree = int(degree)
        if alphabet < 0 or degree < 0:
            raise ValueError("alphabet and degree must be nonnegative")
        clean = {}
        for word, c in coeffs.items():
            word = tuple(int(v) for v in word)
            if len(word) != degree:
                raise ValueError("word %r is not of degree %d" % (word, degree))
            if any(v < 1 or v > alphabet for v in word):
                raise ValueError("word %r leaves the alphabet 1..%d" % (word, alphabet))
            c = rational(c)
            if c:
                clean[word] = c
        # symmetry: constant and complete on every equal-positions class
        by_class = {}
        for word, c in clean.items():
            by_class.setdefault(_parts_of_word(word), []).append(c)
        for parts, values in by_class.items():
            if any(c != values[0] for c in values[1:]):
                raise ValueError(
                    "expansion is not symmetric on the class of %s" % (parts,)
                )
            expected = math.perm(alphabet, len(parts))
            if len(values) != expected:
                raise ValueError(
                    "class of %s holds %d of its %d words"
                    % (parts, len(values), expected)
                )
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "_classes", {parts: v[0] for parts, v in by_class.items()})

    def __setattr__(self, name, value):
        raise AttributeError("WordExpansion is immutable")

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, WordExpansion)
            and self.alphabet == other.alphabet
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __add__(self, other):
        if (self.alphabet, self.degree) != (other.alphabet, other.degree):
            raise ValueError("expansions live on different word sets")
        coeffs = dict(self.coeffs)
        for word, c in other.coeffs.items():
            coeffs[word] = coeffs.get(word, 0) + c
        return WordExpansion(self.alphabet, self.degree, coeffs)

    def scale(self, c):
        c = rational(c)
        return WordExpansion(
            self.alphabet, self.degree, {w: c * v for w, v in self.coeffs.items()}
        )

    def class_coefficients(self):
        """Map equal-positions partition -> the common coefficient, as the
        constructor found it."""
        return dict(self._classes)


def _monomial_words(K, N):
    """The words over 1..N whose equal-positions partition is K: one word
    per injective assignment of letters to blocks."""
    blocks = K.grouping()
    if N < len(blocks):
        warnings.warn(
            "alphabet of %d letters cannot separate %d blocks; expansion is empty"
            % (N, len(blocks)),
            stacklevel=3,
        )
        return []
    words = []
    for letters in itertools.permutations(range(1, N + 1), len(blocks)):
        word = [0] * K.n
        for block, letter in zip(blocks, letters):
            for pos in block:
                word[pos - 1] = letter
        words.append(tuple(word))
    return words


def m_expand(K, N):
    """Word expansion of the monomial m_K over the alphabet 1..N.

    Coefficient 1 sits exactly on the words whose equal-positions partition
    is K.
    """
    N = int(N)
    return WordExpansion(N, K.n, dict.fromkeys(_monomial_words(K, N), 1))


def expand(x, N=None):
    """Word expansion of an NCSym element over 1..N (default: one letter
    per position)."""
    N = x.degree if N is None else int(N)
    m = x if x.basis == "m" else m_from_p(x)
    # distinct monomials own disjoint word sets
    coeffs = {}
    for K, c in m.coeffs.items():
        for word in _monomial_words(K, N):
            coeffs[word] = c
    return WordExpansion(N, x.degree, coeffs)


def _star_K_product_words(x, y, K):
    """The shuffle product computed on words: the reference for the class
    route and for :func:`superchar.ncsym.star_K_product`.

    Both factors are expanded over m+n letters, which is faithful for
    degree m+n, and multiplied word by word; the resulting expansion is
    recognized back into the m-basis.
    """
    m, n = x.degree, y.degree
    _validate_shuffle_index(K, m, n)
    N = max(m + n, 1)
    xe = expand(x, N)
    ye = expand(y, N)
    pos1, pos2 = K.parts
    coeffs = {}
    for u, cu in xe.coeffs.items():
        for v, cv in ye.coeffs.items():
            word = [0] * (m + n)
            for pos, letter in zip(pos1, u):
                word[pos - 1] = letter
            for pos, letter in zip(pos2, v):
                word[pos - 1] = letter
            word = tuple(word)
            coeffs[word] = coeffs.get(word, 0) + cu * cv
    product = WordExpansion(N, m + n, coeffs)
    # recognition: symmetry was asserted on construction, so the class
    # coefficients are the m-basis coefficients
    out = {}
    for parts, c in product.class_coefficients().items():
        out[PartitionIndex(m + n, parts)] = c
    return NCSymElem("m", m + n, out)


def star_K_product_classes(x, y, K):
    """The shuffle product by the class route of ``superchar.reference``,
    as an m-basis element."""
    m, n = x.degree, y.degree
    _validate_shuffle_index(K, m, n)
    x, y = (e if e.basis == "m" else m_from_p(e) for e in (x, y))
    coeffs = _class_product(
        {P.parts: c for P, c in x.coeffs.items()},
        {P.parts: c for P, c in y.coeffs.items()},
        _shuffle_traces(K, set_partitions(range(1, m + n + 1))),
    )
    return NCSymElem("m", m + n, {PartitionIndex(m + n, C): c for C, c in coeffs.items()})
