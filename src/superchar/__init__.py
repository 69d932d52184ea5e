"""Exact supercharacter calculus for unipotent upper-triangular groups.

Subpackages:

* qcoeff   -- exact scalars: Laurent polynomials in q and Q(zeta_p)
* setpart  -- labeled set partitions and parabolic index partitions
* ring     -- supercharacter combinations and the branching operations
* oracle   -- brute-force finite-group verification at desk scale
* ncsym    -- symmetric functions in noncommuting variables
* verify   -- the verification suites and the second routes they run
* cli      -- the command-line front end

The scalar input checks, ``check_prime`` and ``check_ints``, are written
once, here, so that the CLI can check ``--q`` before it looks at the result
cache without loading any math module; the other modules import them.
"""

__version__ = "0.1.0"


def is_prime(p):
    """Trial-division primality check (inputs here are tiny)."""
    if not isinstance(p, int) or p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def check_prime(p, what="p"):
    """Refuse, with ValueError, a ``p`` that is not a prime int."""
    if not is_prime(p):
        raise ValueError("%s must be prime, got %r" % (what, p))


def check_ints(values, what):
    """Refuse, with TypeError, a value of ``values`` that is not an int (a
    bool too), rather than truncate it."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int):
            raise TypeError("%s must be an int, got %r" % (what, v))
