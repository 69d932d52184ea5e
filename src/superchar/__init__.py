"""Exact supercharacter calculus for unipotent upper-triangular groups.

Subpackages:

* qcoeff   -- exact scalars: Laurent polynomials in q and Q(zeta_p)
* setpart  -- labeled set partitions and parabolic index partitions
* ring     -- supercharacter combinations and the branching operations
* oracle   -- brute-force finite-group verification at desk scale
* ncsym    -- symmetric functions in noncommuting variables
* verify   -- the verification suites and the second routes they run
* cli      -- the command-line front end

``is_prime`` lives here, not in qcoeff, so that the CLI can check ``--q``
before it looks at the result cache without loading any math module;
qcoeff and oracle import it from here.
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
