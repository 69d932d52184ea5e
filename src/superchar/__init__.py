"""Exact supercharacter calculus for unipotent upper-triangular groups.

Subpackages:

* qcoeff   -- exact scalars: Laurent polynomials in q and Q(zeta_p)
* setpart  -- labeled set partitions and parabolic index partitions
* ring     -- supercharacter combinations and the branching operations
* oracle   -- brute-force finite-group verification at desk scale
* ncsym    -- symmetric functions in noncommuting variables
* verify   -- the verification suites and the second routes they run
* cli      -- the command-line front end
"""

__version__ = "0.1.0"
