"""Pinned output sweeps: a change that must keep every rendering keeps
these hashes (``tests/sweep.py`` defines the sweeps)."""

import pytest

from sweep import SWEEPS, digest

# sweep name -> (number of lines, sha256 of the lines)
PINNED = {
    "branching": (14201, "1f7dcbaf583ab159e6a571ecf07f5b4c25a744a861d559463103a125c66e7caa"),
    "oracle": (1408, "dda8482e5142c6fd39f761ae204db4bda8547611ac4a7bc5c98aa37e940e8813"),
    "straighten": (3521, "c55de798bdf01fd3887412dff22166fc956cffd97358415834d7e157ef3800c6"),
    # the first 6 lines, the q = 2 reports, hash to f5f5d963...
    "verify": (16, "dbc18cc9c81240c2140d5c15434ae632cc0add56c0e991207bfc2619d8b19f23"),
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_renderings_are_pinned(name):
    assert digest(SWEEPS[name]()) == PINNED[name]
