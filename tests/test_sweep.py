"""Pinned output sweeps: a change that must keep every rendering keeps
these hashes (``tests/sweep.py`` defines the sweeps)."""

import pytest

from sweep import SWEEPS, digest

# sweep name -> (number of lines, sha256 of the lines)
PINNED = {
    "branching": (14201, "1f7dcbaf583ab159e6a571ecf07f5b4c25a744a861d559463103a125c66e7caa"),
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_renderings_are_pinned(name):
    assert digest(SWEEPS[name]()) == PINNED[name]
