"""Fixtures shared by the test modules."""

import pytest

from superchar import ring


@pytest.fixture
def fresh_factor_table():
    """Empty restriction factor and index tables (``ring._factor``,
    ``ring._layout``, ``ring._steps``) for the test, emptied again after
    it: the test builds every entry it reads under its own patches, and
    leaves none of them to later tests."""
    tables = (ring._factor, ring._layout, ring._steps)
    for table in tables:
        table.cache_clear()
    yield
    for table in tables:
        table.cache_clear()
