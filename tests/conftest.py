"""Fixtures shared by the test modules."""

import pytest

from superchar import ring


@pytest.fixture
def fresh_factor_table():
    """An empty restriction factor table (``ring._factor``) for the test,
    emptied again after it: the test builds every factor it reads under its
    own patches, and leaves none of them to later tests."""
    ring._factor.cache_clear()
    yield
    ring._factor.cache_clear()
