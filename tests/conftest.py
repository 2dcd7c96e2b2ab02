"""Fixtures shared by every test module."""

import pytest

from thermoforge import germfit


@pytest.fixture(autouse=True)
def _cold_split_table():
    """Start and leave each test with an empty split-sweep cache.

    ``germfit`` keeps the last sweep for the check-then-fit flow; without
    this a test could read a table that another test's patched kernel made.
    """
    germfit._split_table.cache_clear()
    yield
    germfit._split_table.cache_clear()
