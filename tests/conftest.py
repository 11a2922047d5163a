"""Shared test set-up."""

import pytest

from freeperiod import factor_over_z


@pytest.fixture(autouse=True)
def cold_factor_memo():
    """Start and end every test with an empty factor_over_z memo, as a fresh
    process does, so no test sees factorizations another test left behind."""
    factor_over_z.cache_clear()
    yield
    factor_over_z.cache_clear()
