"""Fixtures shared by every test module."""

import pytest

from specfilt import cli


@pytest.fixture(autouse=True)
def fresh_sweep_memo(monkeypatch):
    """Each test starts with an empty memo of sweep columns, so that a column
    one test computed never stands in for a computation another test patches."""
    monkeypatch.setattr(cli, "_MSE_COLUMNS", cli._MseColumns(cli._MSE_BUDGET))
