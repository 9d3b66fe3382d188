"""The backend benchmark times only work it has checked."""

from __future__ import annotations

import pytest

from chainbrackets import benchmark
from chainbrackets.brackets import BracketTable


def test_table_workload_counts_brackets():
    # squared block sizes summed over nu = 2, N <= 2, tau <= N
    assert benchmark._table_workload(2, 2) == 9


def test_table_workload_raises_on_a_non_orthogonal_table(monkeypatch):
    monkeypatch.setattr(BracketTable, "is_orthogonal", lambda self: False)
    with pytest.raises(RuntimeError, match="not orthogonal"):
        benchmark._table_workload(2, 1)
