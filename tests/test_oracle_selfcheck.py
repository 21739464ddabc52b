"""The oracle must actually catch wrong results (not just 'it ran')."""
from __future__ import annotations

import pandas as pd
import pytest

from repro.oracle import assert_equivalent


def test_oracle_accepts_correct_result():
    pdf = pd.DataFrame({"k": [1, 1, 2], "v": [1.0, 2.0, 3.0]})
    got = pd.DataFrame({"k": [1, 2], "s": [3.0, 3.0]})
    assert_equivalent(got, "SELECT k, SUM(v) AS s FROM t GROUP BY k", t=pdf)


def test_oracle_rejects_wrong_value():
    pdf = pd.DataFrame({"k": [1, 1, 2], "v": [1.0, 2.0, 3.0]})
    got = pd.DataFrame({"k": [1, 2], "s": [3.0, 99.0]})
    with pytest.raises(AssertionError):
        assert_equivalent(got, "SELECT k, SUM(v) AS s FROM t GROUP BY k", t=pdf)


def test_oracle_rejects_missing_group():
    pdf = pd.DataFrame({"k": [1, 1, 2], "v": [1.0, 2.0, 3.0]})
    got = pd.DataFrame({"k": [1], "s": [3.0]})
    with pytest.raises(AssertionError):
        assert_equivalent(got, "SELECT k, SUM(v) AS s FROM t GROUP BY k", t=pdf)


def test_oracle_rejects_column_mismatch():
    pdf = pd.DataFrame({"k": [1], "v": [1.0]})
    got = pd.DataFrame({"k": [1], "wrong": [1.0]})
    with pytest.raises(AssertionError, match="column mismatch"):
        assert_equivalent(got, "SELECT k, SUM(v) AS s FROM t GROUP BY k", t=pdf)


def test_oracle_ignores_column_and_row_order():
    pdf = pd.DataFrame({"k": [1, 2], "v": [1.0, 2.0]})
    got = pd.DataFrame({"s": [2.0, 1.0], "k": [2, 1]})
    assert_equivalent(got, "SELECT k, SUM(v) AS s FROM t GROUP BY k", t=pdf)
