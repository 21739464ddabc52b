"""Job entrypoint smoke tests: every table harness runs end-to-end at a tiny
scale factor and produces rows with the expected columns."""
from __future__ import annotations

import math

import pytest

from repro import harness
from repro.harness import (
    ablation_rows,
    linreg_rows,
    table1_rows,
    table2_rows,
    table3_rows,
    tree_rows,
)

SF = 0.003


def test_table1(spark):
    rows = table1_rows(spark, SF)
    assert {r["dataset"] for r in rows} == {"favorita", "retailer", "yelp", "tpcds"}
    for r in rows:
        assert r["tuples_db"] > 0 and r["tuples_join"] > 0
    yelp = next(r for r in rows if r["dataset"] == "yelp")
    assert yelp["tuples_join"] > 2 * yelp["tuples_db"] / 5  # fan-out visible


def test_table2(spark):
    rows = table2_rows(spark, SF, datasets=["favorita"])
    assert {r["batch"] for r in rows} == {"CM", "RT", "MI", "DC"}
    for r in rows:
        assert r["V"] >= 1 and r["G"] >= 1 and r["A"] >= r["V"] / 10
        assert r["size_mb"] >= 0
    dc = next(r for r in rows if r["batch"] == "DC")
    assert dc["A"] == 40  # paper Table 2: DC row is 40 everywhere


def test_failed_table_releases_cached_relations(spark):
    """A row builder that raises leaves no cached relation behind."""
    jsc = spark.sparkContext._jsc.sc()
    before = jsc.getPersistentRDDs().size()
    with pytest.raises(ValueError):
        table2_rows(spark, SF, datasets=["favorita"], workloads=("nope",))
    assert jsc.getPersistentRDDs().size() == before


@pytest.mark.parametrize("failing", ["learn_bgd", "_batch_over_join"])
def test_failed_linreg_releases_cached_frames(spark, monkeypatch, failing):
    """The linear-regression block leaves nothing cached when it raises
    after an engine run (``learn_bgd``) or while the materialized join is
    cached (``_batch_over_join``)."""

    def fail(*args, **kwargs):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(harness, failing, fail)
    jsc = spark.sparkContext._jsc.sc()
    before = jsc.getPersistentRDDs().size()
    with pytest.raises(RuntimeError, match="injected failure"):
        linreg_rows(spark, "favorita", SF)
    assert jsc.getPersistentRDDs().size() == before


def test_table3(spark):
    rows = table3_rows(
        spark, SF, datasets=["favorita"], workloads=("count", "dc")
    )
    assert len(rows) == 2
    for r in rows:
        assert r["lmfao_s"] > 0 and r["spark_pq_s"] > 0 and r["duckdb_pq_s"] > 0


def test_table4_linreg(spark):
    rows = linreg_rows(spark, "favorita", SF)
    systems = [r["system"] for r in rows]
    assert any("LMFAO" in s for s in systems)
    assert any("MADlib" in s for s in systems)
    lm = next(r for r in rows if r["system"].startswith("LMFAO"))
    ml = next(r for r in rows if r["system"].startswith("MADlib"))
    # same-accuracy claim: BGD over covar == closed form over materialization
    assert math.isfinite(lm["rmse_test"])
    assert abs(lm["rmse_test"] - ml["rmse_test"]) / ml["rmse_test"] < 1e-2


def test_table4_tree(spark):
    rows = tree_rows(
        spark, "favorita", SF, kind="regression", max_depth=2, n_buckets=4
    )
    assert len(rows) == 2
    lm, bl = rows
    assert math.isfinite(lm["accuracy"])
    assert math.isfinite(bl["accuracy"]), "baseline tree differs from LMFAO tree"
    assert lm["accuracy"] == bl["accuracy"]


def test_table5_tree(spark):
    rows = tree_rows(
        spark, "tpcds", SF, kind="classification", max_depth=2, n_buckets=4
    )
    lm, bl = rows
    assert 0.0 <= lm["accuracy"] <= 1.0
    assert lm["accuracy"] == bl["accuracy"]


def test_ablation(spark):
    rows = ablation_rows(spark, SF, datasets=["favorita"])
    assert len(rows) == 4
    nosharing = rows[0]
    merged = rows[1]
    assert nosharing["V"] > merged["V"], "merging must reduce view count"
