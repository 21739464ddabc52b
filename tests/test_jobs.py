"""Job entrypoint smoke tests: every table harness runs end-to-end at a tiny
scale factor and produces rows with the expected columns, and ``jobs/run.py``
prints any of them."""
from __future__ import annotations

import inspect
import io
import math
import os

import pytest

from jobs import run as runner
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


def _stats(rows):
    return [(r["dataset"], r["batch"], r["A"], r["I"], r["V"], r["G"]) for r in rows]


def test_runner_prints_table2(spark, capsys):
    rows = runner.main(["table2", "--sf", str(SF), "--datasets", "favorita"], spark=spark)
    out = capsys.readouterr().out
    assert f"# Table 2 — batch statistics (SF={SF})" in out
    assert harness.fmt_table(rows) in out
    assert _stats(rows) == _stats(table2_rows(spark, SF, ["favorita"]))
    assert spark.range(3).count() == 3  # the injected session is not stopped


#: The flags each table takes: the ones its job script took.
RUNNER_FLAGS = {
    "table1": {"sf", "datasets"},
    "table2": {"sf", "datasets"},
    "table3": {"sf", "datasets"},
    "table4-linreg": {"sf", "datasets"},
    "table4-tree": {"sf", "datasets"},
    "table5": {"sf"},
    "ablation": {"sf", "datasets"},
    "scale-trend": set(),
}


def test_every_table_takes_its_runner_flags():
    assert set(harness.TABLES) == set(RUNNER_FLAGS)
    for name, (title, build) in harness.TABLES.items():
        params = inspect.signature(build).parameters
        assert {f for f in ("sf", "datasets") if f in params} == RUNNER_FLAGS[name]
        flags = {"sf": 0.1, "datasets": ["favorita"]}
        args = {f: v for f, v in flags.items() if f in RUNNER_FLAGS[name]}
        inspect.signature(build).bind(None, **args)
        title.format(**args)  # the title names no flag the table lacks


def test_runner_rejects_a_flag_the_table_does_not_take():
    with pytest.raises(SystemExit) as exc:
        runner.main(["scale-trend", "--sf", "0.1"])
    assert exc.value.code == 2


def test_runner_stops_its_own_session_when_the_table_raises(monkeypatch):
    stopped = []

    class Session:
        def stop(self):
            stopped.append(True)

    def fail(spark, sf, datasets=None):
        raise RuntimeError("injected failure")

    monkeypatch.setattr(runner, "make_spark", lambda app: Session())
    monkeypatch.setitem(harness.TABLES, "table2", ("failing table", fail))
    with pytest.raises(RuntimeError, match="injected failure"):
        runner.main(["table2"])
    assert stopped == [True]


@pytest.mark.parametrize(
    "cgroup, expected",
    [(None, "3g"), ("max", "3g"), (str(8 << 30), "3g"), (str(2 << 30), "1g")],
)
def test_driver_mem_fits_physical_memory(monkeypatch, cgroup, expected):
    """With no SPARK_DRIVER_MEM, the driver heap is 75 % of the cgroup limit
    or of physical memory (4 GiB here), whichever is lower."""

    def read_cgroup(path, *args, **kwargs):
        if cgroup is None:
            raise FileNotFoundError(path)
        return io.StringIO(cgroup + "\n")

    monkeypatch.delenv("SPARK_DRIVER_MEM", raising=False)
    monkeypatch.delenv("_SPARK_DRIVER_MEM_SRC", raising=False)
    monkeypatch.setattr(harness, "open", read_cgroup, raising=False)
    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": (4 << 30) // 4096}
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    assert harness._driver_mem() == expected


def test_make_spark_keeps_set_submit_args(spark, monkeypatch):
    """A caller's PYSPARK_SUBMIT_ARGS is used as is: the driver memory is
    not worked out."""

    def fail():
        raise AssertionError("driver memory worked out")

    monkeypatch.setenv("PYSPARK_SUBMIT_ARGS", "--master local[1] pyspark-shell")
    monkeypatch.setattr(harness, "_driver_mem", fail)
    assert harness.make_spark("repro") is spark
