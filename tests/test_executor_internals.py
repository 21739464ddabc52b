"""Executor-internals tests: column pruning, no view persisted, nothing left
cached after a run or a failed run, Example 3.3 numeric correctness on a
chain database."""
from __future__ import annotations

from collections import Counter

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F
from pyspark.sql.classic.dataframe import DataFrame

from repro.core.engine import LMFAO, result_size_mb
from repro.core.executor import _used_source_columns
from repro.core.expr import count, ident, sum_of
from repro.core.join_tree import JoinTree
from repro.core.query import Query
from repro.core.schema import Attribute as A
from repro.core.schema import Database, Relation
from repro.core.views import ViewRegistry, decompose_query
from repro.datasets import FAVORITA
from repro.workloads import build_workload


def test_used_source_columns_prunes(favorita):
    """A count query must scan only the join keys of each relation."""
    reg = ViewRegistry()
    decompose_query(Query("q", (), (count(),)), "Sales", FAVORITA.tree(), reg)
    stores_view = [v for v in reg.views if v.source == "Stores"][0]
    used = _used_source_columns(stores_view, reg.views, FAVORITA.tree())
    assert used == ["store"]  # city/state/stype/cluster pruned


def test_used_source_columns_includes_factor_attrs(favorita):
    reg = ViewRegistry()
    decompose_query(
        Query("q", (), (sum_of(ident("price")),)), "Sales", FAVORITA.tree(), reg
    )
    oil_view = [v for v in reg.views if v.source == "Oil"][0]
    used = _used_source_columns(oil_view, reg.views, FAVORITA.tree())
    assert set(used) == {"date", "price"}


@pytest.fixture(scope="module")
def chain(spark):
    """Paper Example 3.3: S_k(X_k, X_{k+1}), k=1..4, uniform random keys."""
    db = Database(
        [
            Relation(f"S{k}", (A(f"X{k}", "key"), A(f"X{k+1}", "key")))
            for k in range(1, 5)
        ]
    )
    tree = JoinTree(db, [(f"S{k}", f"S{k+1}") for k in range(1, 4)])
    g = np.random.default_rng(42)
    pdfs = {
        f"S{k}": pd.DataFrame(
            {f"X{k}": g.integers(1, 6, 200), f"X{k+1}": g.integers(1, 6, 200)}
        )
        for k in range(1, 5)
    }
    rels = {n: spark.createDataFrame(p).cache() for n, p in pdfs.items()}
    sizes = {n: df.count() for n, df in rels.items()}
    return tree, rels, pdfs, LMFAO(tree, sizes)


def test_example_3_3_counts_correct(spark, chain):
    """Q_i(X_i; 1) over the chain — multi-root decomposition (left/right
    count views) must give the exact per-value counts of the 4-way join."""
    tree, rels, pdfs, engine = chain
    queries = [Query(f"Q{i}", (f"X{i}",), (count(),)) for i in range(1, 6)]
    plan = engine.compile(queries)
    run = engine.run(spark, rels, plan)
    joined = (
        pdfs["S1"].merge(pdfs["S2"]).merge(pdfs["S3"]).merge(pdfs["S4"])
    )
    for i in range(1, 6):
        got = (
            run.pandas(f"Q{i}")
            .set_index(f"X{i}")["agg0"]
            .astype(int)
            .sort_index()
        )
        exp = joined.groupby(f"X{i}").size().sort_index()
        assert got.to_dict() == exp.to_dict(), f"Q{i} mismatch"


def test_example_3_3_pair_counts(spark, chain):
    """Q_{i,j}(X_i, X_j; 1) — the paper's pairwise extension."""
    tree, rels, pdfs, engine = chain
    q = Query("p", ("X1", "X4"), (count(),))
    plan = engine.compile([q])
    run = engine.run(spark, rels, plan)
    joined = pdfs["S1"].merge(pdfs["S2"]).merge(pdfs["S3"]).merge(pdfs["S4"])
    got = {
        (r.X1, r.X4): int(r.agg0)
        for r in run.pandas("p").itertuples()
    }
    exp = joined.groupby(["X1", "X4"]).size().to_dict()
    assert got == exp


def test_run_result_lifecycle(spark, favorita):
    """A run that persists shared views releases them before it returns:
    the persistent-RDD count after ``run`` equals the count before it."""
    queries = build_workload(favorita.spec, "cm")
    plan = favorita.engine.compile(queries)
    assert _shared_views(plan)
    jsc = spark.sparkContext._jsc.sc()
    before = jsc.getPersistentRDDs().size()
    run = favorita.engine.run(spark, favorita.relations, plan)
    assert jsc.getPersistentRDDs().size() == before
    assert all(len(run.pandas(q.name)) > 0 for q in queries)


def test_result_size_mb_counts_values(spark, favorita):
    q = Query("q", ("family",), (count(),))
    plan = favorita.engine.compile([q])
    run = favorita.engine.run(spark, favorita.relations, plan)
    n_rows = len(run.pandas("q"))
    mb = result_size_mb(run)
    assert abs(mb - n_rows * 2 * 8 / 2**20) < 1e-9


def _shared_views(plan):
    """Internal views read by two or more views."""
    readers = Counter(w for v in plan.views for w in v.incoming)
    return [v for v in plan.views if readers[v.vid] >= 2]


def test_run_persists_nothing(spark, favorita, monkeypatch):
    """Every view is collected by its own job and internal views come back
    as local frames: ``run`` never persists a DataFrame."""
    plan = favorita.engine.compile(build_workload(favorita.spec, "cm"))
    assert _shared_views(plan)
    persisted = []
    persist = DataFrame.persist

    def spy(df, *args, **kwargs):
        persisted.append(tuple(df.columns))
        return persist(df, *args, **kwargs)

    monkeypatch.setattr(DataFrame, "persist", spy)
    favorita.engine.run(spark, favorita.relations, plan)
    assert persisted == []


@pytest.mark.parametrize("failure", ["missing_attribute", "job_error"])
def test_failed_run_releases_cached_views(spark, favorita, failure):
    """A batch that fails after earlier waves persisted shared views leaves
    no persisted RDD behind."""
    plan = favorita.engine.compile(build_workload(favorita.spec, "cm"))
    # views grouped by family run in the last wave, after shared views exist
    first_family_wave = min(
        plan.grouping.level_of[v.vid] for v in plan.views if "family" in v.group_by
    )
    assert any(
        plan.grouping.level_of[v.vid] < first_family_wave for v in _shared_views(plan)
    )
    items = favorita.relations["Items"]
    if failure == "missing_attribute":
        items = items.drop("family")
    else:
        items = items.withColumn(
            "family", F.expr("CAST(raise_error('injected failure') AS INT)")
        )
    relations = {**favorita.relations, "Items": items}
    jsc = spark.sparkContext._jsc.sc()
    before = jsc.getPersistentRDDs().size()
    with pytest.raises(Exception):
        favorita.engine.run(spark, relations, plan)
    assert jsc.getPersistentRDDs().size() == before


def test_fmt_table_alignment():
    from repro.harness import fmt_table

    s = fmt_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.123}])
    lines = s.splitlines()
    assert len(lines) == 4
    assert all(len(line) == len(lines[0]) for line in lines)
    assert "0.12" in s  # float formatting
