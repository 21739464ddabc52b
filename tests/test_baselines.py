"""Baseline tests: the per-query Spark and DuckDB comparators must return the
same results as the LMFAO engine (three-way agreement on the Table-3
workloads), and the materialize-then-learn helpers must behave."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest

from repro.baselines.duckdb_batch import run_duckdb, run_per_query_duckdb
from repro.baselines.ml_baselines import gd_epochs, materialize_join, one_hot
from repro.baselines.sql_batch import run_per_query_spark
from repro.core.engine import LMFAO
from repro.core.expr import count, ident, sum_of
from repro.core.join_tree import JoinTree
from repro.core.query import Query
from repro.core.schema import Attribute as A
from repro.core.schema import Database, Relation
from repro.oracle import assert_frames_agree
from repro.workloads import build_workload
from tests.conftest import run_batch


@pytest.mark.parametrize("wl", ["count", "mi", "dc"])
@pytest.mark.parametrize("name", ["favorita", "yelp"])
def test_three_way_agreement(spark, data, name, wl):
    bundle = data[name]
    queries = build_workload(bundle.spec, wl)
    lmfao, _ = run_batch(spark, bundle, queries)
    spark_pq = run_per_query_spark(spark, bundle.relations, bundle.spec.tree(), queries)
    duck_pq = run_per_query_duckdb(bundle.pandas, bundle.spec.tree(), queries)
    for q in queries:
        assert_frames_agree(lmfao[q.name], spark_pq[q.name])
        assert_frames_agree(lmfao[q.name], duck_pq[q.name])


def test_cm_agreement_small(spark, favorita):
    from repro.apps.covar import covar_queries

    queries = covar_queries(("txns", "units"), ("promo",))
    lmfao, _ = run_batch(spark, favorita, queries)
    duck_pq = run_per_query_duckdb(favorita.pandas, favorita.spec.tree(), queries)
    for q in queries:
        assert_frames_agree(lmfao[q.name], duck_pq[q.name])


def test_materialize_join_matches_duckdb(spark, favorita):
    got = materialize_join(
        spark, favorita.relations, favorita.spec.tree(), "Sales"
    ).count()
    exp = run_duckdb(favorita.pandas, [
        "SELECT COUNT(*) AS n FROM Sales NATURAL JOIN Transactions "
        "NATURAL JOIN Items NATURAL JOIN Stores NATURAL JOIN Oil "
        "NATURAL JOIN Holiday"
    ])[0]["n"].iloc[0]
    assert got == exp


def test_gd_epochs_monotone_improvement(favorita):
    X, y, _ = one_hot(
        favorita.joined, ("txns", "price", "units"), ("promo",), "units"
    )
    prev = np.inf
    for e in (1, 5, 25):
        t = gd_epochs(X, y, epochs=e)
        r = float(np.sqrt(np.mean((X @ t - y) ** 2)))
        assert r <= prev + 1e-9
        prev = r


def test_per_query_spark_handles_rt(spark, favorita):
    queries = build_workload(favorita.spec, "rt", favorita.relations, n_buckets=2)
    lmfao, _ = run_batch(spark, favorita, queries)
    duck_pq = run_per_query_duckdb(favorita.pandas, favorita.spec.tree(), queries)
    for q in queries:
        assert_frames_agree(lmfao[q.name], duck_pq[q.name])


@pytest.mark.parametrize("wl", ["count", "cm", "rt"])
def test_outputs_are_double(spark, favorita, wl):
    """Every aggregate column is floating point on the engine and on both
    baselines; the RT batch carries pure-delta products, whose SQL literals
    would come back as Decimal if Spark read them as DECIMAL."""
    queries = build_workload(favorita.spec, wl, favorita.relations, n_buckets=2)
    tree = favorita.spec.tree()
    outputs = {
        "lmfao": run_batch(spark, favorita, queries)[0],
        "spark_pq": run_per_query_spark(spark, favorita.relations, tree, queries),
        "duckdb_pq": run_per_query_duckdb(favorita.pandas, tree, queries),
    }
    for system, results in outputs.items():
        for q in queries:
            for name in q.agg_names:
                dtype = results[q.name][name].dtype
                assert pd.api.types.is_float_dtype(dtype), (system, q.name, name, dtype)


def test_group_by_dtypes_match_spark(spark):
    """Group-by columns come back from ``LMFAO.run`` with the values and
    dtypes of Spark's own ``toPandas``: a bigint key holding a NULL as
    float64, a bigint key with no NULLs as int64."""
    db = Database(
        [
            Relation("F", (A("k", "key"), A("g", "cat"), A("x"))),
            Relation("D", (A("k", "key"), A("h", "cat"))),
        ]
    )
    tree = JoinTree(db, [("F", "D")])
    rels = {
        "F": spark.createDataFrame(
            [(1, 10, 1.0), (2, None, 2.0), (2, 11, 3.0), (3, 10, 4.0)],
            "k BIGINT, g BIGINT, x DOUBLE",
        ),
        "D": spark.createDataFrame([(1, 5), (2, 6), (3, 5)], "k BIGINT, h BIGINT"),
    }
    queries = [
        Query("by_g", ("g",), (count(), sum_of(ident("x")))),
        Query("by_h", ("h",), (count(), sum_of(ident("x")))),
    ]
    engine = LMFAO(tree, {n: df.count() for n, df in rels.items()})
    run = engine.run(spark, rels, engine.compile(queries))
    spark_pq = run_per_query_spark(spark, rels, tree, queries)
    for q in queries:
        cols = [*q.group_by, *q.agg_names]
        got, exp = (
            df[cols].sort_values(cols).reset_index(drop=True)
            for df in (run.pandas(q.name), spark_pq[q.name])
        )
        pd.testing.assert_frame_equal(got, exp)
    assert run.pandas("by_g")["g"].dtype == np.float64
    assert run.pandas("by_h")["h"].dtype == np.int64
