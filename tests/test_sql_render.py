"""SQL renderer tests: the rendered per-query SQL must run identically in
Spark SQL and DuckDB — it is both the baseline implementation and the oracle
input, so cross-dialect agreement is load-bearing."""
from __future__ import annotations

import pandas as pd
import pytest

from repro.baselines.duckdb_batch import run_duckdb
from repro.core.expr import count, delta, fn, ident, sum_of
from repro.core.query import Query
from repro.core.sql import natural_join_clause, render_query_sql
from repro.datasets import all_datasets


@pytest.mark.parametrize("name", sorted(all_datasets()))
def test_join_clause_mentions_all_relations(name):
    spec = all_datasets()[name]
    clause = natural_join_clause(spec.tree())
    for rel in spec.db.relations:
        assert rel in clause
    assert clause.count("NATURAL JOIN") == len(spec.db.relations) - 1


def test_render_groupby_and_aliases():
    spec = all_datasets()["favorita"]
    q = Query("q", ("family",), (count(), sum_of(ident("units"))), ("c", "s"))
    sql = render_query_sql(spec.tree(), q)
    assert sql.startswith("SELECT family, SUM(1e0) AS c, SUM(")
    assert sql.endswith("GROUP BY family")


def test_render_scalar_has_no_groupby():
    spec = all_datasets()["favorita"]
    sql = render_query_sql(spec.tree(), Query("q", (), (count(),)))
    assert "GROUP BY" not in sql


QUERIES = [
    Query("a", (), (count(),)),
    Query("b", ("family",), (sum_of(ident("units")),)),
    Query("c", ("city",), (sum_of(delta("units", "<=", 5)),)),
    Query("d", (), (sum_of(fn("log1p", "price"), ident("txns")),)),
]


@pytest.mark.parametrize("q", QUERIES, ids=lambda q: q.name)
def test_same_sql_runs_in_both_dialects(spark, favorita, q):
    tree = favorita.spec.tree()
    sql = render_query_sql(tree, q)
    for rel, df in favorita.relations.items():
        df.createOrReplaceTempView(rel)
    got_spark = spark.sql(sql).toPandas()
    got_duck = run_duckdb(favorita.pandas, [sql])[0]
    cols = sorted(got_spark.columns)
    assert cols == sorted(got_duck.columns)
    a = got_spark[cols].sort_values(cols).reset_index(drop=True).astype(float)
    b = got_duck[cols].sort_values(cols).reset_index(drop=True).astype(float)
    pd.testing.assert_frame_equal(a, b, check_dtype=False, atol=1e-9)
