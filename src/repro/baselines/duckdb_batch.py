"""Per-query DuckDB baseline: the in-memory columnar DBMS comparator
(MonetDB stand-in). Each query of the batch runs as an independent SQL
statement over the registered input relations; DuckDB plans the join itself.

``run_duckdb`` is the one way this project talks to DuckDB: the baseline, the
oracle and the tests all go through it.
"""
from __future__ import annotations

import duckdb
import pandas as pd

from repro.core.join_tree import JoinTree
from repro.core.query import Query
from repro.core.sql import render_query_sql


def run_duckdb(
    tables: dict[str, pd.DataFrame], statements: list[str]
) -> list[pd.DataFrame]:
    """Run ``statements`` in order on one fresh in-memory connection, with
    each pandas frame of ``tables`` registered under its name; returns one
    frame per statement."""
    con = duckdb.connect()
    try:
        for name, pdf in tables.items():
            con.register(name, pdf)
        return [con.execute(sql).fetchdf() for sql in statements]
    finally:
        con.close()


def run_per_query_duckdb(
    relations: dict[str, pd.DataFrame],
    tree: JoinTree,
    queries: list[Query],
) -> dict[str, pd.DataFrame]:
    """Run each query in DuckDB; relations are pandas frames (pre-loaded, so
    timing excludes load, matching the paper's warm-cache protocol)."""
    sqls = [render_query_sql(tree, q) for q in queries]
    return dict(zip([q.name for q in queries], run_duckdb(relations, sqls)))
