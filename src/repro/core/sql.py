"""Portable SQL rendering of batch queries (baselines + DuckDB oracle).

Renders each Query as the *plain unoptimized* GROUP BY over the NATURAL JOIN
of all relations — exactly what the paper hands to MonetDB/DBX ("we provide
DBX and MonetDB with the same list of queries as LMFAO, which may have
multiple aggregates per query"). The SQL subset used (NATURAL JOIN, CASE
WHEN, CAST AS DOUBLE, LN, SQRT, ABS) runs unchanged in both Spark SQL and
DuckDB, so one renderer serves the per-query baselines and the oracle.
"""
from __future__ import annotations

from repro.core.join_tree import JoinTree
from repro.core.query import Query


def natural_join_clause(tree: JoinTree) -> str:
    """FROM-clause over all relations in a BFS order so every relation joins
    the already-connected prefix."""
    return " NATURAL JOIN ".join(tree.bfs_order())


def render_query_sql(tree: JoinTree, query: Query) -> str:
    select = list(query.group_by)
    for agg, name in zip(query.aggregates, query.agg_names):
        select.append(f"SUM({agg.to_sql()}) AS {name}")
    sql = f"SELECT {', '.join(select)} FROM {natural_join_clause(tree)}"
    if query.group_by:
        sql += f" GROUP BY {', '.join(query.group_by)}"
    return sql
