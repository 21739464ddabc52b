"""Property-based engine testing: hypothesis generates random query batches
over Favorita (random group-bys, random factor products, random roots) and
every one must match DuckDB on the plain SQL. This is the adversarial
complement to the hand-picked shapes in test_engine_oracle."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import LMFAO
from repro.core.expr import Product, SumProduct, delta, fn, ident, power
from repro.core.join_tree import JoinTree
from repro.core.query import Query
from repro.core.schema import Attribute as A
from repro.core.schema import Database, Relation
from repro.core.sql import render_query_sql
from repro.oracle import assert_equivalent

GB_ATTRS = ["promo", "family", "perishable", "city", "stype", "htype", "locale"]
NUM_ATTRS = ["units", "txns", "price"]

factor_st = st.one_of(
    st.sampled_from(NUM_ATTRS).map(ident),
    st.sampled_from(NUM_ATTRS).map(lambda a: power(a, 2)),
    st.tuples(
        st.sampled_from(NUM_ATTRS + GB_ATTRS),
        st.sampled_from(["<", "<=", ">", ">=", "==", "!="]),
        st.integers(min_value=0, max_value=60),
    ).map(lambda t: delta(t[0], t[1], t[2])),
    st.sampled_from(NUM_ATTRS).map(lambda a: fn("log1p", a)),
)

product_st = st.lists(factor_st, min_size=0, max_size=3).map(
    lambda fs: Product(tuple(fs))
)
agg_st = st.lists(product_st, min_size=1, max_size=2).map(
    lambda ps: SumProduct(tuple(ps))
)

query_st = st.builds(
    lambda gb, aggs: Query("q", tuple(sorted(set(gb))), tuple(aggs)),
    st.lists(st.sampled_from(GB_ATTRS), min_size=0, max_size=2),
    st.lists(agg_st, min_size=1, max_size=3),
)


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(q=query_st, root_idx=st.integers(min_value=0, max_value=5))
def test_random_query_matches_duckdb(spark, favorita, q, root_idx):
    tree = favorita.spec.tree()
    root = tree.nodes[root_idx % len(tree.nodes)]
    plan = favorita.engine.compile([q], roots={"q": root})
    run = favorita.engine.run(spark, favorita.relations, plan)
    assert_equivalent(run.pandas("q"), render_query_sql(tree, q), **favorita.pandas)


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    qs=st.lists(query_st, min_size=2, max_size=4),
)
def test_random_batch_sharing_preserves_results(spark, favorita, qs):
    """Random multi-query batches: interning across queries never changes
    any individual result."""
    queries = [
        Query(f"q{i}", q.group_by, q.aggregates) for i, q in enumerate(qs)
    ]
    plan = favorita.engine.compile(queries)
    run = favorita.engine.run(spark, favorita.relations, plan)
    for q in queries:
        assert_equivalent(
            run.pandas(q.name),
            render_query_sql(favorita.spec.tree(), q),
            **favorita.pandas,
        )


# ---------------------------------------------------------------------------
# Edge-case data: a small star-plus-chain database (E - F - D - C) in which
# each case breaks one assumption the generated datasets never do.
# ---------------------------------------------------------------------------
EDGE_SCHEMAS = {
    "F": ("k BIGINT", "d BIGINT", "x DOUBLE", "g BIGINT"),
    "D": ("d BIGINT", "c BIGINT", "y DOUBLE", "h BIGINT"),
    "E": ("k BIGINT", "z DOUBLE", "e BIGINT"),
    "C": ("c BIGINT", "w DOUBLE"),
}
EDGE_KINDS = {"k": "key", "d": "key", "c": "key", "x": "cont", "y": "cont",
              "z": "cont", "w": "cont", "g": "cat", "h": "cat", "e": "cat"}
EDGE_TREE = JoinTree(
    Database([
        Relation(n, tuple(A(col.split()[0], EDGE_KINDS[col.split()[0]]) for col in cols))
        for n, cols in EDGE_SCHEMAS.items()
    ]),
    [("F", "D"), ("F", "E"), ("D", "C")],
)


def _edge_rows() -> dict[str, list[list]]:
    """The clean base: every key unique on its dimension and present."""
    g = np.random.default_rng(3)
    return {
        "F": [[int(g.integers(1, 5)), int(g.integers(1, 6)),
               float(g.integers(1, 9)) / 2, int(g.integers(0, 3))] for _ in range(40)],
        "D": [[d, int(g.integers(1, 4)), float(g.integers(1, 9)) / 4,
               int(g.integers(0, 2))] for d in range(1, 6)],
        "E": [[k, float(g.integers(1, 9)), int(g.integers(0, 3))] for k in range(1, 5)],
        "C": [[c, float(g.integers(1, 9)) / 8] for c in range(1, 4)],
    }


def _set_none(rows: list[list], col: int, every: int) -> None:
    for r in rows[::every]:
        r[col] = None


def _nulls_in_attribute(t):
    _set_none(t["F"], 2, 3)
    _set_none(t["D"], 2, 2)
    _set_none(t["E"], 1, 4)
    _set_none(t["C"], 1, 3)


def _nulls_in_group_by(t):
    _set_none(t["F"], 3, 4)
    _set_none(t["D"], 3, 3)


def _nulls_in_join_key(t):
    _set_none(t["F"], 1, 5)
    _set_none(t["D"], 1, 4)  # D.c, the D-C key
    t["D"].append([None, 1, 0.5, 1])  # a NULL D.d next to NULL F.d rows


def _empty_relation(t):
    t["C"].clear()


def _dangling_keys(t):
    for i, r in enumerate(t["F"][::3]):
        r[1] = 6 + i % 2  # no dimension row has d 6 or 7
    t["D"].append([9, 7, 1.0, 0])  # d 9 has no fact; c 7 has no C row


def _duplicate_dimension_keys(t):
    t["D"] += [[1, 2, 3.0, 1], [3, 3, 0.5, 0]]
    t["C"].append([2, 0.75])


EDGE_CASES = {
    "nulls_in_attribute": _nulls_in_attribute,
    "nulls_in_group_by": _nulls_in_group_by,
    "nulls_in_join_key": _nulls_in_join_key,
    "empty_relation": _empty_relation,
    "dangling_keys": _dangling_keys,
    "duplicate_dimension_keys": _duplicate_dimension_keys,
}


@pytest.fixture(scope="module")
def edge_data(spark):
    """Per case: (engine, Spark relations, pandas relations with NULLs as
    pandas NA, so DuckDB reads them as NULL)."""
    out = {}
    for case, mutate in EDGE_CASES.items():
        tables = _edge_rows()
        mutate(tables)
        rels, pdfs = {}, {}
        for name, cols in EDGE_SCHEMAS.items():
            rels[name] = spark.createDataFrame(tables[name], ", ".join(cols)).cache()
            pdfs[name] = pd.DataFrame(
                tables[name], columns=[c.split()[0] for c in cols]
            ).astype({c.split()[0]: "Int64" if "BIGINT" in c else "Float64" for c in cols})
        sizes = {n: df.count() for n, df in rels.items()}
        out[case] = (LMFAO(EDGE_TREE, sizes), rels, pdfs)
    yield out
    for _, rels, _ in out.values():
        for df in rels.values():
            df.unpersist()


EDGE_GB = ["g", "h", "e", "d"]
EDGE_NUM = ["x", "y", "z", "w"]
edge_factor_st = st.one_of(
    st.sampled_from(EDGE_NUM).map(ident),
    st.sampled_from(EDGE_NUM).map(lambda a: power(a, 2)),
    st.tuples(
        st.sampled_from(EDGE_NUM + EDGE_GB),
        st.sampled_from(["<", ">=", "==", "!="]),
        st.integers(min_value=0, max_value=3),
    ).map(lambda t: delta(*t)),
)
edge_agg_st = st.lists(
    st.lists(edge_factor_st, max_size=3).map(lambda fs: Product(tuple(fs))),
    min_size=1, max_size=2,
).map(lambda ps: SumProduct(tuple(ps)))
edge_query_st = st.builds(
    lambda gb, aggs: Query("q", tuple(sorted(set(gb))), tuple(aggs)),
    st.lists(st.sampled_from(EDGE_GB), max_size=2),
    st.lists(edge_agg_st, min_size=1, max_size=3),
)


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(q=edge_query_st, root=st.sampled_from(sorted(EDGE_SCHEMAS)))
def test_edge_case_data_matches_duckdb(spark, edge_data, case, q, root):
    """NULLs, an empty relation, dangling foreign keys and duplicate
    dimension keys: the engine must still equal the plain SQL."""
    engine, rels, pdfs = edge_data[case]
    plan = engine.compile([q], roots={"q": root})
    run = engine.run(spark, rels, plan)
    assert_equivalent(run.pandas("q"), render_query_sql(EDGE_TREE, q), **pdfs)
