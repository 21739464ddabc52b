"""Property-based engine testing: hypothesis generates random query batches
over Favorita (random group-bys, random factor products, random roots) and
every one must match DuckDB on the plain SQL. This is the adversarial
complement to the hand-picked shapes in test_engine_oracle."""
from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.expr import Product, SumProduct, delta, fn, ident, power
from repro.core.query import Query
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
