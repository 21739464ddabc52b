"""End-to-end engine correctness: every result the LMFAO engine produces is
checked against DuckDB running the plain GROUP-BY-over-NATURAL-JOIN SQL via
the provided oracle — across all four datasets and every query shape the
applications generate (counts, products across relations, categorical
group-bys, deltas, spanning n-ary functions, sums of products)."""
from __future__ import annotations

import pytest

from repro.core.engine import LMFAO
from repro.core.expr import (
    Product,
    SumProduct,
    count,
    delta,
    fn,
    ident,
    power,
    sum_of,
)
from repro.core.query import Query
from repro.core.sql import render_query_sql
from repro.oracle import assert_equivalent, assert_frames_agree
from repro.workloads import build_workload

# per-dataset query shapes: (query-name, group_by, aggregates)
CASES = {
    "favorita": [
        ("count", (), (count(),)),
        ("sum_fact", (), (sum_of(ident("units")),)),
        ("sum_cross", (), (sum_of(ident("units"), ident("price")),)),
        ("sq", (), (sum_of(power("txns", 2)),)),
        ("gb_local", ("promo",), (count(), sum_of(ident("units")))),
        ("gb_dim", ("family",), (sum_of(ident("price")),)),
        ("gb_deep", ("city",), (count(),)),
        ("gb_pair", ("family", "city"), (count(),)),
        ("gb_pair_deep", ("city", "htype"), (sum_of(ident("units")),)),
        ("delta_fact", (), (sum_of(delta("units", "<=", 5)),)),
        ("delta_dim", (), (sum_of(delta("price", ">", 55.0), ident("units")),)),
        ("fn_unary", (), (sum_of(fn("log1p", "units"), fn("log1p", "price")),)),
        ("fn_span", ("family",), (sum_of(fn("xy_plus1", "txns", "city")),)),
        (
            "sum_products",
            (),
            (SumProduct((Product((ident("units"),)), Product((ident("txns"),)))),),
        ),
        (
            "multi_agg",
            ("stype",),
            (count(), sum_of(ident("units")), sum_of(power("units", 2))),
        ),
    ],
    "retailer": [
        ("count", (), (count(),)),
        ("gb_census", ("clim_zn",), (sum_of(ident("population")),)),
        ("cross3", (), (sum_of(ident("price"), ident("inventoryunits")),)),
        ("gb_pair", ("category", "rain"), (count(),)),
        ("delta", (), (sum_of(delta("mxtemp", ">", 80.0), ident("inventoryunits")),)),
        ("deep_chain", ("rgn_cd",), (sum_of(ident("medianage")),)),
    ],
    "yelp": [
        ("count", (), (count(),)),  # many-to-many fan-out count
        ("gb_cat", ("cat_id",), (sum_of(ident("rstars")),)),
        ("gb_attr_pair", ("attr_id", "attr_val"), (count(),)),
        ("cross", (), (sum_of(ident("u_fans"), ident("b_stars")),)),
        ("gb_mixed", ("b_city", "u_elite"), (sum_of(ident("rstars")),)),
    ],
    "tpcds": [
        ("count", (), (count(),)),
        ("gb_snowflake", ("ca_state",), (sum_of(ident("ss_sales")),)),
        ("gb_incband", ("hd_buy_potential",), (sum_of(ident("ib_hi")),)),
        ("cross", (), (sum_of(ident("ss_quantity"), ident("i_price")),)),
        ("gb_pair", ("cd_gender", "s_market"), (count(),)),
        ("delta_deep", (), (sum_of(delta("ca_gmt", "==", -5.0), ident("ss_sales")),)),
    ],
}

PARAMS = [
    pytest.param(ds, i, id=f"{ds}-{case[0]}")
    for ds, cases in CASES.items()
    for i, case in enumerate(cases)
]


@pytest.mark.parametrize("ds,case_idx", PARAMS)
def test_engine_matches_duckdb(spark, data, ds, case_idx):
    bundle = data[ds]
    name, gb, aggs = CASES[ds][case_idx]
    q = Query(f"q_{name}", gb, aggs)
    plan = bundle.engine.compile([q])
    run = bundle.engine.run(spark, bundle.relations, plan)
    sql = render_query_sql(bundle.spec.tree(), q)
    assert_equivalent(run.pandas(q.name), sql, **bundle.pandas)


@pytest.mark.parametrize("ds", sorted(CASES))
def test_whole_batch_shares_views_and_stays_correct(spark, data, ds):
    """All shapes of a dataset compiled as ONE batch: sharing must not change
    any result, and interning must actually shrink the view count."""
    bundle = data[ds]
    queries = [Query(f"q_{n}", gb, aggs) for n, gb, aggs in CASES[ds]]
    plan = bundle.engine.compile(queries)
    stats = plan.stats()
    n_edges = len(bundle.spec.tree().edges)
    assert stats["V"] < len(queries) * n_edges, "no sharing happened"
    run = bundle.engine.run(spark, bundle.relations, plan)
    for q in queries:
        assert_equivalent(
            run.pandas(q.name),
            render_query_sql(bundle.spec.tree(), q),
            **bundle.pandas,
        )


@pytest.mark.parametrize(
    "multi_root,merge,parallel",
    [
        (False, False, False),
        (False, True, False),
        (True, True, False),
        (True, False, True),
    ],
    ids=["all-off", "merge-only", "multiroot-merge", "parallel-nomerge"],
)
def test_ablation_configs_agree(spark, favorita, multi_root, merge, parallel):
    """Every ablation configuration must return identical results — the
    layers are optimizations, not semantics."""
    queries = [
        Query("a", ("family",), (count(), sum_of(ident("units")))),
        Query("b", (), (sum_of(ident("price"), ident("txns")),)),
        Query("c", ("city",), (count(),)),
    ]
    eng = LMFAO(
        favorita.spec.tree(),
        favorita.sizes,
        multi_root=multi_root,
        merge_views=merge,
    )
    plan = eng.compile(queries)
    run = eng.run(spark, favorita.relations, plan, parallel=parallel)
    for q in queries:
        assert_equivalent(
            run.pandas(q.name),
            render_query_sql(favorita.spec.tree(), q),
            **favorita.pandas,
        )


@pytest.mark.parametrize("wl", ["rt", "cm"])
def test_multi_partition_relations_agree(spark, retailer, wl):
    """At the test SF every relation is one partition, so no view shuffles.
    Over the same relations in 4 partitions each view aggregates partially
    per partition and finally across a shuffle; the batch must match both
    the oracle and the single-partition run."""
    tree = retailer.spec.tree()
    split = {n: df.repartition(4) for n, df in retailer.relations.items()}
    assert all(df.rdd.getNumPartitions() == 4 for df in split.values())
    queries = build_workload(retailer.spec, wl, retailer.relations, n_buckets=3)
    plan = retailer.engine.compile(queries)
    single = retailer.engine.run(spark, retailer.relations, plan)
    multi = retailer.engine.run(spark, split, plan)
    for q in queries:
        got = multi.pandas(q.name)
        assert_equivalent(got, render_query_sql(tree, q), **retailer.pandas)
        assert_frames_agree(got, single.pandas(q.name))


def test_explicit_roots_override(spark, favorita):
    """Any root choice must give the same answer (directional views)."""
    q = Query("q", ("family",), (sum_of(ident("price")),))
    tree = favorita.spec.tree()
    for root in tree.nodes:
        plan = favorita.engine.compile([q], roots={"q": root})
        assert plan.roots["q"] == root
        run = favorita.engine.run(spark, favorita.relations, plan)
        assert_equivalent(
            run.pandas("q"), render_query_sql(tree, q), **favorita.pandas
        )


def test_duplicate_query_names_rejected(favorita):
    q = Query("q", (), (count(),))
    with pytest.raises(ValueError):
        favorita.engine.compile([q, q])
