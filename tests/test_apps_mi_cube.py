"""Mutual information / Chow-Liu and data-cube tests against independent
single-machine oracles (direct formula over the materialized join; DuckDB
GROUP BY CUBE)."""
from __future__ import annotations

import math

import pandas as pd
import pytest

from repro.apps.cube import assemble_cube, cube_queries
from repro.apps.mi import chow_liu_tree, mi_queries, mutual_information
from repro.baselines.duckdb_batch import run_duckdb
from tests.conftest import run_batch


def _mi_direct(pdf: pd.DataFrame, a: str, b: str) -> float:
    n = len(pdf)
    joint = pdf.groupby([a, b]).size()
    ma, mb = pdf.groupby(a).size(), pdf.groupby(b).size()
    return sum(
        d / n * math.log(n * d / (ma[va] * mb[vb]))
        for (va, vb), d in joint.items()
    )


@pytest.mark.parametrize("name", ["favorita", "retailer", "yelp", "tpcds"])
def test_mi_matches_direct_formula(spark, data, name):
    bundle = data[name]
    attrs = bundle.spec.mi_attrs[:4]
    results, _ = run_batch(spark, bundle, mi_queries(attrs))
    mi = mutual_information(results, attrs)
    assert len(mi) == len(attrs) * (len(attrs) - 1) // 2
    for (a, b), v in mi.items():
        assert abs(v - _mi_direct(bundle.joined, a, b)) < 1e-9
        assert v >= -1e-12  # MI is non-negative


def test_chow_liu_is_maximum_spanning_tree(spark, favorita):
    attrs = favorita.spec.mi_attrs[:5]
    results, _ = run_batch(spark, favorita, mi_queries(attrs))
    mi = mutual_information(results, attrs)
    edges = chow_liu_tree(mi, attrs)
    assert len(edges) == len(attrs) - 1
    # weight must equal the brute-force best spanning tree over the MI graph
    import itertools

    def weight(es):
        return sum(mi.get((a, b), mi.get((b, a), 0.0)) for a, b in es)

    def spanning(es):
        parent = {a: a for a in attrs}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        cnt = 0
        for a, b in es:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                cnt += 1
        return cnt == len(attrs) - 1

    all_edges = list(itertools.combinations(attrs, 2))
    best = max(
        (
            c
            for c in itertools.combinations(all_edges, len(attrs) - 1)
            if spanning(c)
        ),
        key=weight,
    )
    assert abs(weight(edges) - weight(best)) < 1e-12


def test_chow_liu_connects_all(spark, retailer):
    attrs = retailer.spec.mi_attrs[:4]
    results, _ = run_batch(spark, retailer, mi_queries(attrs))
    edges = chow_liu_tree(mutual_information(results, attrs), attrs)
    seen = {attrs[0]}
    for a, b in edges:
        assert a in seen
        seen.add(b)
    assert seen == set(attrs)


@pytest.mark.parametrize("name", ["favorita", "retailer", "yelp", "tpcds"])
def test_cube_matches_duckdb_cube(spark, data, name):
    bundle = data[name]
    dims, measures = bundle.spec.cube_dims, bundle.spec.cube_measures
    results, plan = run_batch(spark, bundle, cube_queries(dims, measures))
    cube = assemble_cube(results, dims, measures)
    d0, d1, d2 = dims
    msql = ", ".join(
        f"SUM(CAST({m} AS DOUBLE)) AS m{i}" for i, m in enumerate(measures)
    )
    exp = run_duckdb({"joined": bundle.joined}, [
        f"SELECT COALESCE({d0},-1) AS {d0}, COALESCE({d1},-1) AS {d1}, "
        f"COALESCE({d2},-1) AS {d2}, {msql} "
        f"FROM joined GROUP BY CUBE({d0},{d1},{d2})"
    ])[0]
    cols = list(cube.columns)
    a = cube.sort_values(cols).reset_index(drop=True)
    b = exp[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False, atol=1e-6)


def test_cube_query_count(favorita):
    qs = cube_queries(("a", "b", "c"), ("m",) * 5)
    assert len(qs) == 8
    assert sum(q.n_aggregates for q in qs) == 40  # paper Table 2 DC row


def test_cube_all_row_is_grand_total(spark, favorita):
    dims, measures = favorita.spec.cube_dims, favorita.spec.cube_measures
    results, _ = run_batch(spark, favorita, cube_queries(dims, measures))
    cube = assemble_cube(results, dims, measures)
    grand = cube[(cube[list(dims)] == -1).all(axis=1)]
    assert len(grand) == 1
    total = float(bundle_sum(favorita.joined, measures[0]))
    assert abs(float(grand["m0"].iloc[0]) - total) < 1e-6


def bundle_sum(pdf, attr):
    return pdf[attr].astype(float).sum()
