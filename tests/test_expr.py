"""Aggregate-language tests: the SQL text of every factor kind must give the
same values in Spark SQL, in DuckDB and through the numpy renderer — the SQL
drives the engine, the baselines and the oracle, the numpy form the ML
baselines, so any divergence would make correctness checks vacuous."""
from __future__ import annotations

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.baselines.duckdb_batch import run_duckdb
from repro.core.expr import (
    FN_REGISTRY,
    Factor,
    Product,
    SumProduct,
    const,
    count,
    delta,
    fn,
    ident,
    power,
    sum_of,
)

PDF = pd.DataFrame(
    {
        "x": [1, 2, 3, 4, 5, -2, 0, 7],
        "y": [2.5, -1.0, 0.0, 3.25, 4.0, 1.5, -0.5, 2.0],
        "z": [0, 1, 1, 0, 2, 2, 1, 0],
        "n": [1.5, None, 3.0, None, -1.0, 2.0, None, 0.5],
    }
)

FACTORS = [
    const(1.0),
    const(-2.5),
    ident("x"),
    ident("y"),
    power("x", 1),
    power("x", 2),
    power("y", 3),
    delta("x", "<", 3),
    delta("x", "<=", 3),
    delta("x", ">", 3),
    delta("x", ">=", 3),
    delta("z", "==", 1),
    delta("z", "!=", 1),
    delta("y", "<=", 1.5),
    fn("log1p", "x"),
    fn("sqrt_abs", "y"),
    fn("xy_plus1", "x", "y"),
]


def _duck_eval(expr_sql: str) -> np.ndarray:
    return run_duckdb({"t": PDF}, [f"SELECT {expr_sql} AS v FROM t"])[0]["v"].to_numpy()


@pytest.mark.parametrize("factor", FACTORS, ids=lambda f: repr(f))
def test_numpy_matches_duckdb_sql(factor):
    np.testing.assert_allclose(
        factor.to_numpy(PDF), _duck_eval(factor.to_sql()), rtol=1e-12, atol=1e-12
    )


@pytest.mark.parametrize("factor", FACTORS, ids=lambda f: repr(f))
def test_spark_matches_numpy(spark, factor):
    sdf = spark.createDataFrame(PDF)
    got = np.array(
        [r[0] for r in sdf.select(F.expr(factor.to_sql()).alias("v")).collect()],
        dtype=float,
    )
    np.testing.assert_allclose(got, factor.to_numpy(PDF), rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize(
    "factors",
    [
        (ident("x"), ident("y")),
        (power("x", 2), delta("z", "==", 1)),
        (const(3.0), fn("log1p", "x"), delta("x", ">", 2)),
        (),
        (ident("n"), ident("y")),
    ],
    ids=["xy", "x2d", "cfd", "empty", "null_is_zero"],
)
def test_product_consistency(factors):
    p = Product(factors)
    np.testing.assert_allclose(p.to_numpy(PDF), _duck_eval(p.to_sql()), rtol=1e-12)


def test_product_canonical_order_drives_equality():
    a = Product((ident("x"), ident("y")))
    b = Product((ident("y"), ident("x")))
    assert a == b and hash(a) == hash(b)


def test_product_keeps_duplicate_factors():
    sq = Product((ident("x"), ident("x")))
    np.testing.assert_allclose(sq.to_numpy(PDF), (PDF.x.to_numpy() ** 2).astype(float))


def test_sumproduct_adds_products():
    sp = SumProduct((Product((ident("x"),)), Product((ident("y"),))))
    np.testing.assert_allclose(
        sp.to_numpy(PDF), PDF.x.to_numpy() + PDF.y.to_numpy()
    )
    np.testing.assert_allclose(sp.to_numpy(PDF), _duck_eval(sp.to_sql()))


def test_count_is_empty_product():
    assert count().to_numpy(PDF).sum() == len(PDF)


def test_sum_of_builds_single_product():
    sp = sum_of(ident("x"), ident("y"))
    assert len(sp.products) == 1
    assert sp.attrs == frozenset({"x", "y"})


def test_invalid_kind_rejected():
    with pytest.raises(ValueError):
        Factor("bogus")


def test_invalid_delta_op_rejected():
    with pytest.raises(ValueError):
        delta("x", "~", 1)


def test_nonfinite_delta_threshold_rejected():
    with pytest.raises(ValueError):
        delta("x", "<", float("nan"))


def test_power_requires_positive_exponent():
    with pytest.raises(ValueError):
        power("x", 0)


def test_fn_arity_checked():
    with pytest.raises(ValueError):
        fn("log1p", "x", "y")


def test_registry_has_all_renderers():
    for name, spec in FN_REGISTRY.items():
        assert spec.arity >= 1
        assert "{0}" in spec.sql
