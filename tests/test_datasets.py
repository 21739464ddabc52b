"""Dataset generator tests: determinism, schema fidelity, key coverage
(no silently-empty joins), scale behavior, and the per-dataset shape
properties the paper's analysis relies on."""
from __future__ import annotations

import pandas as pd
import pytest

from repro.datasets import all_datasets
from repro.datasets.common import split_partitions

DATASETS = sorted(all_datasets())


@pytest.mark.parametrize("name", DATASETS)
def test_generator_matches_catalog(name):
    spec = all_datasets()[name]
    pdfs = spec.generate_pandas(0.002, 3)
    assert set(pdfs) == set(spec.db.relations)
    for rel, pdf in pdfs.items():
        assert list(pdf.columns) == list(spec.db.relations[rel].schema)
        assert len(pdf) > 0


@pytest.mark.parametrize("name", DATASETS)
def test_generator_deterministic(name):
    spec = all_datasets()[name]
    a = spec.generate_pandas(0.002, 11)
    b = spec.generate_pandas(0.002, 11)
    for rel in a:
        pd.testing.assert_frame_equal(a[rel], b[rel])


@pytest.mark.parametrize("name", DATASETS)
def test_generator_seed_sensitivity(name):
    spec = all_datasets()[name]
    a = spec.generate_pandas(0.002, 1)
    b = spec.generate_pandas(0.002, 2)
    assert any(not a[r].equals(b[r]) for r in a)


@pytest.mark.parametrize("name", DATASETS)
def test_fact_scales_with_sf(name):
    spec = all_datasets()[name]
    small = spec.generate_pandas(0.002, 0)[spec.fact]
    big = spec.generate_pandas(0.01, 0)[spec.fact]
    assert len(big) > 3 * len(small)


MIB = 2**20


@pytest.mark.parametrize(
    "mib,parallelism,parts",
    [
        (1.0, 4, 1),  # under the open cost: one task, no shuffle
        (11.4, 4, 3),  # favorita Sales / yelp Review at SF 0.5
        (27.5, 4, 4),  # tpcds store_sales at SF 0.5
        (27.5, 2, 2),
        (10 * 1024, 4, 4),  # past maxPartitionBytes: capped at parallelism
        (0.0, 4, 1),
    ],
)
def test_split_partitions(mib, parallelism, parts):
    """Spark's file-scan split rule at its default maxPartitionBytes
    (128 MiB) and openCostInBytes (4 MiB)."""
    got = split_partitions(
        int(mib * MIB),
        max_partition_bytes=128 * MIB,
        open_cost=4 * MIB,
        parallelism=parallelism,
    )
    assert got == parts


@pytest.mark.parametrize("name", DATASETS)
def test_test_sf_relations_are_one_partition(name, data):
    """Every relation at the test SF is far under the open cost, so it is
    one partition and a view over it runs as one task."""
    for rel, df in data[name].relations.items():
        assert df.rdd.getNumPartitions() == 1, rel


@pytest.mark.parametrize("name", DATASETS)
def test_join_not_empty(name, data):
    """Inner natural join must retain a healthy fraction of fact rows."""
    bundle = data[name]
    fact_rows = len(bundle.pandas[bundle.spec.fact])
    assert len(bundle.joined) >= 0.5 * fact_rows


def test_yelp_join_fans_out(data):
    """The paper's Yelp property: join result >> input database."""
    bundle = data["yelp"]
    fact_rows = len(bundle.pandas["Review"])
    assert len(bundle.joined) > 3 * fact_rows


@pytest.mark.parametrize("name", ["favorita", "retailer", "tpcds"])
def test_key_joins_do_not_fan_out(name, data):
    """Star/snowflake arms are key-to-foreign-key: at most one row per key,
    so |join| == |fact| exactly when all dimensions cover the fact keys."""
    bundle = data[name]
    assert len(bundle.joined) == len(bundle.pandas[bundle.spec.fact])


@pytest.mark.parametrize("name", ["favorita", "retailer", "tpcds"])
def test_train_test_split(name, data):
    bundle = data[name]
    fact = bundle.relations[bundle.spec.fact]
    train, test = bundle.spec.split_fact(fact, test_frac=0.2)
    nt, ns = train.count(), test.count()
    assert nt + ns == fact.count()
    assert nt > 0 and ns > 0
    date = bundle.spec.date_attr
    assert (
        train.agg({date: "max"}).collect()[0][0]
        < test.agg({date: "min"}).collect()[0][0]
    )


def test_yelp_split_unsupported(data):
    with pytest.raises(ValueError):
        data["yelp"].spec.split_fact(data["yelp"].relations["Review"])


@pytest.mark.parametrize("name", DATASETS)
def test_table1_shape_counts(name):
    """Relation/attribute counts stay in the paper's Table-1 ballpark
    (scaled-down attribute sets are documented in DESIGN.md)."""
    spec = all_datasets()[name]
    n_rel = len(spec.db.relations)
    expected_rel = {"retailer": 5, "favorita": 6, "yelp": 5, "tpcds": 10}
    assert n_rel == expected_rel[name]
    n_attr = len(spec.db.attrs)
    assert 15 <= n_attr <= 50
    assert len(spec.db.attrs_of_kind("cat")) >= 5


@pytest.mark.parametrize("name", DATASETS)
def test_spark_pandas_roundtrip(name, data):
    bundle = data[name]
    for rel, df in bundle.relations.items():
        assert df.count() == len(bundle.pandas[rel])
