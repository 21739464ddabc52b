"""Shared fixtures: per-dataset bundles at test SF."""
from __future__ import annotations

import os
from dataclasses import dataclass

import pandas as pd
import pytest
from pyspark.sql import DataFrame, SparkSession

from repro.baselines.ml_baselines import materialize_join
from repro.core.engine import LMFAO
from repro.datasets import all_datasets
from repro.datasets.common import DatasetSpec
from repro.harness import load_dataset

SF_TEST = float(os.environ.get("REPRO_TEST_SF", "0.004"))


@dataclass
class Bundle:
    """Everything a test needs for one dataset: cached relations, the engine,
    pandas copies, and the materialized join (the correctness oracle input).
    """

    spec: DatasetSpec
    relations: dict[str, DataFrame]
    sizes: dict[str, int]
    engine: LMFAO
    pandas: dict[str, pd.DataFrame]
    joined: pd.DataFrame


def _make_bundle(spark: SparkSession, spec: DatasetSpec) -> Bundle:
    relations, sizes = load_dataset(spark, spec, SF_TEST, seed=7)
    engine = LMFAO(spec.tree(), sizes)
    pdfs = {n: df.toPandas() for n, df in relations.items()}
    joined = materialize_join(spark, relations, spec.tree(), spec.fact).toPandas()
    return Bundle(spec, relations, sizes, engine, pdfs, joined)


@pytest.fixture(scope="session")
def data(spark) -> dict[str, Bundle]:
    """One bundle per evaluation dataset, built once per session."""
    return {
        name: _make_bundle(spark, spec) for name, spec in all_datasets().items()
    }


@pytest.fixture(scope="session")
def favorita(data) -> Bundle:
    return data["favorita"]


@pytest.fixture(scope="session")
def retailer(data) -> Bundle:
    return data["retailer"]


@pytest.fixture(scope="session")
def yelp(data) -> Bundle:
    return data["yelp"]


@pytest.fixture(scope="session")
def tpcds(data) -> Bundle:
    return data["tpcds"]


def run_batch(spark, bundle: Bundle, queries, engine: LMFAO | None = None):
    """Compile+run a batch; returns the pandas results and the plan."""
    eng = engine or bundle.engine
    plan = eng.compile(queries)
    run = eng.run(spark, bundle.relations, plan)
    return {q.name: run.pandas(q.name) for q in queries}, plan
