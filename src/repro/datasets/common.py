"""Shared dataset plumbing: the spec object and generator helpers."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.join_tree import JoinTree
from repro.core.schema import Database


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def split_partitions(
    nbytes: int, *, max_partition_bytes: int, open_cost: int, parallelism: int
) -> int:
    """Partitions for a relation of ``nbytes``, by Spark's file-scan split
    rule (``FilePartition.maxSplitBytes``): a split is ``(nbytes + open_cost)
    / parallelism``, clamped to ``[open_cost, max_partition_bytes]``. Never
    more than ``parallelism``, the count ``createDataFrame`` gives."""
    split = min(
        max_partition_bytes, max(open_cost, (nbytes + open_cost) / parallelism)
    )
    return min(parallelism, max(1, math.ceil(nbytes / split)))


def dim_size(base: int, sf: float, floor: int = 8) -> int:
    """Dimension-domain size at a scale factor.

    Domains grow with sqrt(SF) so that per-key fact multiplicities (and
    thus group counts in aggregate outputs) stay in a realistic band across
    the SF=0.01 (tests) to SF=0.1 (benchmarks) range.
    """
    return max(floor, int(base * sf**0.5))


@dataclass
class DatasetSpec:
    """One evaluation dataset: catalog, join tree, generator, workload config.

    ``generate(spark, sf, seed)`` returns one DataFrame per relation,
    deterministic in ``seed``. Workload fields configure the paper's four
    aggregate batches (covar matrix, regression-tree node, mutual
    information, data cube) and the Table 4/5 learning tasks.
    """

    name: str
    db: Database
    edges: list[tuple[str, str]]
    fact: str
    generate_pandas: Callable[[float, int], dict[str, pd.DataFrame]]
    label: str | None = None
    date_attr: str | None = None  # fact attribute used for the train/test split
    cm_cats: tuple[str, ...] = ()  # categorical attrs used in the covar batch
    mi_attrs: tuple[str, ...] = ()
    cube_dims: tuple[str, ...] = ()
    cube_measures: tuple[str, ...] = ()
    _tree: JoinTree | None = field(default=None, repr=False)

    def tree(self) -> JoinTree:
        if self._tree is None:
            self._tree = JoinTree(self.db, self.edges)
        return self._tree

    def generate(
        self, spark: SparkSession, *, sf: float = 0.01, seed: int = 0
    ) -> dict[str, DataFrame]:
        """One DataFrame per relation, partitioned by its bytes.

        Each relation gets ``split_partitions`` of its pandas bytes
        (``memory_usage(deep=True)``) under the session's
        ``spark.sql.files.maxPartitionBytes``, ``spark.sql.files.openCostInBytes``
        and ``defaultParallelism``, as if Spark had scanned it from a file: a
        relation under the open cost (4 MiB by default) is one partition, so a
        view over it aggregates in one task with no shuffle, and only a large
        relation is split across cores.
        """
        pdfs = self.generate_pandas(sf, seed)
        assert set(pdfs) == set(self.db.relations), "generator/catalog mismatch"
        conf = spark._jsparkSession.sessionState().conf()
        split = dict(
            max_partition_bytes=conf.filesMaxPartitionBytes(),
            open_cost=conf.filesOpenCostInBytes(),
            parallelism=spark.sparkContext.defaultParallelism,
        )
        out: dict[str, DataFrame] = {}
        for name, pdf in pdfs.items():
            expected = list(self.db.relations[name].schema)
            assert list(pdf.columns) == expected, (
                f"{self.name}.{name}: generator columns {list(pdf.columns)} "
                f"!= catalog {expected}"
            )
            nbytes = int(pdf.memory_usage(deep=True, index=False).sum())
            out[name] = spark.createDataFrame(pdf).coalesce(
                split_partitions(nbytes, **split)
            )
        return out

    def continuous_features(self) -> tuple[str, ...]:
        """All continuous non-key attributes except the label."""
        return tuple(
            a for a in self.db.attrs_of_kind("cont") if a != self.label
        )

    def split_fact(
        self, fact_df: DataFrame, *, test_frac: float = 0.1
    ) -> tuple[DataFrame, DataFrame]:
        """Train/test split on the fact's date attribute (paper §A: the test
        set is the trailing slice of dates, simulating future prediction)."""
        if self.date_attr is None:
            raise ValueError(f"{self.name} has no date attribute to split on")
        lo, hi = (
            fact_df.selectExpr(
                f"min({self.date_attr}) AS lo", f"max({self.date_attr}) AS hi"
            )
            .collect()[0]
        )
        cut = hi - max(1, int((hi - lo + 1) * test_frac))
        return (
            fact_df.where(f"{self.date_attr} <= {cut}"),
            fact_df.where(f"{self.date_attr} > {cut}"),
        )


_REGISTRY: dict[str, DatasetSpec] = {}


def register(spec: DatasetSpec) -> DatasetSpec:
    _REGISTRY[spec.name] = spec
    return spec


def all_datasets() -> dict[str, DatasetSpec]:
    """All registered dataset specs, keyed by name (import side effect of
    the dataset modules, triggered by the package __init__)."""
    import repro.datasets  # noqa: F401  (ensures modules imported)

    return dict(_REGISTRY)
