"""The benchmark's workloads: what one analyst pass is, and its oracle.

A workload names a dataset, prepares its batch once during set-up, and then
runs one *pass* at a time against an engine (an ``LMFAO`` object or the
``probes.EngineProbe`` that stands in for it). The reference results come
from the per-query DuckDB baseline over the same batch and, for the tree,
from ``pandas_cart`` over the materialized join.
"""
from __future__ import annotations

from dataclasses import dataclass

from check import tree_mismatches
from repro.apps.dtree import compute_thresholds, learn_tree
from repro.baselines.ml_baselines import materialize_join, pandas_cart
from repro.workloads import build_workload


@dataclass(frozen=True)
class Scale:
    sf: float  # dataset scale factor
    duckdb_reps: int  # repetitions of the per-query DuckDB baseline


FULL = Scale(sf=0.05, duckdb_reps=5)
SMOKE = Scale(sf=0.004, duckdb_reps=1)


class BatchWorkload:
    """One fixed aggregate batch: a pass is compile, run, collect, cleanup."""

    kind = "batch"

    def __init__(self, name: str, dataset: str, batch: str, n_buckets: int, why: str):
        self.name, self.dataset, self.batch = name, dataset, batch
        self.n_buckets, self.why = n_buckets, why

    def prepare(self, ctx) -> None:
        ctx.queries = build_workload(
            ctx.spec, self.batch, ctx.relations, n_buckets=self.n_buckets
        )

    def one_pass(self, ctx, engine):
        plan = engine.compile(ctx.queries)
        run = engine.run(ctx.spark, ctx.relations, plan)
        out = {q.name: run.pandas(q.name) for q in ctx.queries}
        run.cleanup()
        return out

    def prepare_oracle(self, ctx) -> None:
        pass

    def result_mismatches(self, ctx, result) -> list[str]:
        return []


class TreeWorkload:
    """A regression tree grown by ``learn_tree``: one batch per level."""

    kind = "tree"

    def __init__(
        self, name: str, dataset: str, cats: tuple[str, ...], max_depth: int,
        min_split: int, n_buckets: int, why: str,
    ):
        self.name, self.dataset, self.cats = name, dataset, cats
        self.max_depth, self.min_split = max_depth, min_split
        self.n_buckets, self.why = n_buckets, why

    def _args(self, ctx) -> dict:
        return dict(
            cont=ctx.spec.continuous_features(), cats=self.cats,
            label=ctx.spec.label, kind="regression", max_depth=self.max_depth,
            min_split=self.min_split, thresholds=ctx.thresholds,
        )

    def prepare(self, ctx) -> None:
        ctx.thresholds = compute_thresholds(
            ctx.relations, ctx.spec.db, ctx.spec.continuous_features(), self.n_buckets
        )

    def one_pass(self, ctx, engine):
        return learn_tree(ctx.spark, ctx.relations, engine, **self._args(ctx))

    def prepare_oracle(self, ctx) -> None:
        joined = materialize_join(
            ctx.spark, ctx.relations, ctx.spec.tree(), ctx.spec.fact
        ).toPandas()
        ctx.cart = pandas_cart(joined, **self._args(ctx))

    def result_mismatches(self, ctx, result) -> list[str]:
        return tree_mismatches(result, ctx.cart)


WORKLOADS = {
    w.name: w
    for w in (
        BatchWorkload(
            "rt-retailer", "retailer", "rt", n_buckets=2,
            why="Retailer regression-tree-node batch: wide views, half of run "
            "time is driver-side plan building; few Spark jobs",
        ),
        TreeWorkload(
            "tree-favorita", "favorita", cats=("promo",), max_depth=2,
            min_split=100, n_buckets=2,
            why="Favorita depth-2 regression tree via learn_tree: two dependent "
            "batches, recompiled per level; bound by Spark job overhead",
        ),
    )
}
