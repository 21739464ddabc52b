"""Multi-Output execution + Parallelization layers (paper §3.5).

A view evaluates as: scan its source relation (Catalyst prunes the scan to
the columns the view reads), probe each incoming view through a broadcast
hash join on the edge join keys, then one ``groupBy().agg()`` computing *all*
of the view's merged aggregates in a single pass — the Spark analog of
LMFAO's multi-output plan (one scan, many aggregates, hash-map lookups into
the incoming views, Tungsten whole-stage codegen standing in for the
generated C++; see DESIGN.md "substitutions"). Each aggregate is SQL text,
``SUM(<local.to_sql()> * v<k>_a<i> …)``, the same function text the
baselines and the oracle run.

Every view is one Spark job that collects it to Arrow, the analog of LMFAO
computing each view once into an in-memory hash map that its parent probes: a
query view's table becomes its pandas result, an internal view's is handed
back to Spark as a local frame that its readers probe through a broadcast
join. No Spark-side state outlives a view's job, so a run leaves nothing to
release, also when a job raises.

Parallelization (§3.6): task parallelism follows the view dependencies. One
thread pool of ``defaultParallelism`` workers (one with ``parallel=False``)
takes the views in plan order; a worker waits until the view's incoming views
are collected, then builds its plan and runs its job, so Spark's scheduler
runs the jobs of independent views concurrently, and no view waits on a view
it does not read. Domain parallelism comes from the partitioning of the
scanned relation, which ``DatasetSpec.generate`` sets by its bytes.
"""
from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor, as_completed
from dataclasses import dataclass
from typing import TYPE_CHECKING

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.join_tree import JoinTree
from repro.core.views import Atom, ViewDef

if TYPE_CHECKING:
    from repro.core.engine import Plan


@dataclass
class RunResult:
    """Query results of one run, collected to pandas.

    ``run.pandas(q)`` is query ``q``'s result. Nothing of the run is left
    in Spark, so there is nothing to release.
    """

    frames: dict[str, pd.DataFrame]

    def pandas(self, query_name: str) -> pd.DataFrame:
        return self.frames[query_name]

    def cleanup(self) -> None:
        """No-op, kept for callers written against the release-when-done
        lifecycle: ``execute`` leaves nothing in Spark."""


def _atom_sql(atom: Atom, views: list[ViewDef]) -> str:
    """SQL for one partial product: local factors × incoming refs."""
    refs = [views[vid].col(aidx) for vid, aidx in atom.refs]
    return " * ".join([atom.local.to_sql(), *refs])


def _view_df(
    view: ViewDef,
    views: list[ViewDef],
    tree: JoinTree,
    relations: dict[str, DataFrame],
    inputs: dict[int, DataFrame],
) -> DataFrame:
    """The view's plan: source relation, broadcast-joined with its incoming
    views ``inputs`` (inner, on the edge join keys = incoming group-by ∩
    source schema), aggregated in one pass."""
    omega = tree.db.schema_of(view.source)
    df = relations[view.source]
    for vid in view.incoming:
        keys = [a for a in views[vid].group_by if a in omega]
        df = df.join(F.broadcast(inputs[vid]), on=keys, how="inner")
    atoms = [_atom_sql(a, views) for a in view.atoms]
    if view.is_query:
        sums = [
            (name, " + ".join(f"({atoms[i]})" for i in idxs))
            for name, idxs in view.outputs
        ]
    else:
        sums = [(view.col(i), a) for i, a in enumerate(atoms)]
    aggs = [F.expr(f"SUM({body}) AS {name}") for name, body in sums]
    if view.group_by:
        return df.groupBy(*view.group_by).agg(*aggs)
    return df.agg(*aggs)


def execute(
    spark: SparkSession,
    relations: dict[str, DataFrame],
    plan: Plan,
    *,
    parallel: bool,
) -> RunResult:
    """Evaluate every view of ``plan`` as soon as its incoming views are
    collected; returns the collected query results. The first failed view
    cancels the views not yet started and is re-raised."""
    views = plan.views
    workers = spark.sparkContext.defaultParallelism if parallel else 1
    futures: dict[int, Future] = {}

    def run_view(view: ViewDef) -> pd.DataFrame | DataFrame:
        # .result() re-raises an incoming view's failure
        inputs = {vid: futures[vid].result() for vid in view.incoming}
        df = _view_df(view, views, plan.tree, relations, inputs)
        table = df.toArrow()
        if view.is_query:
            return table.to_pandas()
        # Arrow, not pandas: pandas would turn a bigint key column with
        # NULLs into float64, which loses integers above 2**53.
        return spark.createDataFrame(table, schema=df.schema)

    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        # No deadlock: the queue is FIFO and every view waits only on views
        # submitted before it (incoming < vid), which have already started.
        for view in views:
            futures[view.vid] = pool.submit(run_view, view)
        for fut in as_completed(futures.values()):
            fut.result()
    finally:
        pool.shutdown(cancel_futures=True)
    return RunResult(
        {v.query_name: futures[v.vid].result() for v in views if v.is_query}
    )
