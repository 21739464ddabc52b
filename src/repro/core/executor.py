"""Multi-Output execution + Parallelization layers (paper §3.5).

A view evaluates as: scan its source relation (projected to the columns
actually used), probe each incoming view through a broadcast hash join on the
edge join keys, then one ``groupBy().agg()`` computing *all* of the view's
merged aggregates in a single pass — the Spark analog of LMFAO's multi-output
plan (one scan, many aggregates, hash-map lookups into the incoming views,
Tungsten whole-stage codegen standing in for the generated C++; see DESIGN.md
"substitutions"). Each aggregate is SQL text, ``SUM(<local.to_sql()> *
v<k>_a<i> …)``, the same function text the baselines and the oracle run.

Only an internal view read by two or more views is persisted and forced; a
view with one reader stays lazy inside its reader's plan. Query views are
collected to pandas directly, never persisted. The run owns its cache: every
persisted view is released before ``execute`` returns or raises, so nothing
outlives the run.

Parallelization: the jobs of a wave (forcing shared views, collecting query
views) are submitted from a thread pool — Spark's scheduler runs them
concurrently; domain parallelism comes from the partitioning of the scanned
relation.
"""
from __future__ import annotations

from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.group import Grouping
from repro.core.join_tree import JoinTree
from repro.core.views import Atom, ViewDef


@dataclass
class RunResult:
    """Query results of one run, collected to pandas.

    ``run.pandas(q)`` is query ``q``'s result. The run cached nothing that
    outlives it, so there is nothing to release.
    """

    collected: dict[str, pd.DataFrame]

    def pandas(self, query_name: str) -> pd.DataFrame:
        return self.collected[query_name]

    def cleanup(self) -> None:
        """No-op, kept for callers written against the release-when-done
        lifecycle: ``execute`` releases its cached views itself."""


def _atom_sql(atom: Atom, views: list[ViewDef]) -> str:
    """SQL for one partial product: local factors × incoming refs."""
    refs = [views[vid].col(aidx) for vid, aidx in atom.refs]
    return " * ".join([atom.local.to_sql(), *refs])


def _used_source_columns(view: ViewDef, views: list[ViewDef], tree: JoinTree):
    """Columns of the source relation this view actually reads."""
    omega = tree.db.schema_of(view.source)
    used = set(view.group_by) & omega
    for atom in view.atoms:
        used |= {a for f_ in atom.local.factors for a in f_.attrs if a in omega}
    for vid in view.incoming:
        used |= {a for a in views[vid].group_by if a in omega}
    return sorted(used)


def _view_df(
    view: ViewDef,
    views: list[ViewDef],
    tree: JoinTree,
    relations: dict[str, DataFrame],
    built: dict[int, DataFrame],
) -> DataFrame:
    """The view's plan: source relation, broadcast-joined with its incoming
    views (inner, on the edge join keys = incoming group-by ∩ source schema),
    aggregated in one pass."""
    omega = tree.db.schema_of(view.source)
    df = relations[view.source].select(*_used_source_columns(view, views, tree))
    for vid in view.incoming:
        keys = [a for a in views[vid].group_by if a in omega]
        df = df.join(F.broadcast(built[vid]), on=keys, how="inner")
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
    tree: JoinTree,
    views: list[ViewDef],
    grouping: Grouping,
    *,
    parallel: bool = True,
) -> RunResult:
    """Evaluate all views wave by wave; returns the collected query results.

    Every view persisted along the way is released before this returns, also
    when a build or a job raises: by the end of the last wave every query
    view is collected, so no cached view is still needed.
    """
    readers = Counter(w for v in views for w in v.incoming)
    workers = spark.sparkContext.defaultParallelism if parallel else 1
    built: dict[int, DataFrame] = {}
    cached: list[DataFrame] = []
    collected: dict[str, pd.DataFrame] = {}

    def collect(name: str, df: DataFrame) -> None:
        collected[name] = df.toPandas()

    try:
        for wave in grouping.waves:
            # Plan construction is py4j-heavy and not worth contending over:
            # build every view plan of the wave serially, then run the
            # wave's independent Spark jobs concurrently.
            jobs = []
            for gi in wave:
                for vid in grouping.groups[gi]:
                    v = views[vid]
                    df = _view_df(v, views, tree, relations, built)
                    if v.is_query:
                        jobs.append(partial(collect, v.query_name, df))
                    elif readers[vid] > 1:
                        # forced now, so parallel readers do not race to fill it
                        df = df.persist()
                        cached.append(df)
                        jobs.append(df.count)
                    built[vid] = df
            with ThreadPoolExecutor(max_workers=workers) as pool:
                for fut in [pool.submit(job) for job in jobs]:
                    fut.result()
    finally:
        for df in cached:
            df.unpersist()
    return RunResult(collected)
