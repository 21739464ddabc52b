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
collected to pandas directly, never persisted.

Parallelization: the jobs of a wave (forcing shared views, collecting query
views) are submitted from a thread pool — Spark's scheduler runs them
concurrently; domain parallelism comes from the partitioning of the scanned
relation.
"""
from __future__ import annotations

from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial

import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.core.group import Grouping
from repro.core.join_tree import JoinTree
from repro.core.views import Atom, ViewDef


@dataclass
class RunResult:
    """Query results of one run, plus the cached shared internal views.

    ``run[q]`` is the query's lazy DataFrame; ``run.pandas(q)`` is the frame
    collected during the run. Call :meth:`cleanup` when done to release the
    cached views.
    """

    dataframes: dict[str, DataFrame]
    collected: dict[str, pd.DataFrame]
    _cached: list[DataFrame] = field(default_factory=list)

    def __getitem__(self, query_name: str) -> DataFrame:
        return self.dataframes[query_name]

    def pandas(self, query_name: str) -> pd.DataFrame:
        return self.collected[query_name]

    def cleanup(self) -> None:
        _unpersist(self._cached)


def _unpersist(cached: list[DataFrame]) -> None:
    for df in cached:
        df.unpersist()
    cached.clear()


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

    If any job fails, every view persisted so far is released before the
    error propagates.
    """
    readers = Counter(w for v in views for w in v.incoming)
    workers = spark.sparkContext.defaultParallelism if parallel else 1
    built: dict[int, DataFrame] = {}
    cached: list[DataFrame] = []
    results: dict[str, DataFrame] = {}
    collected: dict[str, pd.DataFrame] = {}

    def collect(name: str) -> None:
        collected[name] = results[name].toPandas()

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
                        results[v.query_name] = df
                        jobs.append(partial(collect, v.query_name))
                    elif readers[vid] > 1:
                        # forced now, so parallel readers do not race to fill it
                        df = df.persist()
                        cached.append(df)
                        jobs.append(df.count)
                    built[vid] = df
            with ThreadPoolExecutor(max_workers=workers) as pool:
                for fut in [pool.submit(job) for job in jobs]:
                    fut.result()
    except BaseException:
        _unpersist(cached)
        raise
    return RunResult(results, collected, cached)
