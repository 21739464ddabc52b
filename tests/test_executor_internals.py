"""Executor-internals tests: each view's executed plan scans only the columns
it reads (Catalyst column pruning), no view persisted, nothing left cached
after a run or a failed run, dependency-driven scheduling and fail-fast,
Example 3.3 numeric correctness on a chain database."""
from __future__ import annotations

import re
import time
from collections import Counter

import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F
from pyspark.sql.classic.dataframe import DataFrame

from repro.core import executor
from repro.core.engine import LMFAO, result_size_mb
from repro.core.expr import count, ident, sum_of
from repro.core.join_tree import JoinTree
from repro.core.query import Query
from repro.core.schema import Attribute as A
from repro.core.schema import Database, Relation
from repro.core.views import ViewRegistry, decompose_query
from repro.datasets import FAVORITA
from repro.workloads import build_workload


def _scanned_columns(view, views, relations) -> set[str]:
    """Columns the executed plan of a view with no incoming views reads
    from its cached source relation (its ``InMemoryTableScan [...]``)."""
    df = executor._view_df(view, views, FAVORITA.tree(), relations, {})
    plan = df._jdf.queryExecution().executedPlan().toString()
    (cols,) = re.findall(r"InMemoryTableScan \[([^\]]*)\]", plan)
    return {re.sub(r"#\d+L?$", "", c.strip()) for c in cols.split(",")}


def test_scan_pruned_to_join_keys(favorita):
    """A count query must scan only the join keys of each relation."""
    reg = ViewRegistry()
    decompose_query(Query("q", (), (count(),)), "Sales", FAVORITA.tree(), reg)
    stores_view = [v for v in reg.views if v.source == "Stores"][0]
    # city/state/stype/cluster pruned
    assert _scanned_columns(stores_view, reg.views, favorita.relations) == {"store"}


def test_scan_includes_factor_attrs(favorita):
    reg = ViewRegistry()
    decompose_query(
        Query("q", (), (sum_of(ident("price")),)), "Sales", FAVORITA.tree(), reg
    )
    oil_view = [v for v in reg.views if v.source == "Oil"][0]
    scanned = _scanned_columns(oil_view, reg.views, favorita.relations)
    assert scanned == {"date", "price"}


@pytest.fixture(scope="module")
def chain(spark):
    """Paper Example 3.3: S_k(X_k, X_{k+1}), k=1..4, uniform random keys."""
    db = Database(
        [
            Relation(f"S{k}", (A(f"X{k}", "key"), A(f"X{k+1}", "key")))
            for k in range(1, 5)
        ]
    )
    tree = JoinTree(db, [(f"S{k}", f"S{k+1}") for k in range(1, 4)])
    g = np.random.default_rng(42)
    pdfs = {
        f"S{k}": pd.DataFrame(
            {f"X{k}": g.integers(1, 6, 200), f"X{k+1}": g.integers(1, 6, 200)}
        )
        for k in range(1, 5)
    }
    rels = {n: spark.createDataFrame(p).cache() for n, p in pdfs.items()}
    sizes = {n: df.count() for n, df in rels.items()}
    return tree, rels, pdfs, LMFAO(tree, sizes)


def test_example_3_3_counts_correct(spark, chain):
    """Q_i(X_i; 1) over the chain — multi-root decomposition (left/right
    count views) must give the exact per-value counts of the 4-way join."""
    tree, rels, pdfs, engine = chain
    queries = [Query(f"Q{i}", (f"X{i}",), (count(),)) for i in range(1, 6)]
    plan = engine.compile(queries)
    run = engine.run(spark, rels, plan)
    joined = (
        pdfs["S1"].merge(pdfs["S2"]).merge(pdfs["S3"]).merge(pdfs["S4"])
    )
    for i in range(1, 6):
        got = (
            run.pandas(f"Q{i}")
            .set_index(f"X{i}")["agg0"]
            .astype(int)
            .sort_index()
        )
        exp = joined.groupby(f"X{i}").size().sort_index()
        assert got.to_dict() == exp.to_dict(), f"Q{i} mismatch"


def test_example_3_3_pair_counts(spark, chain):
    """Q_{i,j}(X_i, X_j; 1) — the paper's pairwise extension."""
    tree, rels, pdfs, engine = chain
    q = Query("p", ("X1", "X4"), (count(),))
    plan = engine.compile([q])
    run = engine.run(spark, rels, plan)
    joined = pdfs["S1"].merge(pdfs["S2"]).merge(pdfs["S3"]).merge(pdfs["S4"])
    got = {
        (r.X1, r.X4): int(r.agg0)
        for r in run.pandas("p").itertuples()
    }
    exp = joined.groupby(["X1", "X4"]).size().to_dict()
    assert got == exp


def test_run_result_lifecycle(spark, favorita):
    """A run over a plan with shared views leaves the persistent-RDD count
    as it found it and collects every query's result."""
    queries = build_workload(favorita.spec, "cm")
    plan = favorita.engine.compile(queries)
    assert _shared_views(plan)
    jsc = spark.sparkContext._jsc.sc()
    before = jsc.getPersistentRDDs().size()
    run = favorita.engine.run(spark, favorita.relations, plan)
    assert jsc.getPersistentRDDs().size() == before
    assert all(len(run.pandas(q.name)) > 0 for q in queries)


def test_result_size_mb_counts_values(spark, favorita):
    q = Query("q", ("family",), (count(),))
    plan = favorita.engine.compile([q])
    run = favorita.engine.run(spark, favorita.relations, plan)
    n_rows = len(run.pandas("q"))
    mb = result_size_mb(run)
    assert abs(mb - n_rows * 2 * 8 / 2**20) < 1e-9


def _shared_views(plan):
    """Internal views read by two or more views."""
    readers = Counter(w for v in plan.views for w in v.incoming)
    return [v for v in plan.views if readers[v.vid] >= 2]


def test_run_persists_nothing(spark, favorita, monkeypatch):
    """Every view is collected by its own job and internal views come back
    as local frames: ``run`` never persists a DataFrame."""
    plan = favorita.engine.compile(build_workload(favorita.spec, "cm"))
    assert _shared_views(plan)
    persisted = []
    persist = DataFrame.persist

    def spy(df, *args, **kwargs):
        persisted.append(tuple(df.columns))
        return persist(df, *args, **kwargs)

    monkeypatch.setattr(DataFrame, "persist", spy)
    favorita.engine.run(spark, favorita.relations, plan)
    assert persisted == []


@pytest.mark.parametrize("failure", ["missing_attribute", "job_error"])
def test_failed_run_releases_cached_views(spark, favorita, failure):
    """A run that fails in a view above some shared views, by a missing
    column or by a job that raises, leaves the persistent-RDD count as it
    found it."""
    plan = favorita.engine.compile(build_workload(favorita.spec, "cm"))
    # the first view grouped by family sits at a higher level than a shared view
    first_family_wave = min(
        plan.grouping.level_of[v.vid] for v in plan.views if "family" in v.group_by
    )
    assert any(
        plan.grouping.level_of[v.vid] < first_family_wave for v in _shared_views(plan)
    )
    items = favorita.relations["Items"]
    if failure == "missing_attribute":
        items = items.drop("family")
    else:
        items = items.withColumn(
            "family", F.expr("CAST(raise_error('injected failure') AS INT)")
        )
    relations = {**favorita.relations, "Items": items}
    jsc = spark.sparkContext._jsc.sc()
    before = jsc.getPersistentRDDs().size()
    with pytest.raises(Exception):
        favorita.engine.run(spark, relations, plan)
    assert jsc.getPersistentRDDs().size() == before


def _upstream(plan):
    """Each view's transitive incoming views."""
    up: dict[int, set[int]] = {}
    for v in plan.views:
        up[v.vid] = set(v.incoming).union(*(up[w] for w in v.incoming))
    return up


def _record_schedule(monkeypatch, slow=None):
    """Record ``("build", vid)`` when a view's plan build starts and
    ``("collected", vid)`` when its collect returns; view ``slow``'s build
    first sleeps 1.5 s."""
    events, frames = [], {}
    view_df = executor._view_df

    def build(view, *args):
        events.append(("build", view.vid))
        if view.vid == slow:
            time.sleep(1.5)
        df = view_df(view, *args)
        frames[id(df)] = (view.vid, df)
        return df

    def collecting(method):
        def spy(df, *args, **kwargs):
            out = method(df, *args, **kwargs)
            if id(df) in frames:
                events.append(("collected", frames[id(df)][0]))
            return out

        return spy

    monkeypatch.setattr(executor, "_view_df", build)
    monkeypatch.setattr(DataFrame, "toArrow", collecting(DataFrame.toArrow))
    return events


def test_view_built_after_its_incoming_views_are_collected(
    spark, favorita, monkeypatch
):
    """Every view's plan is built only after the collect of each of its
    incoming views has returned, and every view is built and collected once."""
    plan = favorita.engine.compile(build_workload(favorita.spec, "cm"))
    events = _record_schedule(monkeypatch)
    favorita.engine.run(spark, favorita.relations, plan, parallel=True)
    pos = {e: i for i, e in enumerate(events)}
    assert len(pos) == len(events) == 2 * len(plan.views)
    for v in plan.views:
        for w in v.incoming:
            assert pos[("collected", w)] < pos[("build", v.vid)], (w, v.vid)


def test_view_does_not_wait_on_views_it_does_not_read(spark, favorita, monkeypatch):
    """A higher-level view that does not read a slow level-0 view starts
    before that view is collected: no barrier between levels."""
    plan = favorita.engine.compile(build_workload(favorita.spec, "cm"))
    up = _upstream(plan)
    workers = spark.sparkContext.defaultParallelism

    def blocked_before(slow, target):
        """Views submitted before ``target`` that wait on ``slow``, which
        hold a worker until ``slow`` is collected."""
        return sum(1 for v in plan.views if v.vid < target.vid and slow.vid in up[v.vid])

    pairs = [
        (slow, target)
        for slow in plan.views
        if not slow.incoming
        for target in plan.views
        if target.incoming and slow.vid not in up[target.vid]
    ]
    slow, target = min(pairs, key=lambda p: blocked_before(*p))
    if blocked_before(slow, target) > workers - 2:
        pytest.skip(f"{workers} workers cannot run a view beside the slow one")
    events = _record_schedule(monkeypatch, slow=slow.vid)
    favorita.engine.run(spark, favorita.relations, plan, parallel=True)
    assert events.index(("build", target.vid)) < events.index(("collected", slow.vid))


@pytest.mark.parametrize("parallel", [True, False])
def test_failed_view_stops_its_readers(spark, favorita, monkeypatch, parallel):
    """The first failed view is re-raised; none of its transitive readers
    builds a plan, and no persisted RDD is left behind."""
    plan = favorita.engine.compile(build_workload(favorita.spec, "cm"))
    up = _upstream(plan)
    readers = {
        v.vid: {r for r, ins in up.items() if v.vid in ins} for v in plan.views
    }
    failing = max(
        (v for v in plan.views if not v.is_query), key=lambda v: len(readers[v.vid])
    )
    assert readers[failing.vid]
    built = []
    view_df = executor._view_df

    def build(view, *args):
        built.append(view.vid)
        df = view_df(view, *args)
        if view.vid == failing.vid:
            df = df.withColumn(
                df.columns[-1], F.expr("CAST(raise_error('injected failure') AS DOUBLE)")
            )
        return df

    monkeypatch.setattr(executor, "_view_df", build)
    jsc = spark.sparkContext._jsc.sc()
    before = jsc.getPersistentRDDs().size()
    with pytest.raises(Exception, match="injected failure"):
        favorita.engine.run(spark, favorita.relations, plan, parallel=parallel)
    assert failing.vid in built
    assert not readers[failing.vid] & set(built)
    assert jsc.getPersistentRDDs().size() == before


def test_fmt_table_alignment():
    from repro.harness import fmt_table

    s = fmt_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.123}])
    lines = s.splitlines()
    assert len(lines) == 4
    assert all(len(line) == len(lines[0]) for line in lines)
    assert "0.12" in s  # float formatting
