"""Experiment harness: builds every evaluation-table row (paper §4).

Each ``*_rows`` function measures one paper table and returns rows as
dicts; ``TABLES`` names each printed table, and ``jobs/run.py TABLE`` prints
it. Timing protocol:
relations are generated and cached (caches warmed by a count), then each
system is timed once on the warm cache — the analog of the paper's
warm-cache averaging, scaled to laptop runtimes.
"""
from __future__ import annotations

import os
import time
from contextlib import contextmanager

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.apps.covar import assemble_covar, covar_queries
from repro.apps.dtree import compute_thresholds, learn_tree
from repro.apps.linreg import learn_bgd
from repro.baselines.duckdb_batch import run_per_query_duckdb
from repro.baselines.ml_baselines import (
    closed_form_materialized,
    gd_epochs,
    materialize_join,
    one_hot,
    pandas_cart,
    rmse,
)
from repro.baselines.sql_batch import run_per_query_spark
from repro.core.engine import LMFAO, result_size_mb
from repro.core.join_tree import JoinTree
from repro.core.schema import Attribute, Database, Relation
from repro.datasets import all_datasets
from repro.datasets.common import DatasetSpec
from repro.workloads import WORKLOADS, build_workload

BENCH_SF = 0.05
BENCH_SEED = 0


def _driver_mem() -> str:
    """~75% of the memory the driver may use, for the Spark driver JVM.

    Precedence: SPARK_DRIVER_MEM env (explicit override) > the cgroup v2/v1
    limit, capped by physical memory > physical memory. spark.driver.memory
    is read at JVM launch, not from SparkConf, so it must be in
    PYSPARK_SUBMIT_ARGS before the first session starts.

    The cgroup read is best-effort: a container runtime's sysfs emulation
    (gVisor's, for one) may not pass the host limit through. An unbounded
    limit ("max", or cgroup-v1's ~9.2e18 sentinel) is above physical memory
    and so ignored, and the JVM is never handed an impossible heap.
    """
    if m := os.environ.get("SPARK_DRIVER_MEM"):
        return m
    limit = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    src = "physical"
    for p in (
        "/sys/fs/cgroup/memory.max",
        "/sys/fs/cgroup/memory/memory.limit_in_bytes",
    ):
        try:
            raw = open(p).read().strip()
            if int(raw) < limit:
                limit, src = int(raw), f"cgroup:{p}={raw}"
        except (OSError, ValueError):
            pass
    os.environ["_SPARK_DRIVER_MEM_SRC"] = src
    return f"{max(1, int(limit / (1 << 30) * 0.75))}g"


def make_spark(app: str = "repro-job") -> SparkSession:
    """The one local-mode session factory (jobs, tests and perfbench).

    Master and driver memory go into ``PYSPARK_SUBMIT_ARGS`` unless the
    caller set it already; the rest is per-session config.
    """
    if "PYSPARK_SUBMIT_ARGS" not in os.environ:
        os.environ["PYSPARK_SUBMIT_ARGS"] = (
            f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
            f"--driver-memory {_driver_mem()} "
            "--conf spark.driver.host=127.0.0.1 "
            "--conf spark.ui.enabled=false pyspark-shell"
        )
    spark = (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "8")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def load_dataset(
    spark: SparkSession, spec: DatasetSpec, sf: float, seed: int = BENCH_SEED
):
    """Generate, cache and warm one dataset; returns (relations, sizes)."""
    relations = {n: df.cache() for n, df in spec.generate(spark, sf=sf, seed=seed).items()}
    sizes = {n: df.count() for n, df in relations.items()}
    return relations, sizes


@contextmanager
def loaded(spark: SparkSession, spec: DatasetSpec, sf: float, seed: int = BENCH_SEED):
    """``load_dataset`` as a context: yields (relations, sizes) and unpersists
    every frame left in ``relations`` on exit, also when the body raises."""
    relations, sizes = load_dataset(spark, spec, sf, seed)
    try:
        yield relations, sizes
    finally:
        for df in relations.values():
            df.unpersist()


@contextmanager
def cached(df: DataFrame):
    """``df`` cached for the body; unpersisted on exit, also when the body
    raises."""
    df.cache()
    try:
        yield
    finally:
        df.unpersist()


@contextmanager
def timer():
    box = {}
    t0 = time.perf_counter()
    yield box
    box["s"] = time.perf_counter() - t0


def fmt_table(rows: list[dict]) -> str:
    """Render rows as a GitHub-markdown table."""
    if not rows:
        return "(no rows)"
    cols = list(rows[0])
    widths = {
        c: max(len(str(c)), *(len(_fmt(r.get(c))) for r in rows)) for c in cols
    }
    out = ["| " + " | ".join(str(c).ljust(widths[c]) for c in cols) + " |"]
    out.append("|" + "|".join("-" * (widths[c] + 2) for c in cols) + "|")
    for r in rows:
        out.append(
            "| " + " | ".join(_fmt(r.get(c)).ljust(widths[c]) for c in cols) + " |"
        )
    return "\n".join(out)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.2f}"
    return str(v)


def _pandas_relations(relations: dict[str, DataFrame]):
    return {n: df.toPandas() for n, df in relations.items()}


# ---------------------------------------------------------------------------
# Table 1 — dataset characteristics
# ---------------------------------------------------------------------------
def table1_rows(
    spark: SparkSession,
    sf: float = BENCH_SF,
    datasets: list[str] | None = None,
) -> list[dict]:
    rows = []
    for name in datasets or sorted(all_datasets()):
        spec = all_datasets()[name]
        with loaded(spark, spec, sf) as (relations, sizes):
            pdfs = _pandas_relations(relations)
            db_bytes = sum(
                p.memory_usage(index=False, deep=True).sum() for p in pdfs.values()
            )
            join_df = materialize_join(spark, relations, spec.tree(), spec.fact)
            join_tuples = join_df.count()
            join_cols = len(join_df.columns)
        rows.append(
            {
                "dataset": name,
                "tuples_db": sum(sizes.values()),
                "size_db_mb": db_bytes / 2**20,
                "tuples_join": join_tuples,
                "size_join_mb": join_tuples * join_cols * 8 / 2**20,
                "relations": len(spec.db.relations),
                "attributes": len(spec.db.attrs),
                "categorical": len(spec.db.attrs_of_kind("cat")),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Table 2 — aggregates / views / groups / output size per batch
# ---------------------------------------------------------------------------
def table2_rows(
    spark: SparkSession,
    sf: float = BENCH_SF,
    datasets: list[str] | None = None,
    workloads: tuple[str, ...] = ("cm", "rt", "mi", "dc"),
) -> list[dict]:
    rows = []
    for name in datasets or sorted(all_datasets()):
        spec = all_datasets()[name]
        with loaded(spark, spec, sf) as (relations, sizes):
            engine = LMFAO(spec.tree(), sizes)
            for wl in workloads:
                queries = build_workload(spec, wl, relations)
                plan = engine.compile(queries)
                size_mb = result_size_mb(engine.run(spark, relations, plan))
                s = plan.stats()
                rows.append(
                    {
                        "dataset": name,
                        "batch": wl.upper(),
                        "A": s["A"],
                        "I": s["I"],
                        "V": s["V"],
                        "G": s["G"],
                        "size_mb": size_mb,
                    }
                )
    return rows


# ---------------------------------------------------------------------------
# Table 3 — batch compute time: LMFAO vs per-query Spark vs per-query DuckDB
# ---------------------------------------------------------------------------
#: Cap on the number of single-aggregate Spark queries actually executed per
#: cell; the full-batch time is extrapolated from the measured per-query rate
#: and reported in a clearly-labelled column (no silent truncation).
SPARK_1AGG_CAP = 40


def _single_aggregate_queries(queries):
    """The batch re-expressed at one-query-per-aggregate granularity — the
    statement stream mainstream pipelines emit (each covar entry / cube cell
    its own SQL query), and the granularity at which the paper's unshared
    comparators fall orders of magnitude behind."""
    from repro.core.query import Query

    out = []
    for q in queries:
        for agg, aname in zip(q.aggregates, q.agg_names):
            out.append(Query(f"{q.name}__{aname}", q.group_by, (agg,), (aname,)))
    return out


def table3_rows(
    spark: SparkSession,
    sf: float = BENCH_SF,
    datasets: list[str] | None = None,
    workloads: tuple[str, ...] = WORKLOADS,
) -> list[dict]:
    rows = []
    for name in datasets or sorted(all_datasets()):
        spec = all_datasets()[name]
        with loaded(spark, spec, sf) as (relations, sizes):
            pdfs = _pandas_relations(relations)
            engine = LMFAO(spec.tree(), sizes)
            for wl in workloads:
                queries = build_workload(spec, wl, relations)
                row: dict = {"dataset": name, "batch": wl.upper(), "queries": len(queries)}
                with timer() as t:
                    plan = engine.compile(queries)
                    engine.run(spark, relations, plan)
                row["lmfao_s"] = t["s"]
                with timer() as t:
                    run_per_query_spark(spark, relations, spec.tree(), queries)
                row["spark_pq_s"] = t["s"]
                with timer() as t:
                    run_per_query_duckdb(pdfs, spec.tree(), queries)
                row["duckdb_pq_s"] = t["s"]
                singles = _single_aggregate_queries(queries)
                row["aggregates"] = len(singles)
                subset = singles[:SPARK_1AGG_CAP]
                with timer() as t:
                    run_per_query_spark(spark, relations, spec.tree(), subset)
                # measured subset, extrapolated to the full batch (labelled)
                row["spark_1agg_est_s"] = t["s"] / len(subset) * len(singles)
                if len(subset) < len(singles):
                    print(
                        f"[table3] {name}/{wl}: spark_1agg measured on "
                        f"{len(subset)}/{len(singles)} single-aggregate "
                        "queries; column is the extrapolated full-batch time"
                    )
                with timer() as t:
                    run_per_query_duckdb(pdfs, spec.tree(), singles)
                row["duckdb_1agg_s"] = t["s"]
                row["speedup_vs_spark"] = row["spark_pq_s"] / row["lmfao_s"]
                row["speedup_vs_spark_1agg"] = row["spark_1agg_est_s"] / row["lmfao_s"]
                rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Tables 4/5 — end-to-end model training
# ---------------------------------------------------------------------------
def _split_train(spark, spec, relations) -> pd.DataFrame:
    """Split the fact on trailing dates (paper §A). The cached train split
    takes the fact's place in ``relations`` (so the ``loaded`` context
    releases it); returns the materialized test join for accuracy
    evaluation."""
    full = relations[spec.fact]
    train_fact, test_fact = spec.split_fact(full, test_frac=0.1)
    test_rel = {**relations, spec.fact: test_fact}
    test_joined = materialize_join(spark, test_rel, spec.tree(), spec.fact).toPandas()
    relations[spec.fact] = train_fact.cache()
    full.unpersist()
    train_fact.count()
    return test_joined


def _batch_over_join(spark, spec, join_df, queries) -> dict:
    """The batch as per-query Spark SQL over the materialized join, read as
    one wide relation: no aggregate pushdown (the MLlib-style pipeline)."""
    rel = Relation(
        "joined_train", tuple(Attribute(c, spec.db.kind(c)) for c in join_df.columns)
    )
    tree = JoinTree(Database([rel]), [])
    return run_per_query_spark(spark, {rel.name: join_df}, tree, queries)


def linreg_rows(spark: SparkSession, name: str, sf: float = BENCH_SF) -> list[dict]:
    """Linear-regression block of Table 4 for one dataset."""
    spec = all_datasets()[name]
    with loaded(spark, spec, sf) as (train, sizes):
        test_joined = _split_train(spark, spec, train)
        cont = tuple(spec.db.attrs_of_kind("cont"))  # label included
        cats = spec.cm_cats
        label = spec.label
        rows = []

        # the materialization steps every structure-agnostic competitor needs
        with timer() as t_join:
            join_df = materialize_join(spark, train, spec.tree(), spec.fact)
            join_df.count()
        rows.append({"dataset": name, "system": "Join (Spark, PSQL proxy)", "time_s": t_join["s"], "rmse_test": float("nan")})
        with timer() as t_exp:
            train_pdf = join_df.toPandas()
        rows.append({"dataset": name, "system": "Join Export (toPandas)", "time_s": t_exp["s"], "rmse_test": float("nan")})

        # LMFAO: covar batch over the input database + BGD on the covar matrix
        engine = LMFAO(spec.tree(), sizes)
        with timer() as t_lmfao:
            queries = covar_queries(cont, cats)
            plan = engine.compile(queries)
            run = engine.run(spark, train, plan)
            results = {q.name: run.pandas(q.name) for q in queries}
            cm = assemble_covar(results, cont, cats, label)
            model = learn_bgd(cm, label)
        # one test design matrix, on the training categories, for every row
        Xt, yt, _ = one_hot(test_joined, cont, cats, label, cm.cat_values)
        rows.append({"dataset": name, "system": "LMFAO (covar + BGD)", "time_s": t_lmfao["s"], "rmse_test": model.rmse(Xt, yt)})

        # AC/DC proxy: LMFAO without sharing layers, same convergence
        acdc = LMFAO(spec.tree(), sizes, multi_root=False, merge_views=False)
        with timer() as t_acdc:
            plan = acdc.compile(queries)
            run = acdc.run(spark, train, plan, parallel=False)
            results = {q.name: run.pandas(q.name) for q in queries}
            cm2 = assemble_covar(results, cont, cats, label)
            m2 = learn_bgd(cm2, label)
        rows.append({"dataset": name, "system": "AC/DC proxy (no sharing)", "time_s": t_acdc["s"], "rmse_test": m2.rmse(Xt, yt)})

        # MLlib-style same-substrate baseline: Spark computes the same covar
        # batch over the MATERIALIZED join (single wide table), then BGD. This
        # is the apples-to-apples engine comparison: same Spark substrate, no
        # aggregate pushdown, materialization required.
        with cached(join_df):
            join_df.count()
            with timer() as t_mllib:
                res = _batch_over_join(spark, spec, join_df, queries)
                cm3 = assemble_covar(res, cont, cats, label)
                m3 = learn_bgd(cm3, label)
        rows.append(
            {
                "dataset": name,
                "system": "MLlib proxy (Spark over materialized join; + Join row)",
                "time_s": t_mllib["s"] + t_join["s"],
                "rmse_test": m3.rmse(Xt, yt),
            }
        )

        # TensorFlow proxy: 1 epoch of full-batch GD over the materialized join
        with timer() as t_tf:
            X, y, _ = one_hot(train_pdf, cont, cats, label, cm.cat_values)
            theta_tf = gd_epochs(X, y, epochs=1)
        rows.append({"dataset": name, "system": "TensorFlow proxy (1 epoch GD, materialized)", "time_s": t_tf["s"], "rmse_test": rmse(Xt, yt, theta_tf)})

        # MADlib proxy: closed-form OLS/ridge over the materialized join
        with timer() as t_ml:
            X, y, _ = one_hot(train_pdf, cont, cats, label, cm.cat_values)
            theta_ml = closed_form_materialized(X, y)
        rows.append({"dataset": name, "system": "MADlib proxy (closed form, materialized)", "time_s": t_ml["s"], "rmse_test": rmse(Xt, yt, theta_ml)})
    return rows


def tree_rows(
    spark: SparkSession,
    name: str,
    sf: float = BENCH_SF,
    *,
    kind: str,
    max_depth: int = 4,
    n_buckets: int = 20,
    min_split: int | None = None,
) -> list[dict]:
    """Decision-tree block of Table 4 (regression) / Table 5 (classification)."""
    spec = all_datasets()[name]
    with loaded(spark, spec, sf) as (train, sizes):
        test_joined = _split_train(spark, spec, train)
        cont = spec.continuous_features()
        cats = tuple(c for c in spec.cm_cats if c != spec.label)
        label = spec.label
        n_train = train[spec.fact].count()
        # paper uses 1000 over 84-125M-row facts; scale proportionally, floor 50
        min_split = min_split or max(50, int(n_train * 2e-3))
        thresholds = compute_thresholds(train, spec.db, cont, n_buckets)
        rows = []

        engine = LMFAO(spec.tree(), sizes)
        with timer() as t_lmfao:
            dt = learn_tree(
                spark, train, engine, cont=cont, cats=cats, label=label, kind=kind,
                max_depth=max_depth, min_split=min_split, thresholds=thresholds,
            )
        acc_l = _tree_accuracy(dt.predict(test_joined), test_joined[label], kind)
        rows.append({"dataset": name, "system": f"LMFAO ({dt.n_nodes()} nodes)", "time_s": t_lmfao["s"], "accuracy": acc_l})

        with timer() as t_join:
            join_df = materialize_join(spark, train, spec.tree(), spec.fact)
            train_pdf = join_df.toPandas()
        with timer() as t_bl:
            bl_nodes = pandas_cart(
                train_pdf, cont=cont, cats=cats, label=label, kind=kind,
                max_depth=max_depth, min_split=min_split, thresholds=thresholds,
            )
        cart_splits = {n["path"]: n["split"] for n in bl_nodes}
        rows.append(
            {
                "dataset": name,
                "system": f"materialize+pandas CART ({len(bl_nodes)} nodes, join+export {t_join['s']:.1f}s extra)",
                "time_s": t_bl["s"] + t_join["s"],
                "accuracy": acc_l if dt.splits() == cart_splits else float("nan"),
            }
        )
    return rows


def table4_linreg_rows(
    spark: SparkSession, sf: float = BENCH_SF, datasets: list[str] | None = None
) -> list[dict]:
    """Table 4's linear-regression blocks, Retailer and Favorita by default."""
    return [
        r for name in datasets or ["retailer", "favorita"]
        for r in linreg_rows(spark, name, sf)
    ]


def table4_tree_rows(
    spark: SparkSession, sf: float = BENCH_SF, datasets: list[str] | None = None
) -> list[dict]:
    """Table 4's regression-tree blocks, Retailer and Favorita by default."""
    return [
        r for name in datasets or ["retailer", "favorita"]
        for r in tree_rows(spark, name, sf, kind="regression")
    ]


def table5_rows(spark: SparkSession, sf: float = BENCH_SF) -> list[dict]:
    """Table 5: the classification tree over TPC-DS."""
    return tree_rows(spark, "tpcds", sf, kind="classification")


def _tree_accuracy(pred: np.ndarray, actual, kind: str) -> float:
    actual = np.asarray(actual, dtype=float)
    if kind == "regression":
        return float(np.sqrt(np.mean((pred - actual) ** 2)))  # RMSE
    return float((pred == actual).mean())  # accuracy


# ---------------------------------------------------------------------------
# Figure 5 (as a table) — layer ablation on the covar batch
# ---------------------------------------------------------------------------
def ablation_rows(
    spark: SparkSession,
    sf: float = BENCH_SF,
    datasets: list[str] | None = None,
) -> list[dict]:
    configs = [
        ("no sharing (AC/DC proxy)", dict(merge_views=False, multi_root=False), False),
        ("+ merge views (multi-output proxy)", dict(merge_views=True, multi_root=False), False),
        ("+ multi-root", dict(merge_views=True, multi_root=True), False),
        ("+ parallel groups", dict(merge_views=True, multi_root=True), True),
    ]
    rows = []
    for name in datasets or ["favorita", "retailer"]:
        spec = all_datasets()[name]
        queries = build_workload(spec, "cm")
        prev = None
        with loaded(spark, spec, sf) as (relations, sizes):
            for label, opts, parallel in configs:
                engine = LMFAO(spec.tree(), sizes, **opts)
                with timer() as t:
                    plan = engine.compile(queries)
                    engine.run(spark, relations, plan, parallel=parallel)
                s = plan.stats()
                rows.append(
                    {
                        "dataset": name,
                        "config": label,
                        "time_s": t["s"],
                        "V": s["V"],
                        "G": s["G"],
                        "speedup_vs_prev": (prev / t["s"]) if prev else 1.0,
                    }
                )
                prev = t["s"]
    return rows


# ---------------------------------------------------------------------------
# Scale trend — the mechanism behind Tables 4/5 (join result >> inputs)
# ---------------------------------------------------------------------------
def scale_trend_rows(
    spark: SparkSession,
    name: str = "yelp",
    sfs: tuple[float, ...] = (0.05, 0.2, 0.5),
) -> list[dict]:
    """Times the covar batch computed by LMFAO over the *input database* vs
    the same batch computed by per-query Spark over the *materialized join*
    (the MLlib-style pipeline, join+cache included). On Yelp the join fans
    out ~5x, so the materialize-first pipeline's cost grows faster with
    scale — the mechanism behind the paper's Table 4/5 orderings.
    """
    spec = all_datasets()[name]
    queries = covar_queries(tuple(spec.db.attrs_of_kind("cont")), spec.cm_cats)
    rows = []
    for sf in sfs:
        with loaded(spark, spec, sf) as (relations, sizes):
            engine = LMFAO(spec.tree(), sizes)
            with timer() as t_l:
                plan = engine.compile(queries)
                engine.run(spark, relations, plan)
            with timer() as t_m:
                join_df = materialize_join(spark, relations, spec.tree(), spec.fact)
                with cached(join_df):
                    n_join = join_df.count()
                    _batch_over_join(spark, spec, join_df, queries)
        rows.append(
            {
                "dataset": name,
                "sf": sf,
                "tuples_db": sum(sizes.values()),
                "tuples_join": n_join,
                "lmfao_s": t_l["s"],
                "materialize_then_spark_s": t_m["s"],
                "ratio": t_m["s"] / t_l["s"],
            }
        )
    return rows


#: Every printed table: name -> (title, row builder). ``jobs/run.py NAME``
#: passes ``--sf`` / ``--datasets`` only to a builder that takes them.
TABLES = {
    "table1": ("Table 1 — dataset characteristics (SF={sf})", table1_rows),
    "table2": ("Table 2 — batch statistics (SF={sf})", table2_rows),
    "table3": ("Table 3 — aggregate batch times (SF={sf})", table3_rows),
    "table4-linreg": ("Table 4 — linear regression (SF={sf})", table4_linreg_rows),
    "table4-tree": ("Table 4 — regression tree (SF={sf})", table4_tree_rows),
    "table5": ("Table 5 — classification tree, tpcds (SF={sf})", table5_rows),
    "ablation": (
        "Figure 5 (as table) — optimization-layer ablation, CM batch (SF={sf})",
        ablation_rows,
    ),
    "scale-trend": (
        "Scale trend — covar batch, LMFAO vs materialize-then-Spark (Yelp)",
        scale_trend_rows,
    ),
}
