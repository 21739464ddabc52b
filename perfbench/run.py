"""LMFAO-on-Spark benchmark: one analyst, one LMFAO pass at a time.

Run from the repository root::

    python3 perfbench/run.py --workload rt-retailer --seed 1 --seconds 15 --trace 0

Each run is a closed loop in a single process. It starts Spark in local mode,
generates the workload's dataset from ``--seed``, prepares the batch and warms
up with one untimed pass of the workload, then runs passes back to back until
``--seconds`` have gone by (the last pass runs to its end); ``pass_s`` is
their median. Every pass is checked afterwards, outside the timed region,
against the per-query DuckDB result of the same batch (and, for the tree,
against pandas CART over the materialized join).

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` records a span around every public layer call, reads Spark's
job and storage bookkeeping, reports the per-layer metrics and writes the
spans to ``.perfbench/traces/``. The exit code is 0 only if every pass was
correct.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from probes import EngineProbe, SparkState, Tracer, span_cost_seconds, union_seconds

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"

CORES = min(4, os.cpu_count() or 1)
DRIVER_MEM = "2g"
# The JVM compiles with C1 only. With the default tiered JIT, passes keep
# getting faster for minutes (rt-retailer on 4 vCPUs: 14 s down to 10 s over
# six passes), so one timed pass lands somewhere on that curve. With C1 the
# second pass is already at the steady speed, at about the same wall time and
# with less CPU time, as no C2 compiler threads run.
JVM_OPTS = "-XX:-UsePerfData -XX:TieredStopAtLevel=1"

END_TO_END = {
    "pass_s": "s",
    "pass_cpu_s": "s",
    "setup_s": "s",
}
PER_LAYER = {
    "compile.s": "s",
    "roots.s": "s",
    "views.s": "s",
    "group.s": "s",
    "views.count": "count",
    "views.atoms": "count",
    "group.groups": "count",
    "group.waves": "count",
    "engine.aggregates": "count",
    "executor.s": "s",
    "executor.driver_s": "s",
    "executor.spark_busy_s": "s",
    "executor.jobs": "count",
    "executor.tasks": "count",
    "executor.jobs_per_view": "ratio",
    "executor.cached_rdds": "count",
    "executor.cached_mb": "MiB",
    "executor.leaked_rdds": "count",
    "collect.s": "s",
    "collect.jobs": "count",
    "collect.rows": "count",
    "cleanup.s": "s",
    "dtree.batches": "count",
    "dtree.aggregates": "count",
    "dtree.self_s": "s",
    "setup.spark_s": "s",
    "setup.data_s": "s",
    "setup.workload_s": "s",
    "setup.warmup_s": "s",
    "baseline.spark_pq_s": "s",
    "baseline.duckdb_pq_s": "s",
    "ratio.duckdb_pq": "ratio",
    "mem.peak_rss_mb": "MB",
    "mem.py_peak_mb": "MB",
    "mem.jvm_peak_mb": "MB",
    "trace.pass_s": "s",
    "trace.overhead_frac": "ratio",
}


def use_checkout() -> bool:
    """Put the checkout's ``src`` first on the import path; False if absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(src))
    return True


# ---------------------------------------------------------------------------
# Spark session lifetime
# ---------------------------------------------------------------------------
def start_spark(tmp: Path):
    """Local-mode session through the harness, with every temporary file
    (JVM temp dir, Spark local dirs, Python temp files) kept under ``tmp``."""
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    java_opts = f"-Djava.io.tmpdir={tmp} {JVM_OPTS}"
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master local[{CORES}] --driver-memory {DRIVER_MEM} "
        "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false "
        f"--driver-java-options {shlex.quote(java_opts)} pyspark-shell"
    )
    from repro.harness import make_spark

    return make_spark("perfbench")


def stop_spark(spark) -> None:
    """Stop the session, then the gateway JVM, and wait for it to exit."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway exits when its stdin closes
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def cpu_seconds(jvm_pid: int) -> float:
    """CPU time used so far by this process and the JVM, all threads."""
    fields = Path(f"/proc/{jvm_pid}/stat").read_text().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])  # utime, stime
    return time.process_time() + ticks / os.sysconf("SC_CLK_TCK")


def steal_seconds() -> float:
    """CPU time the hypervisor withheld from this machine's CPUs, all summed.

    Reported per pass in the run context: on a shared host, a pass that
    overlaps a period of steal takes longer in wall time but not in CPU time.
    """
    fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def settle(jvm_pid: int, limit_s: float = 2.0) -> None:
    """Wait, at most ``limit_s``, until this process and the JVM are idle.

    After a full GC, Spark's context cleaner spends a few hundred milliseconds
    unpersisting the previous pass's RDDs and deleting its shuffle files;
    a pass that started at once would share the CPUs with it.
    """
    window, idle_cores = 0.1, 0.2
    end = time.perf_counter() + limit_s
    before = cpu_seconds(jvm_pid)
    while time.perf_counter() < end:
        time.sleep(window)
        now = cpu_seconds(jvm_pid)
        if now - before < idle_cores * window:
            return
        before = now


def reset_peak_rss(pid: int) -> None:
    """Restart the process's peak-RSS mark (VmHWM) from its current RSS."""
    Path(f"/proc/{pid}/clear_refs").write_text("5")


def peak_rss_mb(pid: int) -> float:
    """Peak RSS (VmHWM) of a process since its last reset, in MB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    return 0.0


def spark_context(spark) -> dict:
    conf = spark.conf
    return {
        "master": spark.sparkContext.master,
        "default_parallelism": spark.sparkContext.defaultParallelism,
        "driver_memory": DRIVER_MEM,
        "jvm_options": JVM_OPTS,
        "shuffle_partitions": conf.get("spark.sql.shuffle.partitions"),
        "auto_broadcast_join_threshold": conf.get("spark.sql.autoBroadcastJoinThreshold"),
        "adaptive_enabled": conf.get("spark.sql.adaptive.enabled"),
        "arrow_enabled": conf.get("spark.sql.execution.arrow.pyspark.enabled"),
        "spark_version": spark.version,
    }


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------
@dataclass
class Ctx:
    """What set-up produced and the passes read."""

    spark: object
    spec: object
    relations: dict = field(default_factory=dict)
    sizes: dict = field(default_factory=dict)
    engine: object = None
    queries: list = field(default_factory=list)
    thresholds: dict = field(default_factory=dict)
    cart: list = field(default_factory=list)


@dataclass
class PassRecord:
    pass_id: int
    seconds: float
    cpu_seconds: float
    steal_seconds: float
    probe: object
    result: object
    error: str | None
    jobs: list = field(default_factory=list)
    mismatches: list = field(default_factory=list)


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def run_workload(
    spark, spark_s: float, wl, seed: int, seconds: float, trace: bool,
    scale, corrupt: bool = False,
) -> tuple[dict, dict]:
    """Set up, measure and check one workload; returns (result, report)."""
    from repro.baselines.duckdb_batch import run_per_query_duckdb
    from repro.baselines.sql_batch import run_per_query_spark
    from repro.core.engine import LMFAO
    from repro.datasets import all_datasets
    from repro.harness import load_dataset

    import check

    tracer = Tracer() if trace else None
    span = tracer.span if tracer else lambda name: nullcontext()

    # --- set-up: dataset, batch preparation, one warm-up pass -------------
    ctx = Ctx(spark, all_datasets()[wl.dataset])
    with span("setup.load_dataset"):
        (ctx.relations, ctx.sizes), data_s = _timed(
            load_dataset, spark, ctx.spec, scale.sf, seed
        )
    ctx.engine = LMFAO(ctx.spec.tree(), ctx.sizes)
    with span("setup.workload"):
        _, workload_s = _timed(wl.prepare, ctx)
    # A fresh JVM runs the first pass far slower than later ones, and by an
    # amount that varies from run to run; the warm-up pass takes that cost.
    with span("setup.warmup"):
        _, warmup_s = _timed(wl.one_pass, ctx, ctx.engine)
    state = SparkState(spark) if trace else None
    if state:
        state.mark_baseline()

    # --- measurement: closed loop of passes ------------------------------
    passes: list[PassRecord] = []
    jvm_pid = spark.sparkContext._jvm.java.lang.ProcessHandle.current().pid()
    for proc in (os.getpid(), jvm_pid):
        reset_peak_rss(proc)  # the peaks cover the passes only
    while True:
        pid = len(passes)
        probe = EngineProbe(ctx.engine, tracer, state)
        gc.collect()  # start every pass from a collected heap, on both sides
        spark.sparkContext._jvm.System.gc()
        settle(jvm_pid)
        if tracer:
            tracer.pass_id = pid
            sid = tracer.begin("pass")
        cpu0, steal0 = cpu_seconds(jvm_pid), steal_seconds()
        t0 = time.perf_counter()
        try:
            if tracer and wl.kind == "tree":
                with tracer.span("dtree.learn_tree"):
                    result = wl.one_pass(ctx, probe)
            else:
                result = wl.one_pass(ctx, probe)
            error = None
        except Exception as e:  # a failed pass is counted, not fatal
            result, error = None, f"{type(e).__name__}: {e}"
        elapsed = time.perf_counter() - t0
        cpu, steal = cpu_seconds(jvm_pid) - cpu0, steal_seconds() - steal0
        if tracer:
            tracer.end(sid)
            tracer.pass_id = None
        rec = PassRecord(pid, elapsed, cpu, steal, probe, result, error)
        if state:
            rec.jobs = state.new_jobs()
        passes.append(rec)
        if error is not None or sum(r.seconds for r in passes) >= seconds:
            break
    py_peak, jvm_peak = peak_rss_mb(os.getpid()), peak_rss_mb(jvm_pid)

    # --- reference results and baselines (untimed for the pass) ----------
    # the generator's own frames, the ones load_dataset handed to Spark
    pdfs = ctx.spec.generate_pandas(scale.sf, seed)
    tree = ctx.spec.tree()
    expected: dict = {}

    def reference(queries):
        key = tuple(queries)
        if key not in expected:
            expected[key] = run_per_query_duckdb(pdfs, tree, queries)
        return expected[key]

    ref_batches = next((p.probe.batches for p in passes if p.error is None), [])
    duck_s = []
    for _ in range(scale.duckdb_reps if trace else 1):
        t0 = time.perf_counter()
        for b in ref_batches:
            expected[tuple(b.queries)] = run_per_query_duckdb(pdfs, tree, b.queries)
        duck_s.append(time.perf_counter() - t0)
    duckdb_pq_s = statistics.median(duck_s) if ref_batches else float("nan")

    if corrupt and ref_batches and ref_batches[0].results:
        _corrupt_one_value(ref_batches[0].results)

    wl.prepare_oracle(ctx)
    for rec in passes:
        if rec.error is not None:
            rec.mismatches = [rec.error]
            continue
        for b in rec.probe.batches:
            rec.mismatches += check.batch_mismatches(b.results, reference(b.queries))
        rec.mismatches += wl.result_mismatches(ctx, rec.result)
    failed = sum(1 for r in passes if r.mismatches)

    pass_times = [r.seconds for r in passes]
    setup_s = spark_s + data_s + workload_s + warmup_s

    if not trace:
        metrics = {
            "pass_s": statistics.median(pass_times),
            "pass_cpu_s": statistics.median(r.cpu_seconds for r in passes),
            "setup_s": setup_s,
        }
        units = END_TO_END
    else:
        spark_pq_s = 0.0  # per-query Spark SQL runs on the batch workload only
        if ref_batches and wl.kind == "batch":
            with span("baseline.spark_pq"):
                t0 = time.perf_counter()
                for b in ref_batches:
                    run_per_query_spark(spark, ctx.relations, tree, b.queries)
                spark_pq_s = time.perf_counter() - t0
        span_cost = span_cost_seconds()
        per_pass = [
            _layer_metrics(rec, tracer, ctx, wl, span_cost)
            for rec in passes
            if rec.error is None
        ]
        metrics = {
            k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]
        } if per_pass else {}
        metrics.update(
            {
                "setup.spark_s": spark_s,
                "setup.data_s": data_s,
                "setup.workload_s": workload_s,
                "setup.warmup_s": warmup_s,
                "baseline.spark_pq_s": spark_pq_s,
                "baseline.duckdb_pq_s": duckdb_pq_s,
                "ratio.duckdb_pq": statistics.median(pass_times) / duckdb_pq_s,
                "mem.peak_rss_mb": py_peak + jvm_peak,
                "mem.py_peak_mb": py_peak,
                "mem.jvm_peak_mb": jvm_peak,
                "trace.pass_s": statistics.median(pass_times),
            }
        )
        units = PER_LAYER
    missing = set(units) - set(metrics)
    if missing and not failed:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")

    result = {
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {
            k: {"value": metrics[k], "unit": u} for k, u in units.items() if k in metrics
        },
    }
    report = {
        "workload": wl.name,
        "why": wl.why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "scale": {"sf": scale.sf, "n_buckets": wl.n_buckets},
        "nproc": os.cpu_count(),
        "spark": spark_context(spark),
        "python": platform.python_version(),
        "pass_s": [r.seconds for r in passes],
        "pass_steal_s": [r.steal_seconds for r in passes],
        "mismatches": {r.pass_id: r.mismatches[:5] for r in passes if r.mismatches},
    }
    if tracer:
        report["self_s"] = {r.pass_id: tracer.self_seconds(r.pass_id) for r in passes}
        report["spans"] = tracer.dump()
    return result, report


def _corrupt_one_value(results: dict) -> None:
    """Shift one aggregate of the first collected frame (smoke tests)."""
    name = next(iter(results))
    pdf = results[name].copy()
    col = pdf.select_dtypes("number").columns[-1]
    pdf.loc[pdf.index[0], col] = float(pdf[col].iloc[0]) * 1.5 + 1.0
    results[name] = pdf


def _layer_metrics(rec: PassRecord, tracer, ctx, wl, span_cost: float) -> dict:
    """Per-layer numbers of one traced pass."""
    from repro.core.group import group_views
    from repro.core.roots import choose_roots
    from repro.core.views import ViewRegistry, decompose_query

    off = tracer.epoch_offset
    slack = 0.002  # Spark stamps jobs in whole milliseconds

    def jobs_in(spans):
        out = []
        for j in rec.jobs:
            for s in spans:
                if s.start + off - slack <= j.submitted <= s.end + off + slack:
                    out.append((j, s))
                    break
        return out

    runs = tracer.of_pass(rec.pass_id, "engine.run")
    pulls = tracer.of_pass(rec.pass_id, "result.pandas")
    run_jobs = jobs_in(runs)
    busy = union_seconds(
        (max(j.submitted, s.start + off), min(j.completed, s.end + off))
        for j, s in run_jobs
    )
    executor_s = sum(s.dur for s in runs)

    # the compile layers, timed one by one from outside on the same batches
    m = dict.fromkeys(("roots.s", "views.s", "group.s"), 0.0)
    counts = dict.fromkeys(
        ("views.count", "views.atoms", "group.groups", "group.waves", "engine.aggregates"), 0
    )
    cached_rdds, cached_mb, leaked = 0, 0.0, 0
    engine = ctx.engine
    tracer.pass_id = rec.pass_id  # analysis spans carry the pass id too
    for b in rec.probe.batches:
        with tracer.span("compile.choose_roots"):
            roots, s = _timed(choose_roots, engine.tree, b.queries, engine.sizes)
        m["roots.s"] += s
        t0 = time.perf_counter()
        with tracer.span("compile.decompose_query"):
            reg = ViewRegistry()
            for q in b.queries:
                decompose_query(q, roots[q.name], engine.tree, reg)
        m["views.s"] += time.perf_counter() - t0
        with tracer.span("compile.group_views"):
            _, s = _timed(group_views, reg.views)
        m["group.s"] += s
        with tracer.span("plan.stats"):
            stats = b.plan.stats()
        counts["views.count"] += len(b.plan.views)
        counts["views.atoms"] += sum(len(v.atoms) for v in b.plan.views)
        counts["group.groups"] += b.plan.grouping.n_groups
        counts["group.waves"] += len(b.plan.grouping.waves)
        counts["engine.aggregates"] += stats["A"]
        cached_rdds += b.cached_rdds
        cached_mb += b.cached_mb
        leaked = max(leaked, b.leaked_rdds)

    tracer.pass_id = None
    n_jobs = len(run_jobs)
    whole = tracer.of_pass(rec.pass_id, "pass")[0]
    in_pass = [
        s for s in tracer.of_pass(rec.pass_id)
        if s.sid != whole.sid and whole.start <= s.start and s.end <= whole.end
    ]
    is_tree = wl.kind == "tree"
    m.update(counts)
    m.update(
        {
            "compile.s": sum(s.dur for s in tracer.of_pass(rec.pass_id, "engine.compile")),
            "executor.s": executor_s,
            "executor.driver_s": executor_s - busy,
            "executor.spark_busy_s": busy,
            "executor.jobs": n_jobs,
            "executor.tasks": sum(j.tasks for j, _ in run_jobs),
            "executor.jobs_per_view": n_jobs / max(1, counts["views.count"]),
            "executor.cached_rdds": cached_rdds,
            "executor.cached_mb": cached_mb,
            "executor.leaked_rdds": leaked,
            "collect.s": sum(s.dur for s in pulls),
            "collect.jobs": len(jobs_in(pulls)),
            "collect.rows": sum(len(df) for b in rec.probe.batches for df in b.results.values()),
            "cleanup.s": sum(s.dur for s in tracer.of_pass(rec.pass_id, "result.cleanup")),
            "dtree.batches": len(rec.probe.batches) if is_tree else 0,
            "dtree.aggregates": counts["engine.aggregates"] if is_tree else 0,
            "dtree.self_s": (
                tracer.self_seconds(rec.pass_id).get("dtree.learn_tree", 0.0) if is_tree else 0.0
            ),
            "trace.overhead_frac": (len(in_pass) * span_cost + rec.probe.probe_s) / rec.seconds,
        }
    )
    return m


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_checkout():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import FULL, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    tmp = WORK / f"tmp-{os.getpid()}"
    try:
        spark, spark_s = _timed(start_spark, tmp)
        try:
            result, report = run_workload(
                spark, spark_s, wl, args.seed, args.seconds, bool(args.trace), FULL
            )
        finally:
            stop_spark(spark)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if args.trace:
        out = WORK / "traces" / f"{wl.name}-seed{args.seed}.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps({"result": result, **report}, indent=1, default=str))
    report.pop("spans", None)
    print(json.dumps({"context": report}, default=str))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
