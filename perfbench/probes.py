"""Outside-in probes: a span tracer, a timing proxy of the LMFAO engine, and
readers of Spark's own bookkeeping (job intervals, cached RDDs).

Nothing here reaches into the engine's internals. The proxy only wraps the
public ``LMFAO.compile/run`` and ``RunResult.pandas/cleanup`` calls, and the
Spark readers go through the status store and storage info that Spark keeps
for its UI.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float  # perf_counter seconds
    end: float
    parent: int | None
    pass_id: int | None
    sid: int

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; ``span()`` nests through an explicit stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.pass_id: int | None = None
        # perf_counter -> epoch seconds, to line spans up with Spark's clock
        self.epoch_offset = time.time() - time.perf_counter()

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.pass_id, sid))
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid].end = time.perf_counter()
        self._stack.pop()

    def span(self, name: str):
        return _SpanCtx(self, name)

    def of_pass(self, pass_id: int, name: str | None = None) -> list[Span]:
        return [
            s for s in self.spans
            if s.pass_id == pass_id and (name is None or s.name == name)
        ]

    def self_seconds(self, pass_id: int | None = None) -> dict[str, float]:
        """Per layer name: span time not covered by the span's children."""
        kids: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                kids.setdefault(s.parent, []).append(s)
        out: dict[str, float] = {}
        for s in self.spans:
            if pass_id is not None and s.pass_id != pass_id:
                continue
            covered = union_seconds([(c.start, c.end) for c in kids.get(s.sid, [])])
            out[s.name] = out.get(s.name, 0.0) + s.dur - covered
        return out

    def dump(self) -> list[dict]:
        return [
            {
                "id": s.sid,
                "name": s.name,
                "start_epoch_s": s.start + self.epoch_offset,
                "end_epoch_s": s.end + self.epoch_offset,
                "parent": s.parent,
                "pass": s.pass_id,
            }
            for s in self.spans
        ]


class _SpanCtx:
    __slots__ = ("tracer", "name", "sid")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.sid = self.tracer.begin(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.end(self.sid)
        return False


def span_cost_seconds(n: int = 20000) -> float:
    """Cost of recording one span, measured on a throwaway tracer."""
    t = Tracer()
    t0 = time.perf_counter()
    for _ in range(n):
        with t.span("x"):
            pass
    return (time.perf_counter() - t0) / n


def union_seconds(intervals) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


# ---------------------------------------------------------------------------
# The engine proxy
# ---------------------------------------------------------------------------
@dataclass
class Batch:
    """One compile/run/collect round seen through the proxy."""

    queries: list
    plan: object = None
    results: dict = field(default_factory=dict)
    cached_rdds: int = 0
    cached_mb: float = 0.0
    leaked_rdds: int = 0


class EngineProbe:
    """Stands in for an ``LMFAO`` object: records each batch it compiles and
    the frames collected from it and, when given a tracer, times every call.

    ``spark_state`` (a :class:`SparkState`) adds the cached-RDD and leak
    readings after ``run`` and ``cleanup``; their cost is kept in
    ``probe_s`` so it can be reported as tracing overhead.
    """

    def __init__(self, engine, tracer: Tracer | None = None, spark_state=None):
        self._engine = engine
        self._tracer = tracer
        self._spark = spark_state
        self.batches: list[Batch] = []
        self.probe_s = 0.0

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def compile(self, queries, *args, **kwargs):
        self.batches.append(Batch(list(queries)))
        if self._tracer is None:
            plan = self._engine.compile(queries, *args, **kwargs)
        else:
            with self._tracer.span("engine.compile"):
                plan = self._engine.compile(queries, *args, **kwargs)
        self.batches[-1].plan = plan
        return plan

    def run(self, *args, **kwargs):
        batch = self.batches[-1]
        if self._tracer is None:
            return ResultProbe(self._engine.run(*args, **kwargs), batch, None, None, self)
        with self._tracer.span("engine.run"):
            result = self._engine.run(*args, **kwargs)
        if self._spark is not None:
            t0 = time.perf_counter()
            batch.cached_rdds, batch.cached_mb = self._spark.new_cached()
            self.probe_s += time.perf_counter() - t0
        return ResultProbe(result, batch, self._tracer, self._spark, self)


class ResultProbe:
    """Stands in for a ``RunResult``; keeps every frame it hands out."""

    def __init__(self, result, batch: Batch, tracer, spark_state, owner: EngineProbe):
        self._result = result
        self._batch = batch
        self._tracer = tracer
        self._spark = spark_state
        self._owner = owner

    def __getattr__(self, name):
        return getattr(self._result, name)

    def pandas(self, query_name: str):
        if self._tracer is None:
            pdf = self._result.pandas(query_name)
        else:
            with self._tracer.span("result.pandas"):
                pdf = self._result.pandas(query_name)
        self._batch.results[query_name] = pdf
        return pdf

    def cleanup(self) -> None:
        if self._tracer is None:
            self._result.cleanup()
            return
        with self._tracer.span("result.cleanup"):
            self._result.cleanup()
        if self._spark is not None:
            t0 = time.perf_counter()
            self._batch.leaked_rdds = self._spark.persistent_rdds() - self._spark.base_persistent
            self._owner.probe_s += time.perf_counter() - t0


# ---------------------------------------------------------------------------
# Spark's own bookkeeping, read through py4j
# ---------------------------------------------------------------------------
@dataclass
class Job:
    job_id: int
    submitted: float  # epoch seconds
    completed: float
    tasks: int


class SparkState:
    """Reads jobs from the status store and RDDs from the block manager.

    ``mark_baseline()`` records what the dataset itself keeps cached, so
    later readings count only what the engine added.
    """

    def __init__(self, spark) -> None:
        self._sc = spark.sparkContext._jsc.sc()
        self._last_job = -1
        self.base_rdd_ids: set[int] = set()
        self.base_persistent = 0

    def mark_baseline(self) -> None:
        self.base_rdd_ids = {int(i.id()) for i in self._sc.getRDDStorageInfo()}
        self.base_persistent = self.persistent_rdds()
        self.new_jobs()  # skip everything before the first pass

    def persistent_rdds(self) -> int:
        return int(self._sc.getPersistentRDDs().size())

    def new_cached(self) -> tuple[int, float]:
        """RDDs the engine holds cached right now, and their size in MiB."""
        n, size = 0, 0
        for info in self._sc.getRDDStorageInfo():
            if int(info.id()) not in self.base_rdd_ids:
                n += 1
                size += int(info.memSize()) + int(info.diskSize())
        return n, size / 2**20

    def new_jobs(self) -> list[Job]:
        """Jobs finished since the previous call, with their intervals."""
        self._sc.listenerBus().waitUntilEmpty()
        seq = self._sc.statusStore().jobsList(None)
        out = []
        for i in range(seq.size()):
            j = seq.apply(i)
            jid = int(j.jobId())
            if jid <= self._last_job:
                continue
            sub, done = j.submissionTime(), j.completionTime()
            out.append(
                Job(
                    jid,
                    sub.get().getTime() / 1000 if sub.isDefined() else 0.0,
                    done.get().getTime() / 1000 if done.isDefined() else 0.0,
                    int(j.numTasks()),
                )
            )
        if out:
            self._last_job = max(j.job_id for j in out)
        return sorted(out, key=lambda j: j.job_id)
