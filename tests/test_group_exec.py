"""Group Views layer + executor invariants: groups contain independent views
out of one node, waves respect dependencies, and the Table-2 stats hold
together."""
from __future__ import annotations

import pytest

from repro.core.expr import count, ident, sum_of
from repro.core.group import group_views
from repro.core.query import Query
from repro.core.views import ViewDef, ViewRegistry, decompose_query
from repro.oracle import assert_frames_agree
from repro.workloads import build_workload


def _plan(bundle, queries):
    return bundle.engine.compile(queries)


def test_groups_partition_views(favorita):
    plan = _plan(
        favorita,
        [
            Query("a", ("family",), (count(),)),
            Query("b", ("city",), (sum_of(ident("units")),)),
            Query("c", (), (sum_of(ident("price")),)),
        ],
    )
    g = plan.grouping
    flat = [vid for grp in g.groups for vid in grp]
    assert sorted(flat) == [v.vid for v in plan.views]


def test_group_members_share_source_and_are_independent(favorita):
    plan = _plan(favorita, build_workload(favorita.spec, "mi"))
    views = {v.vid: v for v in plan.views}
    # transitive dependency closure
    deps: dict[int, set[int]] = {}
    for v in plan.views:
        d = set(v.incoming)
        for w in v.incoming:
            d |= deps[w]
        deps[v.vid] = d
    for gi, grp in enumerate(plan.grouping.groups):
        srcs = {views[vid].source for vid in grp}
        assert len(srcs) == 1, f"group {gi} spans nodes {srcs}"
        for vid in grp:
            assert not (deps[vid] & set(grp)), "dependency inside a group"


def test_waves_respect_dependencies(favorita):
    plan = _plan(favorita, build_workload(favorita.spec, "cm"))
    level = plan.grouping.level_of
    for v in plan.views:
        for w in v.incoming:
            assert level[w] < level[v.vid]


def test_group_count_much_smaller_than_view_count(favorita):
    plan = _plan(favorita, build_workload(favorita.spec, "cm"))
    s = plan.stats()
    assert s["G"] <= s["V"] + len(plan.queries)
    assert s["V"] < s["A"] * len(favorita.spec.tree().edges)


def test_out_of_order_views_rejected():
    bad = [
        ViewDef(0, "R", "S", (), (1,)),  # depends on a later view
        ViewDef(1, "R", None, (), ()),
    ]
    with pytest.raises(ValueError):
        group_views(bad)


def test_stats_shape_table2(favorita):
    """A/I/V/G have the Table-2 shape: batching turns A application
    aggregates into V << A*edges views carrying I shared intermediates."""
    for wl in ("cm", "mi", "dc"):
        plan = _plan(favorita, build_workload(favorita.spec, wl))
        s = plan.stats()
        assert s["A"] == sum(q.n_aggregates for q in plan.queries)
        assert s["V"] >= len(favorita.spec.tree().edges)
        assert s["I"] > 0
        assert s["G"] >= 1


def test_parallel_and_sequential_agree(spark, favorita):
    queries = build_workload(favorita.spec, "mi")
    plan = _plan(favorita, queries)
    seq = favorita.engine.run(spark, favorita.relations, plan, parallel=False)
    par = favorita.engine.run(spark, favorita.relations, plan, parallel=True)
    for q in queries:
        assert_frames_agree(par.pandas(q.name), seq.pandas(q.name))
