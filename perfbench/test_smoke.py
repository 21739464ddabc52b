"""Smoke test of the benchmark itself, on tiny inputs (a few minutes).

    python3 -m pytest perfbench/test_smoke.py -q

Checks that BENCHMARK.json and the benchmark agree on every metric name and
unit, that each workload emits exactly those metrics in both modes, and that
the correctness check fails on a deliberately corrupted result.
"""
from __future__ import annotations

import json

import pandas as pd
import pytest

import run

run.use_checkout()

import check  # noqa: E402
from workloads import SMOKE, WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _table(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_benchmark_json_matches_the_benchmark():
    assert _table("end_to_end") == run.END_TO_END
    assert _table("per_layer") == run.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        n: w.why for n, w in WORKLOADS.items()
    }


def test_frame_check_trips_on_a_changed_value():
    exp = {"q": pd.DataFrame({"g": [1, 2], "cnt": [3.0, 4.0]})}
    assert check.batch_mismatches({"q": exp["q"].iloc[::-1]}, exp) == []
    bad = exp["q"].copy()
    bad.loc[1, "cnt"] = 4.5
    assert check.batch_mismatches({"q": bad}, exp)
    assert check.batch_mismatches({}, exp)


def test_tree_check_trips_on_a_different_split():
    from repro.apps.dtree import DecisionTree, Node

    root = Node(0, (), 0, split=("price", "<=", 1.5))
    root.left, root.right = Node(1, (), 1), Node(2, (), 1)
    tree = DecisionTree(root, "regression", "units")
    cart = [
        {"path": "", "split": ("price", "<=", 1.5)},
        {"path": "L", "split": None},
        {"path": "R", "split": None},
    ]
    assert check.tree_mismatches(tree, cart) == []
    cart[0]["split"] = ("price", "<=", 2.5)
    assert check.tree_mismatches(tree, cart)


@pytest.fixture(scope="module")
def spark(tmp_path_factory):
    session, spark_s = run._timed(run.start_spark, tmp_path_factory.mktemp("spark"))
    yield session, spark_s
    run.stop_spark(session)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(spark, name, trace):
    """The untraced rt-retailer run also alters one collected value, which
    the check must catch."""
    session, spark_s = spark
    corrupt = name == "rt-retailer" and not trace
    result, report = run.run_workload(
        session, spark_s, WORKLOADS[name], seed=3, seconds=0, trace=bool(trace),
        scale=SMOKE, corrupt=corrupt,
    )
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] == 1
    if corrupt:
        assert (result["correct"], result["failed"]) == (False, 1)
        assert report["mismatches"]
    else:
        assert (result["correct"], result["failed"]) == (True, 0), report["mismatches"]
    table = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == table
    json.dumps(result, allow_nan=False)
    if trace:
        assert result["metrics"]["executor.jobs"]["value"] > 0
        assert result["metrics"]["executor.leaked_rdds"]["value"] == 0
