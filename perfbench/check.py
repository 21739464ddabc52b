"""Correctness checks run after each pass, outside the timed region."""
from __future__ import annotations

import pandas as pd

from repro.oracle import _canon


def frame_mismatch(got: pd.DataFrame, expected: pd.DataFrame) -> str | None:
    """None if the frames agree under the oracle's canonical form, else why."""
    if set(got.columns) != set(expected.columns):
        return f"columns {sorted(got.columns)} != {sorted(expected.columns)}"
    try:
        pd.testing.assert_frame_equal(_canon(got), _canon(expected), check_dtype=False)
    except AssertionError as e:
        return str(e).splitlines()[0]
    return None


def batch_mismatches(got: dict, expected: dict) -> list[str]:
    """Every query of ``expected`` must be present in ``got`` and agree."""
    out = []
    for name, exp in expected.items():
        if name not in got:
            out.append(f"{name}: not collected")
        elif (why := frame_mismatch(got[name], exp)) is not None:
            out.append(f"{name}: {why}")
    return out


def tree_splits(tree) -> dict[str, object]:
    """Split of every node of an ``apps.dtree.DecisionTree``, keyed by path
    ("" root, then "L"/"R" per level), as ``pandas_cart`` reports them."""
    got: dict[str, object] = {}

    def rec(node, path):
        got[path] = node.split
        if node.split is not None:
            rec(node.left, path + "L")
            rec(node.right, path + "R")

    rec(tree.root, "")
    return got


def tree_mismatches(tree, cart_nodes: list[dict]) -> list[str]:
    got = tree_splits(tree)
    exp = {n["path"]: n["split"] for n in cart_nodes}
    return [
        f"node {p or 'root'}: {got.get(p)} != {exp.get(p)}"
        for p in sorted(set(got) | set(exp))
        if got.get(p) != exp.get(p)
    ]
