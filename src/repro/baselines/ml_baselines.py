"""Materialize-then-learn baselines (paper §4.2 competitors).

These reproduce the *structure-agnostic* pipeline: (1) materialize the
training dataset as the join of the input relations (the step LMFAO avoids),
(2) learn over the flat matrix.

- :func:`materialize_join` — the PSQL "Join"/"Join Export" step (Spark join +
  export to pandas).
- :func:`gd_epochs` — full-batch gradient-descent epochs over the
  materialized one-hot matrix (TensorFlow LinearRegressor proxy: cost scales
  with |join| per epoch).
- :func:`closed_form_materialized` — normal equations over the materialized
  matrix (MADlib OLS proxy).
- :func:`pandas_cart` — CART where every node's statistics come from scans
  of the materialized dataset (TensorFlow BoostedTrees / MADlib DT proxy);
  algorithmically identical to ``apps.dtree`` so trees must agree.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.join_tree import JoinTree


def materialize_join(
    spark: SparkSession,
    relations: dict[str, DataFrame],
    tree: JoinTree,
    root: str,
) -> DataFrame:
    """The full natural join (training-dataset materialization), joined
    outward from ``root``."""
    order = tree.bfs_order(root)
    df = relations[order[0]]
    for name in order[1:]:
        keys = sorted(
            set(c for c in relations[name].columns if c in df.columns)
        )
        df = df.join(relations[name], on=keys, how="inner")
    return df


def one_hot(
    pdf: pd.DataFrame,
    cont: tuple[str, ...],
    cats: tuple[str, ...],
    label: str,
    cat_values: dict[str, list] | None = None,
) -> tuple[np.ndarray, np.ndarray, dict[str, list]]:
    """Design matrix [intercept | cont | one-hot cats], label vector, and the
    category dictionary used (reused for test data)."""
    if cat_values is None:
        cat_values = {c: sorted(pdf[c].unique().tolist()) for c in cats}
    cols = [np.ones(len(pdf))]
    for a in cont:
        if a != label:
            cols.append(pdf[a].to_numpy(dtype=float))
    for c in cats:
        arr = pdf[c].to_numpy()
        for v in cat_values[c]:
            cols.append((arr == v).astype(float))
    X = np.column_stack(cols)
    y = pdf[label].to_numpy(dtype=float)
    return X, y, cat_values


def gd_epochs(
    X: np.ndarray,
    y: np.ndarray,
    *,
    lambda_: float = 1e-3,
    epochs: int = 1,
) -> np.ndarray:
    """Full-batch gradient descent over the materialized matrix. One epoch =
    one full pass over the training data (the unit the paper times for
    TensorFlow)."""
    n, p = X.shape
    theta = np.zeros(p)
    # stable step from the covariance spectral norm estimate
    lr = 1.0 / (np.linalg.norm(X, ord="fro") ** 2 / n + lambda_)
    for _ in range(epochs):
        grad = X.T @ (X @ theta - y) / n + lambda_ * theta
        theta -= lr * grad
    return theta


def closed_form_materialized(
    X: np.ndarray, y: np.ndarray, *, lambda_: float = 1e-3
) -> np.ndarray:
    """Ridge normal equations computed from the materialized matrix."""
    n, p = X.shape
    return np.linalg.solve(X.T @ X / n + lambda_ * np.eye(p), X.T @ y / n)


def rmse(X: np.ndarray, y: np.ndarray, theta: np.ndarray) -> float:
    return float(np.sqrt(np.mean((X @ theta - y) ** 2)))


# ---------------------------------------------------------------------------
# CART over the materialized dataset
# ---------------------------------------------------------------------------
def pandas_cart(
    pdf: pd.DataFrame,
    *,
    cont: tuple[str, ...],
    cats: tuple[str, ...],
    label: str,
    kind: str = "regression",
    max_depth: int = 4,
    min_split: int = 1000,
    thresholds: dict[str, list[float]],
) -> list[dict]:
    """CART over the flat dataset; returns the nodes as dicts with the same
    split semantics as apps.dtree (used both as the timing baseline and as
    the correctness oracle for the LMFAO tree). ``thresholds`` are the
    candidate splits per continuous attribute, as given to the LMFAO tree."""
    classes = sorted(pdf[label].unique().tolist()) if kind == "classification" else []
    y = pdf[label].to_numpy(dtype=float)
    nodes: list[dict] = []

    def variance(mask: np.ndarray) -> float:
        s = y[mask]
        if len(s) == 0:
            return 0.0
        return float((s**2).sum() - s.sum() ** 2 / len(s))

    def gini(mask: np.ndarray) -> float:
        s = y[mask]
        n = len(s)
        if n == 0:
            return 0.0
        _, counts = np.unique(s, return_counts=True)
        return float(n * (1.0 - ((counts / n) ** 2).sum()))

    cost_fn = variance if kind == "regression" else gini

    def predict(mask: np.ndarray):
        s = y[mask]
        if len(s) == 0:
            return 0.0
        if kind == "regression":
            return float(s.mean())
        vals, counts = np.unique(s, return_counts=True)
        return vals[int(np.argmax(counts))]

    def rec(mask: np.ndarray, depth: int, path: str) -> None:
        node = {
            "path": path,
            "n": int(mask.sum()),
            "prediction": predict(mask),
            "split": None,
        }
        nodes.append(node)
        if depth >= max_depth or mask.sum() < min_split:
            return
        best = None
        for a in cont:
            col = pdf[a].to_numpy(dtype=float)
            for t in thresholds[a]:
                left = mask & (col <= t)
                right = mask & ~(col <= t)
                if left.sum() < 1 or right.sum() < 1:
                    continue
                cost = cost_fn(left) + cost_fn(right)
                if best is None or cost < best[0] - 1e-12:
                    best = (cost, a, "<=", t)
        for c in cats:
            col = pdf[c].to_numpy()
            for v in sorted(pd.unique(col[mask])):
                left = mask & (col == v)
                right = mask & ~(col == v)
                if left.sum() < 1 or right.sum() < 1:
                    continue
                cost = cost_fn(left) + cost_fn(right)
                if best is None or cost < best[0] - 1e-12:
                    best = (cost, c, "==", v)
        if best is None:
            return
        _, attr, op, val = best
        node["split"] = (attr, op, val)
        col = pdf[attr].to_numpy()
        cond = (col <= val) if op == "<=" else (col == val)
        rec(mask & cond, depth + 1, path + "L")
        rec(mask & ~cond, depth + 1, path + "R")

    rec(np.ones(len(pdf), dtype=bool), 0, "")
    return nodes
