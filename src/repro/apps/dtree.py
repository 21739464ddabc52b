"""CART decision trees over LMFAO aggregate batches (paper §2, queries (8)-(10)).

Each tree node is learned from one aggregate batch over the *input database*
(never the materialized join): for regression, COUNT / SUM(y) / SUM(y^2)
under the node's context conjunction times each candidate split condition;
for classification, per-class counts. Candidate conditions are Kronecker
deltas — the paper's *dynamic functions*: they change every iteration, so
the plan is re-compiled per tree level (LMFAO recompiles and dynamically
links a small C++ file; we re-run the logical layers, Catalyst re-plans).

All nodes of a level are batched together: one LMFAO run per level, exactly
the paper's iterative CART driver.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.core.engine import LMFAO
from repro.core.expr import Factor, Product, SumProduct, delta, power
from repro.core.query import Query


@dataclass
class Node:
    """One tree node: the conjunction of delta conditions on the path to it."""

    nid: int
    conds: tuple[Factor, ...]
    depth: int
    n: float = 0.0
    prediction: float | int | None = None
    split: tuple[str, str, object] | None = None  # (attr, op, value)
    left: "Node | None" = None  # split condition true
    right: "Node | None" = None

    def is_leaf(self) -> bool:
        return self.split is None


@dataclass
class DecisionTree:
    """A learned CART tree plus the config needed to apply it."""

    root: Node
    kind: str  # 'regression' | 'classification'
    label: str
    nodes: list[Node] = field(default_factory=list)

    def predict(self, pdf: pd.DataFrame) -> np.ndarray:
        out = np.empty(len(pdf), dtype=float)
        self._apply(self.root, pdf, np.ones(len(pdf), dtype=bool), out)
        return out

    def _apply(self, node: Node, pdf: pd.DataFrame, mask: np.ndarray, out) -> None:
        if node.is_leaf():
            out[mask] = node.prediction
            return
        attr, op, val = node.split
        cond = delta(attr, op, val).to_numpy(pdf).astype(bool)
        self._apply(node.left, pdf, mask & cond, out)
        self._apply(node.right, pdf, mask & ~cond, out)

    def n_nodes(self) -> int:
        return len(self.nodes)


def node_queries(
    node: Node,
    cont: tuple[str, ...],
    cats: tuple[str, ...],
    label: str,
    thresholds: dict[str, list[float]],
    kind: str,
) -> list[Query]:
    """The aggregate batch for a single tree node (paper (8)-(10)).

    Regression: a scalar query with the node totals plus 3 aggregates per
    (continuous attr, threshold), and one group-by query per categorical
    attr. Classification: the same shapes grouped by the label.
    """
    ctx = node.conds
    qs: list[Query] = []
    if kind == "regression":
        aggs: list[SumProduct] = [
            SumProduct((Product(ctx),)),
            SumProduct((Product(ctx + (Factor("id", (label,)),)),)),
            SumProduct((Product(ctx + (power(label, 2),)),)),
        ]
        names = ["cnt", "s", "ss"]
        for a in cont:
            for ti, t in enumerate(thresholds[a]):
                d = (delta(a, "<=", t),)
                aggs += [
                    SumProduct((Product(ctx + d),)),
                    SumProduct((Product(ctx + d + (Factor("id", (label,)),)),)),
                    SumProduct((Product(ctx + d + (power(label, 2),)),)),
                ]
                names += [f"cnt_{a}_{ti}", f"s_{a}_{ti}", f"ss_{a}_{ti}"]
        qs.append(Query(f"n{node.nid}_num", (), tuple(aggs), tuple(names)))
        for c in cats:
            qs.append(
                Query(
                    f"n{node.nid}_cat__{c}",
                    (c,),
                    (
                        SumProduct((Product(ctx),)),
                        SumProduct((Product(ctx + (Factor("id", (label,)),)),)),
                        SumProduct((Product(ctx + (power(label, 2),)),)),
                    ),
                    ("cnt", "s", "ss"),
                )
            )
    else:
        aggs = [SumProduct((Product(ctx),))]
        names = ["cnt"]
        for a in cont:
            for ti, t in enumerate(thresholds[a]):
                aggs.append(SumProduct((Product(ctx + (delta(a, "<=", t),)),)))
                names.append(f"cnt_{a}_{ti}")
        qs.append(Query(f"n{node.nid}_num", (label,), tuple(aggs), tuple(names)))
        for c in cats:
            qs.append(
                Query(
                    f"n{node.nid}_cat__{c}",
                    (c, label),
                    (SumProduct((Product(ctx),)),),
                    ("cnt",),
                )
            )
    return qs


def _variance(cnt: float, s: float, ss: float) -> float:
    if cnt <= 0:
        return 0.0
    return ss - s * s / cnt


def _gini_cost(class_counts: np.ndarray) -> float:
    n = class_counts.sum()
    if n <= 0:
        return 0.0
    return float(n * (1.0 - ((class_counts / n) ** 2).sum()))


def best_split_regression(
    node: Node,
    results: dict[str, pd.DataFrame],
    cont: tuple[str, ...],
    cats: tuple[str, ...],
    thresholds: dict[str, list[float]],
    min_leaf: int = 1,
):
    """Minimum-variance split from the node's aggregate results.

    Right-branch statistics are derived as node totals minus left totals —
    the reason a single one-sided delta per condition suffices.
    """
    num = results[f"n{node.nid}_num"].iloc[0]
    tot = (float(num["cnt"]), float(num["s"]), float(num["ss"]))
    best = None  # (cost, attr, op, value)
    for a in cont:
        for ti, t in enumerate(thresholds[a]):
            left = (
                float(num[f"cnt_{a}_{ti}"]),
                float(num[f"s_{a}_{ti}"]),
                float(num[f"ss_{a}_{ti}"]),
            )
            right = tuple(x - y for x, y in zip(tot, left))
            if left[0] < min_leaf or right[0] < min_leaf:
                continue
            cost = _variance(*left) + _variance(*right)
            if best is None or cost < best[0] - 1e-12:
                best = (cost, a, "<=", t, left)
    for c in cats:
        # sort by category so tie-breaking matches the single-machine oracle
        df = results[f"n{node.nid}_cat__{c}"].sort_values(c)
        # iterate columns (not iterrows) so int category codes stay ints
        for v, lc, ls, lss in zip(
            df[c].tolist(),
            df["cnt"].astype(float),
            df["s"].astype(float),
            df["ss"].astype(float),
        ):
            left = (float(lc), float(ls), float(lss))
            right = tuple(x - y for x, y in zip(tot, left))
            if left[0] < min_leaf or right[0] < min_leaf:
                continue
            cost = _variance(*left) + _variance(*right)
            if best is None or cost < best[0] - 1e-12:
                best = (cost, c, "==", v, left)
    return tot, best


def best_split_classification(
    node: Node,
    results: dict[str, pd.DataFrame],
    cont: tuple[str, ...],
    cats: tuple[str, ...],
    label: str,
    classes: list,
    thresholds: dict[str, list[float]],
    min_leaf: int = 1,
):
    """Minimum weighted-Gini split from per-class count aggregates."""
    num = results[f"n{node.nid}_num"]
    by_class = num.set_index(label)
    tot = np.array(
        [float(by_class["cnt"].get(k, 0.0)) for k in classes]
    )
    best = None
    for a in cont:
        for ti, t in enumerate(thresholds[a]):
            left = np.array(
                [float(by_class[f"cnt_{a}_{ti}"].get(k, 0.0)) for k in classes]
            )
            right = tot - left
            if left.sum() < min_leaf or right.sum() < min_leaf:
                continue
            cost = _gini_cost(left) + _gini_cost(right)
            if best is None or cost < best[0] - 1e-12:
                best = (cost, a, "<=", t, left)
    for c in cats:
        df = results[f"n{node.nid}_cat__{c}"]
        for v in sorted(df[c].unique()):
            sub = df[df[c] == v].set_index(label)["cnt"]
            left = np.array([float(sub.get(k, 0.0)) for k in classes])
            right = tot - left
            if left.sum() < min_leaf or right.sum() < min_leaf:
                continue
            cost = _gini_cost(left) + _gini_cost(right)
            if best is None or cost < best[0] - 1e-12:
                best = (cost, c, "==", v, left)
    return tot, best


def compute_thresholds(
    relations: dict[str, DataFrame],
    db,
    cont: tuple[str, ...],
    n_buckets: int = 20,
) -> dict[str, list[float]]:
    """Candidate split thresholds: ``n_buckets`` quantiles of each continuous
    attribute, computed on its home relation (the paper buckets continuous
    attributes into 20 buckets, provided as input to all systems)."""
    out: dict[str, list[float]] = {}
    for a in cont:
        home = db.relations_containing(a)[0]
        probs = [i / (n_buckets + 1) for i in range(1, n_buckets + 1)]
        qs = relations[home].approxQuantile(a, probs, 0.001)
        uniq = sorted(set(round(float(q), 6) for q in qs))
        out[a] = uniq
    return out


def learn_tree(
    spark: SparkSession,
    relations: dict[str, DataFrame],
    engine: LMFAO,
    *,
    cont: tuple[str, ...],
    cats: tuple[str, ...],
    label: str,
    kind: str = "regression",
    max_depth: int = 4,
    min_split: int = 1000,
    n_buckets: int = 20,
    thresholds: dict[str, list[float]] | None = None,
) -> DecisionTree:
    """The CART driver: one LMFAO batch per tree level over all open nodes."""
    db = engine.tree.db
    thresholds = thresholds or compute_thresholds(relations, db, cont, n_buckets)
    classes: list = []
    if kind == "classification":
        home = db.relations_containing(label)[0]
        classes = sorted(
            r[0] for r in relations[home].select(label).distinct().collect()
        )

    next_id = [0]

    def new_node(conds: tuple[Factor, ...], depth: int) -> Node:
        n = Node(next_id[0], conds, depth)
        next_id[0] += 1
        return n

    root = new_node((), 0)
    tree = DecisionTree(root, kind, label, [root])
    frontier = [root]
    for depth in range(max_depth):
        if not frontier:
            break
        batch: list[Query] = []
        for nd in frontier:
            batch += node_queries(nd, cont, cats, label, thresholds, kind)
        plan = engine.compile(batch)
        run = engine.run(spark, relations, plan)
        results = {q.name: run.pandas(q.name) for q in batch}
        run.cleanup()
        new_frontier: list[Node] = []
        for nd in frontier:
            if kind == "regression":
                (cnt, s, ss), best = best_split_regression(
                    nd, results, cont, cats, thresholds
                )
                nd.n = cnt
                nd.prediction = s / cnt if cnt > 0 else 0.0
            else:
                tot, best = best_split_classification(
                    nd, results, cont, cats, label, classes, thresholds
                )
                nd.n = float(tot.sum())
                nd.prediction = (
                    classes[int(np.argmax(tot))] if tot.sum() > 0 else classes[0]
                )
            if best is None or nd.n < min_split:
                continue
            _, attr, op, val, left_stats = best
            nd.split = (attr, op, val)
            neg_op = {"<=": ">", "==": "!="}[op]
            nd.left = new_node(nd.conds + (delta(attr, op, val),), depth + 1)
            nd.right = new_node(nd.conds + (delta(attr, neg_op, val),), depth + 1)
            # children get provisional stats from the split aggregates so the
            # deepest level (never re-batched) still predicts correctly
            if kind == "regression":
                lc, ls, _ = left_stats
                nd.left.n, nd.right.n = lc, cnt - lc
                nd.left.prediction = ls / lc if lc > 0 else nd.prediction
                nd.right.prediction = (
                    (s - ls) / (cnt - lc) if cnt - lc > 0 else nd.prediction
                )
            else:
                rstats = tot - left_stats
                nd.left.n, nd.right.n = float(left_stats.sum()), float(rstats.sum())
                nd.left.prediction = classes[int(np.argmax(left_stats))]
                nd.right.prediction = classes[int(np.argmax(rstats))]
            tree.nodes += [nd.left, nd.right]
            if depth < max_depth - 1:
                new_frontier += [nd.left, nd.right]
        frontier = new_frontier
    return tree
