"""CART decision trees over LMFAO aggregate batches (paper §2, queries (8)-(10)).

Each tree node is learned from one aggregate batch over the *input database*
(never the materialized join): the split criterion's moments under the
node's context conjunction times each candidate split condition. Candidate
conditions are Kronecker deltas — the paper's *dynamic functions*: they
change every iteration, so the plan is re-compiled per tree level (LMFAO
recompiles and dynamically links a small C++ file; we re-run the logical
layers, Catalyst re-plans).

The criterion (``Variance`` or ``Gini``) is all that differs between
regression and classification, as in PLANET and Spark MLlib's trees. All
nodes of a level are batched together: one LMFAO run per level, exactly the
paper's iterative CART driver.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

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

    def splits(self) -> dict[str, tuple[str, str, object] | None]:
        """Split of every node keyed by its path: ``""`` for the root, then
        ``"L"``/``"R"`` per level (``None`` at a leaf), the form in which
        ``pandas_cart`` reports its nodes."""
        out: dict[str, tuple[str, str, object] | None] = {}

        def rec(node: Node, path: str) -> None:
            out[path] = node.split
            if node.split is not None:
                rec(node.left, path + "L")
                rec(node.right, path + "R")

        rec(self.root, "")
        return out


def _variance(cnt: float, s: float, ss: float) -> float:
    if cnt <= 0:
        return 0.0
    return ss - s * s / cnt


def _gini_cost(class_counts: np.ndarray) -> float:
    n = class_counts.sum()
    if n <= 0:
        return 0.0
    return float(n * (1.0 - ((class_counts / n) ** 2).sum()))


@dataclass(frozen=True)
class Variance:
    """Regression criterion: COUNT, SUM(y) and SUM(y^2) per side; the cost is
    the sum of squared deviations, the prediction the mean."""

    label: str
    names = ("cnt", "s", "ss")
    group_by = ()

    @property
    def moments(self) -> tuple[tuple[Factor, ...], ...]:
        return ((), (Factor("id", (self.label,)),), (power(self.label, 2),))

    def bind(self, relations: dict[str, DataFrame], db) -> "Variance":
        return self

    def stats(self, frame: pd.DataFrame, suffix: str) -> np.ndarray:
        return np.array([frame[n + suffix].iat[0] for n in self.names], dtype=float)

    def size(self, st: np.ndarray) -> float:
        return float(st[0])

    def cost(self, st: np.ndarray) -> float:
        return _variance(*st)

    def predict(self, st: np.ndarray) -> float:
        return st[1] / st[0] if st[0] > 0 else 0.0


@dataclass(frozen=True)
class Gini:
    """Classification criterion: one COUNT per class (the batch groups by the
    label); the cost is the weighted Gini impurity, the prediction the
    majority class."""

    label: str
    classes: tuple = ()
    names = ("cnt",)
    moments = ((),)

    @property
    def group_by(self) -> tuple[str, ...]:
        return (self.label,)

    def bind(self, relations: dict[str, DataFrame], db) -> "Gini":
        """The classes are the label's distinct values on its home relation."""
        home = db.relations_containing(self.label)[0]
        rows = relations[home].select(self.label).distinct().collect()
        return replace(self, classes=tuple(sorted(r[0] for r in rows)))

    def stats(self, frame: pd.DataFrame, suffix: str) -> np.ndarray:
        counts = frame["cnt" + suffix].tolist()
        by_class = dict(zip(frame[self.label].tolist(), counts))
        return np.array([by_class.get(k, 0.0) for k in self.classes], dtype=float)

    def size(self, st: np.ndarray) -> float:
        return float(st.sum())

    cost = staticmethod(_gini_cost)

    def predict(self, st: np.ndarray):
        return self.classes[int(np.argmax(st))] if st.sum() > 0 else self.classes[0]


CRITERIA = {"regression": Variance, "classification": Gini}


def node_queries(
    node: Node,
    cont: tuple[str, ...],
    cats: tuple[str, ...],
    label: str,
    thresholds: dict[str, list[float]],
    kind: str,
) -> list[Query]:
    """The aggregate batch for a single tree node (paper (8)-(10)): the
    criterion's moments for the node totals and per (continuous attr,
    threshold) delta, and per categorical attr grouped by it as well."""
    crit = CRITERIA[kind](label)

    def aggs(conds: tuple[Factor, ...]) -> list[SumProduct]:
        return [SumProduct((Product(node.conds + conds + m),)) for m in crit.moments]

    num, names = aggs(()), list(crit.names)
    for a in cont:
        for ti, t in enumerate(thresholds[a]):
            num += aggs((delta(a, "<=", t),))
            names += [f"{n}_{a}_{ti}" for n in crit.names]
    qs = [Query(f"n{node.nid}_num", crit.group_by, tuple(num), tuple(names))]
    for c in cats:
        by = (c,) + crit.group_by
        qs.append(Query(f"n{node.nid}_cat__{c}", by, tuple(aggs(())), crit.names))
    return qs


def best_split(
    node: Node,
    results: dict[str, pd.DataFrame],
    cont: tuple[str, ...],
    cats: tuple[str, ...],
    thresholds: dict[str, list[float]],
    crit: Variance | Gini,
):
    """The node's statistics and its minimum-cost split ``(cost, attr, op,
    value, left statistics)``, or None, trying candidates in ``pandas_cart``'s
    order; both sides of a split must be non-empty.

    Right-branch statistics are derived as node totals minus left totals —
    the reason a single one-sided delta per condition suffices.
    """
    num = results[f"n{node.nid}_num"]
    tot = crit.stats(num, "")
    candidates = [
        (a, "<=", t, crit.stats(num, f"_{a}_{ti}"))
        for a in cont
        for ti, t in enumerate(thresholds[a])
    ]
    for c in cats:
        candidates += [
            (c, "==", v, crit.stats(rows, ""))
            for v, rows in results[f"n{node.nid}_cat__{c}"].groupby(c)
        ]
    best = None
    for attr, op, v, left in candidates:
        right = tot - left
        if crit.size(left) < 1 or crit.size(right) < 1:
            continue
        cost = crit.cost(left) + crit.cost(right)
        if best is None or cost < best[0] - 1e-12:
            best = (cost, attr, op, v, left)
    return tot, best


def compute_thresholds(
    relations: dict[str, DataFrame],
    db,
    cont: tuple[str, ...],
    n_buckets: int = 20,
) -> dict[str, list[float]]:
    """Candidate split thresholds: ``n_buckets`` quantiles of each continuous
    attribute, computed on its home relation (the paper buckets continuous
    attributes into 20 buckets, provided as input to all systems). One Spark
    job per home relation computes the quantiles of all its attributes."""
    probs = [i / (n_buckets + 1) for i in range(1, n_buckets + 1)]
    by_home: dict[str, list[str]] = {}
    for a in cont:
        by_home.setdefault(db.relations_containing(a)[0], []).append(a)
    qs: dict[str, list[float]] = {}
    for home, attrs in by_home.items():
        qs.update(zip(attrs, relations[home].approxQuantile(attrs, probs, 0.001)))
    return {a: sorted(set(round(float(q), 6) for q in qs[a])) for a in cont}


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
    thresholds: dict[str, list[float]],
) -> DecisionTree:
    """The CART driver: one LMFAO batch per tree level over all open nodes."""
    crit = CRITERIA[kind](label).bind(relations, engine.tree.db)

    ids = itertools.count()
    root = Node(next(ids), (), 0)
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
        new_frontier: list[Node] = []
        for nd in frontier:
            tot, best = best_split(nd, results, cont, cats, thresholds, crit)
            nd.n, nd.prediction = crit.size(tot), crit.predict(tot)
            if best is None or nd.n < min_split:
                continue
            _, attr, op, val, left = best
            nd.split = (attr, op, val)
            neg_op = {"<=": ">", "==": "!="}[op]
            nd.left = Node(next(ids), nd.conds + (delta(attr, op, val),), depth + 1)
            nd.right = Node(next(ids), nd.conds + (delta(attr, neg_op, val),), depth + 1)
            # children get provisional stats from the split aggregates so the
            # deepest level (never re-batched) still predicts correctly
            for child, st in ((nd.left, left), (nd.right, tot - left)):
                child.n, child.prediction = crit.size(st), crit.predict(st)
            tree.nodes += [nd.left, nd.right]
            if depth < max_depth - 1:
                new_frontier += [nd.left, nd.right]
        frontier = new_frontier
    return tree
