"""Covar-matrix aggregate batch (paper §2, queries (2)-(4)).

The non-centered covariance matrix over features X1..Xn (+intercept +label)
requires SUM(Xi*Xj) for continuous pairs, one group-by query per categorical
attribute (the one-hot interaction with every continuous attribute), and one
count query per categorical pair. We batch all same-group-by aggregates into
one Query; LMFAO counts each aggregate individually (Table 2's A).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.core.expr import SumProduct, count, ident, power, sum_of
from repro.core.query import Query


def covar_queries(
    cont: tuple[str, ...], cats: tuple[str, ...]
) -> list[Query]:
    """The covar batch: 1 scalar query + |cats| single-cat queries + C(|cats|,2)
    pair queries. Aggregate names encode the matrix cell they fill."""
    queries: list[Query] = []
    aggs: list[SumProduct] = [count()]
    names: list[str] = ["cnt"]
    for i, a in enumerate(cont):
        aggs.append(sum_of(ident(a)))
        names.append(f"s_{a}")
    for i, a in enumerate(cont):
        for b in cont[i:]:
            if a == b:
                aggs.append(sum_of(power(a, 2)))
            else:
                aggs.append(sum_of(ident(a), ident(b)))
            names.append(f"m_{a}__{b}")
    queries.append(Query("cm_num", (), tuple(aggs), tuple(names)))

    for c in cats:
        aggs = [count()] + [sum_of(ident(a)) for a in cont]
        names = ["cnt"] + [f"s_{a}" for a in cont]
        queries.append(Query(f"cm_cat__{c}", (c,), tuple(aggs), tuple(names)))

    for i, c1 in enumerate(cats):
        for c2 in cats[i + 1 :]:
            queries.append(Query(f"cm_pair__{c1}__{c2}", (c1, c2), (count(),)))
    return queries


def n_covar_aggregates(n_cont: int, n_cat: int) -> int:
    """Closed form for A of the covar batch (for Table 2 sanity checks)."""
    return (
        1
        + n_cont
        + n_cont * (n_cont + 1) // 2
        + n_cat * (1 + n_cont)
        + n_cat * (n_cat - 1) // 2
    )


@dataclass
class CovarMatrix:
    """The assembled one-hot covariance matrix.

    ``index`` maps feature -> column: 'intercept', each continuous attr by
    name, each categorical attr category as '<attr>=<value>', label last.
    ``sigma`` is the symmetric (p x p) matrix of SUM(Xi*Xj) over the join;
    ``n`` the join cardinality.
    """

    index: dict[str, int]
    sigma: np.ndarray
    n: float
    cat_values: dict[str, list]

    @property
    def p(self) -> int:
        return len(self.index)


def assemble_covar(
    results: dict[str, pd.DataFrame],
    cont: tuple[str, ...],
    cats: tuple[str, ...],
    label: str,
) -> CovarMatrix:
    """Build the full one-hot covar matrix from the batch results.

    ``cont`` must include the label. Categorical one-hot blocks: a category's
    interaction with itself is its count; with a different category of the
    same attribute it is 0; with a category of another attribute it is the
    pair-query count.
    """
    assert label in cont, "label must be among the continuous attrs"
    num = results["cm_num"].iloc[0]
    n = float(num["cnt"])

    cols: list[str] = ["intercept"] + [a for a in cont if a != label]
    cat_values: dict[str, list] = {}
    for c in cats:
        vals = sorted(results[f"cm_cat__{c}"][c].tolist())
        cat_values[c] = vals
        cols += [f"{c}={v}" for v in vals]
    cols.append(label)
    index = {name: i for i, name in enumerate(cols)}
    p = len(cols)
    sig = np.zeros((p, p))

    def put(i: int, j: int, v: float) -> None:
        sig[i, j] = v
        sig[j, i] = v

    # intercept/continuous block from the scalar query
    put(index["intercept"], index["intercept"], n)
    for a in cont:
        ia = index[a] if a != label else index[label]
        put(index["intercept"], ia, float(num[f"s_{a}"]))
    for i, a in enumerate(cont):
        for b in cont[i:]:
            put(index[a], index[b], float(num[f"m_{a}__{b}"]))

    # categorical x (intercept + continuous) — iterate columns, not iterrows,
    # so integer category codes are not upcast to float
    for c in cats:
        df = results[f"cm_cat__{c}"]
        keys = df[c].tolist()
        cnts = df["cnt"].astype(float).tolist()
        for r, (k, cntv) in enumerate(zip(keys, cnts)):
            ic = index[f"{c}={k}"]
            put(ic, ic, cntv)
            put(ic, index["intercept"], cntv)
            for a in cont:
                put(ic, index[a], float(df[f"s_{a}"].iloc[r]))

    # categorical x categorical (different attrs)
    for i, c1 in enumerate(cats):
        for c2 in cats[i + 1 :]:
            df = results[f"cm_pair__{c1}__{c2}"]
            for k1, k2, v in zip(
                df[c1].tolist(), df[c2].tolist(), df["agg0"].astype(float).tolist()
            ):
                put(index[f"{c1}={k1}"], index[f"{c2}={k2}"], v)
    return CovarMatrix(index, sig, n, cat_values)

