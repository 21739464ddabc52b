"""Data cubes (paper §2, query (6)).

A d-dimensional cube over dimensions S with v measures is the union of 2^d
group-by aggregate queries, one per subset of S, each computing SUM of every
measure. ``assemble_cube`` renders the classic 1NF representation with the
special ALL value (we use -1, all dimension codes being non-negative ints).
"""
from __future__ import annotations

from itertools import combinations

import pandas as pd

from repro.core.expr import ident, sum_of
from repro.core.query import Query


def cube_queries(
    dims: tuple[str, ...], measures: tuple[str, ...]
) -> list[Query]:
    """2^d queries x v measures; names encode the grouping set."""
    queries: list[Query] = []
    aggs = tuple(sum_of(ident(m)) for m in measures)
    names = tuple(f"m{i}" for i in range(len(measures)))
    for k in range(len(dims) + 1):
        for subset in combinations(dims, k):
            qname = "cube__" + ("_".join(subset) if subset else "all")
            queries.append(Query(qname, subset, aggs, names))
    return queries


def assemble_cube(
    results: dict[str, pd.DataFrame],
    dims: tuple[str, ...],
    measures: tuple[str, ...],
) -> pd.DataFrame:
    """Union all grouping sets into one 1NF table with ALL = -1."""
    frames = []
    mcols = [f"m{i}" for i in range(len(measures))]
    for k in range(len(dims) + 1):
        for subset in combinations(dims, k):
            qname = "cube__" + ("_".join(subset) if subset else "all")
            df = results[qname].copy()
            for d in dims:
                if d not in subset:
                    df[d] = -1
            frames.append(df[list(dims) + mcols])
    return pd.concat(frames, ignore_index=True)
