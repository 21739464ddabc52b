"""Decision-tree tests: the LMFAO CART (aggregates over the input database)
must build the SAME tree as CART over the materialized join (pandas oracle),
for both regression (variance) and classification (gini) — the paper's
accuracy-parity claim for Tables 4-5."""
from __future__ import annotations

import numpy as np
import pytest

from repro.apps.dtree import Node, compute_thresholds, learn_tree, node_queries
from repro.baselines.ml_baselines import pandas_cart
from repro.core.expr import delta


def _baseline_paths(nodes: list[dict]) -> dict[str, tuple]:
    return {n["path"]: n["split"] for n in nodes}


CONFIGS = {  # (cont, cats, label, kind)
    "favorita": (("txns", "price"), ("promo", "family"), "units", "regression"),
    "retailer": (
        ("price", "mxtemp"), ("rain", "category"), "inventoryunits", "regression",
    ),
    "yelp": (("u_fans", "b_stars"), ("b_open", "u_elite"), "rstars", "regression"),
    "tpcds": (
        ("c_birth_year", "ss_quantity"), ("cd_gender", "cd_marital"), "c_preferred",
        "classification",
    ),
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_regression_tree_matches_pandas_cart(spark, data, name):
    """Split for split against pandas CART, for the regression trees and the
    (tpcds) classification tree."""
    bundle = data[name]
    cont, cats, label, kind = CONFIGS[name]
    thr = compute_thresholds(bundle.relations, bundle.spec.db, cont, 4)
    kw = dict(cont=cont, cats=cats, label=label, kind=kind,
              max_depth=2, min_split=30)
    dt = learn_tree(spark, bundle.relations, bundle.engine, thresholds=thr, **kw)
    bl = pandas_cart(bundle.joined, thresholds=thr, **kw)
    got, exp = dt.splits(), _baseline_paths(bl)
    assert set(got) == set(exp), "tree shapes differ"
    for path in exp:
        assert got[path] == exp[path], f"split at {path!r} differs"


def test_thresholds_match_per_attribute_quantiles(retailer):
    """One quantile job per home relation gives each continuous attribute the
    thresholds of its own single-column ``approxQuantile``."""
    spec, rels = retailer.spec, retailer.relations
    cont = spec.continuous_features()
    homes = [spec.db.relations_containing(a)[0] for a in cont]
    assert max(homes.count(h) for h in homes) > 1  # several per relation
    probs = [i / 5 for i in range(1, 5)]
    got = compute_thresholds(rels, spec.db, cont, 4)
    assert list(got) == list(cont)
    for a, home in zip(cont, homes):
        qs = rels[home].approxQuantile(a, probs, 0.001)
        assert got[a] == sorted(set(round(float(q), 6) for q in qs)), a


@pytest.mark.parametrize(
    "kind, moments",
    [("regression", ("cnt", "s", "ss")), ("classification", ("cnt",))],
)
def test_node_queries_layout(kind, moments):
    """The node batch (Table 2's RT row and both benchmark workloads): one
    numeric query and one query per categorical attr, classification adding
    the label to every group-by, and moments x (1 + thresholds) aggregates."""
    cont, cats, label = ("txns", "price"), ("promo", "family"), "units"
    thr = {"txns": [1.0, 2.0], "price": [0.5, 1.5, 2.5]}
    node = Node(4, (delta("promo", "==", 1), delta("txns", ">", 1.0)), 2)
    qs = node_queries(node, cont, cats, label, thr, kind)
    by = (label,) if kind == "classification" else ()
    assert [(q.name, q.group_by) for q in qs] == [
        ("n4_num", by),
        ("n4_cat__promo", ("promo",) + by),
        ("n4_cat__family", ("family",) + by),
    ]
    suffixes = [""] + [f"_{a}_{ti}" for a in cont for ti in range(len(thr[a]))]
    assert qs[0].agg_names == tuple(m + sfx for sfx in suffixes for m in moments)
    assert qs[0].n_aggregates == len(moments) * (1 + 5)
    assert all(q.agg_names == moments for q in qs[1:])
    for q in qs:
        for agg in q.aggregates:
            (prod,) = agg.products
            assert set(node.conds) <= set(prod.factors)


def test_predictions_match_leaf_means(spark, favorita):
    cont, cats, label, _ = CONFIGS["favorita"]
    dt = learn_tree(
        spark, favorita.relations, favorita.engine,
        cont=cont, cats=cats, label=label, kind="regression",
        max_depth=2, min_split=30,
        thresholds=compute_thresholds(favorita.relations, favorita.spec.db, cont, 4),
    )
    pdf = favorita.joined
    pred = dt.predict(pdf)
    # group rows by predicted leaf value; each group's label mean must equal
    # the prediction (leaf prediction == mean of its fragment)
    for v in np.unique(pred):
        frag = pdf[pred == v][label].to_numpy(dtype=float)
        assert abs(frag.mean() - v) < 1e-9


def test_tree_respects_max_depth_and_node_budget(spark, favorita):
    cont, cats, label, _ = CONFIGS["favorita"]
    thr = compute_thresholds(favorita.relations, favorita.spec.db, cont, 3)
    for depth, max_nodes in [(1, 3), (2, 7), (3, 15)]:
        dt = learn_tree(
            spark, favorita.relations, favorita.engine,
            cont=cont, cats=cats, label=label, kind="regression",
            max_depth=depth, min_split=10, thresholds=thr,
        )
        assert dt.n_nodes() <= max_nodes


def test_min_split_prunes(spark, favorita):
    cont, cats, label, _ = CONFIGS["favorita"]
    dt = learn_tree(
        spark, favorita.relations, favorita.engine,
        cont=cont, cats=cats, label=label, kind="regression",
        max_depth=3, min_split=10**9,
        thresholds=compute_thresholds(favorita.relations, favorita.spec.db, cont, 3),
    )
    assert dt.n_nodes() == 1  # nothing is splittable


def test_classification_prediction_accuracy_vs_baseline(spark, data):
    """Predicted classes must coincide with the pandas tree's predictions."""
    bundle = data["tpcds"]
    cont = ("c_birth_year",)
    cats = ("cd_marital",)
    label = "c_preferred"
    thr = compute_thresholds(bundle.relations, bundle.spec.db, cont, 3)
    kw = dict(cont=cont, cats=cats, label=label, kind="classification",
              max_depth=2, min_split=30)
    dt = learn_tree(spark, bundle.relations, bundle.engine, thresholds=thr, **kw)
    pred = dt.predict(bundle.joined)
    acc = (pred == bundle.joined[label].to_numpy()).mean()
    # tree must beat always-majority baseline or match it
    maj = bundle.joined[label].value_counts(normalize=True).max()
    assert acc >= maj - 1e-9


def test_variance_identity():
    from repro.apps.dtree import _variance

    rng = np.random.default_rng(0)
    x = rng.normal(3, 2, 100)
    v = _variance(len(x), x.sum(), (x**2).sum())
    assert abs(v - ((x - x.mean()) ** 2).sum()) < 1e-8


def test_gini_identity():
    from repro.apps.dtree import _gini_cost

    counts = np.array([30.0, 10.0, 60.0])
    n = counts.sum()
    expected = n * (1 - ((counts / n) ** 2).sum())
    assert abs(_gini_cost(counts) - expected) < 1e-12
    assert _gini_cost(np.zeros(3)) == 0.0
