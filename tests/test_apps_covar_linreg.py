"""Covar matrix + ridge regression tests: the LMFAO-computed Sigma must equal
X^T X of the materialized one-hot join, BGD must reach the closed-form
accuracy, and the closed form must match the materialized normal equations —
the accuracy protocol of the paper's Table 4."""
from __future__ import annotations

import numpy as np
import pytest

from repro.apps.covar import (
    assemble_covar,
    covar_queries,
    n_covar_aggregates,
)
from repro.apps.linreg import learn_bgd, learn_closed_form
from repro.baselines.ml_baselines import (
    closed_form_materialized,
    gd_epochs,
    one_hot,
    rmse,
)
from tests.conftest import run_batch

CONFIGS = {
    "favorita": (("txns", "price", "units"), ("promo", "family"), "units"),
    "retailer": (
        ("price", "mxtemp", "avghhi", "inventoryunits"),
        ("rain", "category"),
        "inventoryunits",
    ),
    "yelp": (
        ("u_fans", "b_stars", "rstars"),
        ("u_elite", "b_open"),
        "rstars",
    ),
    "tpcds": (
        ("ss_quantity", "i_price", "ss_sales"),
        ("cd_gender", "d_holiday"),
        "ss_sales",
    ),
}


@pytest.fixture(scope="module")
def covar_results(spark, data):
    out = {}
    for name, (cont, cats, label) in CONFIGS.items():
        bundle = data[name]
        results, plan = run_batch(spark, bundle, covar_queries(cont, cats))
        cm = assemble_covar(results, cont, cats, label)
        out[name] = (bundle, cont, cats, label, cm)
    return out


def test_query_count_formula():
    qs = covar_queries(("a", "b", "c"), ("x", "y", "z"))
    assert sum(q.n_aggregates for q in qs) == n_covar_aggregates(3, 3)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_sigma_equals_xtx(name, covar_results):
    """The assembled covar matrix == X^T X over the materialized join."""
    bundle, cont, cats, label, cm = covar_results[name]
    X, y, _ = one_hot(bundle.joined, cont, cats, label, cm.cat_values)
    M = np.column_stack([X, y])
    expected = M.T @ M
    scale = max(1.0, np.abs(expected).max())
    assert np.abs(cm.sigma - expected).max() / scale < 1e-9
    assert cm.n == len(bundle.joined)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_sigma_symmetric_psd(name, covar_results):
    *_, cm = covar_results[name]
    assert np.allclose(cm.sigma, cm.sigma.T)
    eig = np.linalg.eigvalsh(cm.sigma)
    assert eig.min() > -1e-6 * max(1.0, eig.max())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_closed_form_matches_materialized(name, covar_results):
    """LMFAO covar + normal equations == normal equations over the
    materialized training dataset (MADlib proxy)."""
    bundle, cont, cats, label, cm = covar_results[name]
    X, y, _ = one_hot(bundle.joined, cont, cats, label, cm.cat_values)
    m = learn_closed_form(cm, label, lambda_=1e-3)
    t = closed_form_materialized(X, y, lambda_=1e-3)
    assert np.abs(m.theta - t).max() < 1e-6 * max(1.0, np.abs(t).max())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_bgd_reaches_closed_form_accuracy(name, covar_results):
    bundle, cont, cats, label, cm = covar_results[name]
    X, y, _ = one_hot(bundle.joined, cont, cats, label, cm.cat_values)
    m_bgd = learn_bgd(cm, label, lambda_=1e-3)
    m_cf = learn_closed_form(cm, label, lambda_=1e-3)
    r_bgd, r_cf = m_bgd.rmse(X, y), m_cf.rmse(X, y)
    assert abs(r_bgd - r_cf) / max(r_cf, 1e-9) < 1e-3


def test_one_epoch_gd_worse_than_converged(covar_results):
    """TensorFlow-proxy sanity: one epoch of full-batch GD is far from the
    converged solution (why the paper reports it separately)."""
    bundle, cont, cats, label, cm = covar_results["favorita"]
    X, y, _ = one_hot(bundle.joined, cont, cats, label, cm.cat_values)
    t1 = gd_epochs(X, y, epochs=1)
    cf = closed_form_materialized(X, y)
    assert rmse(X, y, t1) >= rmse(X, y, cf) - 1e-12


def test_assemble_requires_label_in_cont(covar_results):
    bundle, cont, cats, label, cm = covar_results["favorita"]
    qs = covar_queries(cont, cats)
    with pytest.raises(AssertionError):
        assemble_covar({}, ("txns",), cats, "units")
