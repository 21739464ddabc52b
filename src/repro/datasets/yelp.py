"""Yelp dataset (paper §A), synthetic stand-in.

Star schema with many-to-many joins: Review (fact) ⋈ User, Business;
Business ⋈ Category, Attribute, where a business has *several* categories
and attributes. The defining property (paper §4.1): the join result is an
order of magnitude larger than the input database (theirs: 8.7M tuples →
360M join tuples), so avoiding join materialization dominates. Our fan-out
is ~2×3 ≈ 6-8× per review.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.core.schema import Attribute as A
from repro.core.schema import Database, Relation
from repro.datasets.common import DatasetSpec, dim_size, rng

_DB = Database(
    [
        Relation(
            "Review",
            (
                A("user_id", "key"),
                A("business_id", "key"),
                A("rstars", "cont"),
                A("ruseful", "cont"),
                A("ryear", "cat"),
            ),
        ),
        Relation(
            "User",
            (
                A("user_id", "key"),
                A("u_reviews", "cont"),
                A("u_avgstars", "cont"),
                A("u_fans", "cont"),
                A("u_elite", "cat"),
            ),
        ),
        Relation(
            "Business",
            (
                A("business_id", "key"),
                A("b_stars", "cont"),
                A("b_reviews", "cont"),
                A("b_open", "cat"),
                A("b_city", "cat"),
                A("b_state", "cat"),
            ),
        ),
        Relation("Category", (A("business_id", "key"), A("cat_id", "cat"))),
        Relation(
            "Attribute",
            (A("business_id", "key"), A("attr_id", "cat"), A("attr_val", "cat")),
        ),
    ]
)

_EDGES = [
    ("Review", "User"),
    ("Review", "Business"),
    ("Business", "Category"),
    ("Business", "Attribute"),
]


def _generate(sf: float, seed: int) -> dict[str, pd.DataFrame]:
    n_fact = max(200, int(600_000 * sf))
    n_users = dim_size(20_000, sf, 50)
    n_biz = dim_size(4_000, sf, 25)
    g = rng(seed + 200)

    users = np.arange(1, n_users + 1)
    biz = np.arange(1, n_biz + 1)

    # Review skew: a few power users / hot businesses.
    wu = 1.0 / np.arange(1, n_users + 1) ** 0.8
    wu /= wu.sum()
    wb = 1.0 / np.arange(1, n_biz + 1) ** 0.9
    wb /= wb.sum()
    review = pd.DataFrame(
        {
            "user_id": g.choice(users, n_fact, p=wu),
            "business_id": g.choice(biz, n_fact, p=wb),
            "rstars": g.integers(1, 6, n_fact).astype(float),
            "ruseful": g.poisson(1.5, n_fact).astype(float),
            "ryear": g.integers(2005, 2018, n_fact),
        }
    )
    user = pd.DataFrame(
        {
            "user_id": users,
            "u_reviews": g.poisson(30, n_users).astype(float),
            "u_avgstars": (1 + 4 * g.random(n_users)).round(2),
            "u_fans": g.poisson(3, n_users).astype(float),
            "u_elite": (g.random(n_users) < 0.1).astype(np.int64),
        }
    )
    business = pd.DataFrame(
        {
            "business_id": biz,
            "b_stars": (1 + 4 * g.random(n_biz)).round(1),
            "b_reviews": g.poisson(120, n_biz).astype(float),
            "b_open": (g.random(n_biz) < 0.85).astype(np.int64),
            "b_city": g.integers(0, 20, n_biz),
            "b_state": g.integers(0, 8, n_biz),
        }
    )
    # Many-to-many: 1-3 categories, 1-4 attributes per business.
    n_cat_rows = g.integers(1, 4, n_biz)
    category = pd.DataFrame(
        {
            "business_id": np.repeat(biz, n_cat_rows),
            "cat_id": g.integers(0, 25, int(n_cat_rows.sum())),
        }
    )
    n_attr_rows = g.integers(1, 5, n_biz)
    attribute = pd.DataFrame(
        {
            "business_id": np.repeat(biz, n_attr_rows),
            "attr_id": g.integers(0, 15, int(n_attr_rows.sum())),
            "attr_val": g.integers(0, 2, int(n_attr_rows.sum())),
        }
    )
    return {
        "Review": review,
        "User": user,
        "Business": business,
        "Category": category,
        "Attribute": attribute,
    }


YELP = DatasetSpec(
    name="yelp",
    db=_DB,
    edges=_EDGES,
    fact="Review",
    generate_pandas=_generate,
    label="rstars",
    date_attr=None,
    cm_cats=("ryear", "u_elite", "b_open", "b_city", "cat_id"),
    mi_attrs=("ryear", "u_elite", "b_open", "b_city", "b_state", "cat_id"),
    cube_dims=("b_city", "cat_id", "b_open"),
    cube_measures=("rstars", "ruseful", "u_fans", "b_stars", "b_reviews"),
)
