"""Favorita grocery-sales dataset (paper Fig. 3 / §A), synthetic stand-in.

Star schema with a chain: Sales (fact) ⋈ Items, Holiday, Transactions;
Transactions ⋈ Stores, Oil. 17 attributes — the paper's schema verbatim
(strings integer-coded). ~600k fact rows at SF=1.
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
            "Sales",
            (
                A("date", "key"),
                A("store", "key"),
                A("item", "key"),
                A("units", "cont"),
                A("promo", "cat"),
            ),
        ),
        Relation(
            "Transactions",
            (A("date", "key"), A("store", "key"), A("txns", "cont")),
        ),
        Relation(
            "Items",
            (
                A("item", "key"),
                A("family", "cat"),
                A("iclass", "cat"),
                A("perishable", "cat"),
            ),
        ),
        Relation(
            "Stores",
            (
                A("store", "key"),
                A("city", "cat"),
                A("state", "cat"),
                A("stype", "cat"),
                A("cluster", "cat"),
            ),
        ),
        Relation("Oil", (A("date", "key"), A("price", "cont"))),
        Relation(
            "Holiday",
            (
                A("date", "key"),
                A("htype", "cat"),
                A("locale", "cat"),
                A("transferred", "cat"),
            ),
        ),
    ]
)

_EDGES = [
    ("Sales", "Transactions"),
    ("Transactions", "Stores"),
    ("Transactions", "Oil"),
    ("Sales", "Holiday"),
    ("Sales", "Items"),
]


def _generate(sf: float, seed: int) -> dict[str, pd.DataFrame]:
    n_fact = max(200, int(600_000 * sf))
    n_dates = dim_size(400, sf, 30)
    n_stores = dim_size(54, sf, 6)
    n_items = dim_size(2000, sf, 40)
    g = rng(seed)

    dates = np.arange(1, n_dates + 1)
    stores = np.arange(1, n_stores + 1)
    items = np.arange(1, n_items + 1)

    # Item popularity is zipfian, like real grocery sales.
    w = 1.0 / np.arange(1, n_items + 1) ** 1.05
    w /= w.sum()
    sales = pd.DataFrame(
        {
            "date": g.integers(1, n_dates + 1, n_fact),
            "store": g.integers(1, n_stores + 1, n_fact),
            "item": g.choice(items, n_fact, p=w),
            "units": g.poisson(7.0, n_fact) + 1,
            "promo": (g.random(n_fact) < 0.15).astype(np.int64),
        }
    )

    ds = pd.MultiIndex.from_product([dates, stores], names=["date", "store"])
    transactions = ds.to_frame(index=False)
    transactions["txns"] = g.poisson(1500, len(transactions)) + 100

    items_rel = pd.DataFrame(
        {
            "item": items,
            "family": g.integers(0, 12, n_items),
            "iclass": g.integers(0, 30, n_items),
            "perishable": g.integers(0, 2, n_items),
        }
    )
    stores_rel = pd.DataFrame(
        {
            "store": stores,
            "city": g.integers(0, 12, n_stores),
            "state": g.integers(0, 6, n_stores),
            "stype": g.integers(0, 5, n_stores),
            "cluster": g.integers(0, 9, n_stores),
        }
    )
    oil = pd.DataFrame(
        {"date": dates, "price": (40 + 30 * g.random(n_dates)).round(2)}
    )
    holiday = pd.DataFrame(
        {
            "date": dates,
            "htype": g.integers(0, 4, n_dates),
            "locale": g.integers(0, 3, n_dates),
            "transferred": (g.random(n_dates) < 0.05).astype(np.int64),
        }
    )
    return {
        "Sales": sales,
        "Transactions": transactions,
        "Items": items_rel,
        "Stores": stores_rel,
        "Oil": oil,
        "Holiday": holiday,
    }


FAVORITA = DatasetSpec(
    name="favorita",
    db=_DB,
    edges=_EDGES,
    fact="Sales",
    generate_pandas=_generate,
    label="units",
    date_attr="date",
    cm_cats=("promo", "family", "perishable", "city", "stype", "htype"),
    mi_attrs=("promo", "family", "perishable", "city", "stype", "htype"),
    cube_dims=("family", "city", "htype"),
    cube_measures=("units", "txns", "price", "units", "txns"),
)
