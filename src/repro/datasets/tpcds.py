"""TPC-DS store_sales excerpt (paper §A, Fig. 6d), synthetic stand-in.

Ten relations in a snowflake: store_sales (fact, wide: 7 keys + 5 measures)
⋈ date_dim, item, customer, customer_demographics, household_demographics,
store, promotion; customer ⋈ customer_address and household_demographics ⋈
income_band are the snowflake arms. The defining property (paper §4.1): the
fact table has many attributes, so more aggregates are computed over it.
Integer-coded categoricals, as in the paper's own preprocessing. The
classification label is ``c_preferred`` (preferred customer), per §4.2.
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
            "store_sales",
            (
                A("datekey", "key"),
                A("item", "key"),
                A("customer", "key"),
                A("cdemo", "key"),
                A("hdemo", "key"),
                A("store", "key"),
                A("promo", "key"),
                A("ss_quantity", "cont"),
                A("ss_wholesale", "cont"),
                A("ss_list", "cont"),
                A("ss_sales", "cont"),
                A("ss_discount", "cont"),
            ),
        ),
        Relation(
            "date_dim",
            (
                A("datekey", "key"),
                A("d_year", "cat"),
                A("d_moy", "cat"),
                A("d_dow", "cat"),
                A("d_holiday", "cat"),
            ),
        ),
        Relation(
            "item",
            (
                A("item", "key"),
                A("i_brand", "cat"),
                A("i_category", "cat"),
                A("i_price", "cont"),
            ),
        ),
        Relation(
            "customer",
            (
                A("customer", "key"),
                A("caddr", "key"),
                A("c_birth_year", "cont"),
                A("c_preferred", "cat"),
            ),
        ),
        Relation(
            "customer_address",
            (A("caddr", "key"), A("ca_state", "cat"), A("ca_gmt", "cont")),
        ),
        Relation(
            "customer_demographics",
            (
                A("cdemo", "key"),
                A("cd_gender", "cat"),
                A("cd_marital", "cat"),
                A("cd_education", "cat"),
                A("cd_dep", "cont"),
            ),
        ),
        Relation(
            "household_demographics",
            (
                A("hdemo", "key"),
                A("incband", "key"),
                A("hd_buy_potential", "cat"),
                A("hd_dep_count", "cont"),
                A("hd_vehicles", "cont"),
            ),
        ),
        Relation(
            "income_band",
            (A("incband", "key"), A("ib_lo", "cont"), A("ib_hi", "cont")),
        ),
        Relation(
            "store",
            (
                A("store", "key"),
                A("s_floor", "cont"),
                A("s_employees", "cont"),
                A("s_market", "cat"),
            ),
        ),
        Relation(
            "promotion",
            (
                A("promo", "key"),
                A("p_dmail", "cat"),
                A("p_tv", "cat"),
                A("p_cost", "cont"),
            ),
        ),
    ]
)

_EDGES = [
    ("store_sales", "date_dim"),
    ("store_sales", "item"),
    ("store_sales", "customer"),
    ("customer", "customer_address"),
    ("store_sales", "customer_demographics"),
    ("store_sales", "household_demographics"),
    ("household_demographics", "income_band"),
    ("store_sales", "store"),
    ("store_sales", "promotion"),
]


def _generate(sf: float, seed: int) -> dict[str, pd.DataFrame]:
    n_fact = max(200, int(600_000 * sf))
    n_dates = dim_size(365, sf, 30)
    n_items = dim_size(2000, sf, 40)
    n_cust = dim_size(10_000, sf, 50)
    n_addr = max(10, n_cust // 2)
    n_cdemo = dim_size(500, sf, 16)
    n_hdemo = dim_size(200, sf, 10)
    n_incband = 10
    n_stores = dim_size(40, sf, 6)
    n_promo = dim_size(80, sf, 8)
    g = rng(seed + 300)

    fact = pd.DataFrame(
        {
            "datekey": g.integers(1, n_dates + 1, n_fact),
            "item": g.integers(1, n_items + 1, n_fact),
            "customer": g.integers(1, n_cust + 1, n_fact),
            "cdemo": g.integers(1, n_cdemo + 1, n_fact),
            "hdemo": g.integers(1, n_hdemo + 1, n_fact),
            "store": g.integers(1, n_stores + 1, n_fact),
            "promo": g.integers(1, n_promo + 1, n_fact),
            "ss_quantity": g.integers(1, 100, n_fact).astype(float),
            "ss_wholesale": (1 + 99 * g.random(n_fact)).round(2),
            "ss_list": (2 + 198 * g.random(n_fact)).round(2),
            "ss_sales": (1 + 150 * g.random(n_fact)).round(2),
            "ss_discount": (50 * g.random(n_fact)).round(2),
        }
    )
    date_dim = pd.DataFrame(
        {
            "datekey": np.arange(1, n_dates + 1),
            "d_year": 1998 + (np.arange(n_dates) // 365),
            "d_moy": (np.arange(n_dates) // 30) % 12,
            "d_dow": np.arange(n_dates) % 7,
            "d_holiday": (g.random(n_dates) < 0.08).astype(np.int64),
        }
    )
    item = pd.DataFrame(
        {
            "item": np.arange(1, n_items + 1),
            "i_brand": g.integers(0, 25, n_items),
            "i_category": g.integers(0, 10, n_items),
            "i_price": (1 + 99 * g.random(n_items)).round(2),
        }
    )
    customer = pd.DataFrame(
        {
            "customer": np.arange(1, n_cust + 1),
            "caddr": g.integers(1, n_addr + 1, n_cust),
            "c_birth_year": g.integers(1930, 2000, n_cust).astype(float),
            "c_preferred": (g.random(n_cust) < 0.35).astype(np.int64),
        }
    )
    customer_address = pd.DataFrame(
        {
            "caddr": np.arange(1, n_addr + 1),
            "ca_state": g.integers(0, 20, n_addr),
            "ca_gmt": g.integers(-8, -4, n_addr).astype(float),
        }
    )
    customer_demographics = pd.DataFrame(
        {
            "cdemo": np.arange(1, n_cdemo + 1),
            "cd_gender": g.integers(0, 2, n_cdemo),
            "cd_marital": g.integers(0, 5, n_cdemo),
            "cd_education": g.integers(0, 7, n_cdemo),
            "cd_dep": g.integers(0, 7, n_cdemo).astype(float),
        }
    )
    household_demographics = pd.DataFrame(
        {
            "hdemo": np.arange(1, n_hdemo + 1),
            "incband": g.integers(1, n_incband + 1, n_hdemo),
            "hd_buy_potential": g.integers(0, 6, n_hdemo),
            "hd_dep_count": g.integers(0, 10, n_hdemo).astype(float),
            "hd_vehicles": g.integers(0, 5, n_hdemo).astype(float),
        }
    )
    income_band = pd.DataFrame(
        {
            "incband": np.arange(1, n_incband + 1),
            "ib_lo": np.arange(n_incband) * 10_000.0,
            "ib_hi": (np.arange(n_incband) + 1) * 10_000.0,
        }
    )
    store = pd.DataFrame(
        {
            "store": np.arange(1, n_stores + 1),
            "s_floor": (5_000 + 95_000 * g.random(n_stores)).round(0),
            "s_employees": g.integers(50, 300, n_stores).astype(float),
            "s_market": g.integers(0, 10, n_stores),
        }
    )
    promotion = pd.DataFrame(
        {
            "promo": np.arange(1, n_promo + 1),
            "p_dmail": g.integers(0, 2, n_promo),
            "p_tv": g.integers(0, 2, n_promo),
            "p_cost": (100 + 900 * g.random(n_promo)).round(2),
        }
    )
    return {
        "store_sales": fact,
        "date_dim": date_dim,
        "item": item,
        "customer": customer,
        "customer_address": customer_address,
        "customer_demographics": customer_demographics,
        "household_demographics": household_demographics,
        "income_band": income_band,
        "store": store,
        "promotion": promotion,
    }


TPCDS = DatasetSpec(
    name="tpcds",
    db=_DB,
    edges=_EDGES,
    fact="store_sales",
    generate_pandas=_generate,
    label="c_preferred",
    date_attr="datekey",
    cm_cats=(
        "d_holiday",
        "i_category",
        "c_preferred",
        "cd_gender",
        "cd_marital",
        "s_market",
        "p_tv",
    ),
    mi_attrs=(
        "d_holiday",
        "i_category",
        "c_preferred",
        "cd_gender",
        "cd_marital",
        "s_market",
    ),
    cube_dims=("i_category", "cd_marital", "d_holiday"),
    cube_measures=("ss_quantity", "ss_sales", "ss_list", "ss_discount", "i_price"),
)
