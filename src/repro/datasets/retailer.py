"""Retailer dataset (paper §A), synthetic stand-in.

Snowflake: Inventory (fact) ⋈ Items, Weather, Location; Location ⋈ Census.
The defining property (paper §4.1): the fact table is large but narrow, and
most attributes live in the dimensions — this is where LMFAO's sharing pays
off the most. ~600k fact rows at SF=1, 31 attributes.
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
            "Inventory",
            (
                A("date", "key"),
                A("store", "key"),
                A("sku", "key"),
                A("inventoryunits", "cont"),
            ),
        ),
        Relation(
            "Weather",
            (
                A("date", "key"),
                A("store", "key"),
                A("mxtemp", "cont"),
                A("mntemp", "cont"),
                A("meanwind", "cont"),
                A("rain", "cat"),
                A("snow", "cat"),
                A("thunder", "cat"),
            ),
        ),
        Relation(
            "Location",
            (
                A("store", "key"),
                A("zip", "key"),
                A("rgn_cd", "cat"),
                A("clim_zn", "cat"),
                A("tot_area", "cont"),
                A("sell_area", "cont"),
                A("avghhi", "cont"),
                A("distcomp", "cont"),
            ),
        ),
        Relation(
            "Census",
            (
                A("zip", "key"),
                A("population", "cont"),
                A("medianage", "cont"),
                A("houseunits", "cont"),
                A("families", "cont"),
                A("households", "cont"),
                A("males", "cont"),
                A("females", "cont"),
                A("hispanic", "cont"),
                A("occupiedunits", "cont"),
            ),
        ),
        Relation(
            "Items",
            (
                A("sku", "key"),
                A("price", "cont"),
                A("subcategory", "cat"),
                A("category", "cat"),
                A("categorycluster", "cat"),
            ),
        ),
    ]
)

_EDGES = [
    ("Inventory", "Weather"),
    ("Inventory", "Location"),
    ("Location", "Census"),
    ("Inventory", "Items"),
]


def _generate(sf: float, seed: int) -> dict[str, pd.DataFrame]:
    n_fact = max(200, int(600_000 * sf))
    n_dates = dim_size(300, sf, 24)
    n_stores = dim_size(120, sf, 8)
    n_skus = dim_size(3000, sf, 60)
    n_zips = max(4, n_stores // 3)
    g = rng(seed + 100)

    dates = np.arange(1, n_dates + 1)
    stores = np.arange(1, n_stores + 1)
    skus = np.arange(1, n_skus + 1)
    zips = np.arange(1, n_zips + 1)

    inventory = pd.DataFrame(
        {
            "date": g.integers(1, n_dates + 1, n_fact),
            "store": g.integers(1, n_stores + 1, n_fact),
            "sku": g.integers(1, n_skus + 1, n_fact),
            "inventoryunits": g.poisson(20.0, n_fact) + 1,
        }
    )

    ds = pd.MultiIndex.from_product([dates, stores], names=["date", "store"])
    weather = ds.to_frame(index=False)
    nw = len(weather)
    weather["mxtemp"] = (60 + 40 * g.random(nw)).round(1)
    weather["mntemp"] = (weather["mxtemp"] - 10 - 20 * g.random(nw)).round(1)
    weather["meanwind"] = (3 + 12 * g.random(nw)).round(1)
    weather["rain"] = (g.random(nw) < 0.25).astype(np.int64)
    weather["snow"] = (g.random(nw) < 0.05).astype(np.int64)
    weather["thunder"] = (g.random(nw) < 0.08).astype(np.int64)

    location = pd.DataFrame(
        {
            "store": stores,
            "zip": g.integers(1, n_zips + 1, n_stores),
            "rgn_cd": g.integers(0, 8, n_stores),
            "clim_zn": g.integers(0, 5, n_stores),
            "tot_area": (20_000 + 80_000 * g.random(n_stores)).round(0),
            "sell_area": (10_000 + 50_000 * g.random(n_stores)).round(0),
            "avghhi": (30_000 + 90_000 * g.random(n_stores)).round(0),
            "distcomp": (0.5 + 20 * g.random(n_stores)).round(2),
        }
    )
    census = pd.DataFrame(
        {
            "zip": zips,
            "population": (5_000 + 90_000 * g.random(n_zips)).round(0),
            "medianage": (25 + 30 * g.random(n_zips)).round(1),
            "houseunits": (2_000 + 40_000 * g.random(n_zips)).round(0),
            "families": (1_000 + 25_000 * g.random(n_zips)).round(0),
            "households": (1_500 + 30_000 * g.random(n_zips)).round(0),
            "males": (2_500 + 45_000 * g.random(n_zips)).round(0),
            "females": (2_500 + 45_000 * g.random(n_zips)).round(0),
            "hispanic": (100 + 20_000 * g.random(n_zips)).round(0),
            "occupiedunits": (1_800 + 35_000 * g.random(n_zips)).round(0),
        }
    )
    items = pd.DataFrame(
        {
            "sku": skus,
            "price": (1 + 99 * g.random(n_skus)).round(2),
            "subcategory": g.integers(0, 40, n_skus),
            "category": g.integers(0, 12, n_skus),
            "categorycluster": g.integers(0, 6, n_skus),
        }
    )
    return {
        "Inventory": inventory,
        "Weather": weather,
        "Location": location,
        "Census": census,
        "Items": items,
    }


RETAILER = DatasetSpec(
    name="retailer",
    db=_DB,
    edges=_EDGES,
    fact="Inventory",
    generate_pandas=_generate,
    label="inventoryunits",
    date_attr="date",
    cm_cats=("rain", "snow", "clim_zn", "category", "categorycluster"),
    mi_attrs=("rain", "snow", "thunder", "rgn_cd", "clim_zn", "category"),
    cube_dims=("category", "clim_zn", "rain"),
    cube_measures=("inventoryunits", "price", "mxtemp", "avghhi", "population"),
)
