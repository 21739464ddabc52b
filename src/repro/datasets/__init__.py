"""Synthetic stand-ins for the paper's four evaluation datasets.

Retailer is proprietary and Favorita/Yelp/TPC-DS are large public dumps the
container cannot download, so each is replaced by a deterministic generator
that reproduces the dataset's *schema, join-tree shape, key structure and
fan-out class* at laptop scale (see DESIGN.md "Datasets"). All attributes are
integer/double coded, matching the paper's own TPC-DS preprocessing.
"""
from repro.datasets.common import DatasetSpec
from repro.datasets.favorita import FAVORITA
from repro.datasets.retailer import RETAILER
from repro.datasets.tpcds import TPCDS
from repro.datasets.yelp import YELP

_SPECS = {spec.name: spec for spec in (FAVORITA, RETAILER, TPCDS, YELP)}


def all_datasets() -> dict[str, DatasetSpec]:
    """Every evaluation dataset's spec, keyed by name."""
    return dict(_SPECS)
