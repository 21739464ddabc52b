"""Reproduces paper Table 3: time to compute each aggregate batch (count,
covar matrix, regression-tree node, mutual information, data cube) in LMFAO
vs the per-query comparators (Spark SQL = DBX role, DuckDB = MonetDB role).

Usage: python jobs/table3_aggregate_batches.py [--sf 0.05] [--datasets ...]
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
from jobs._cli import run_job  # noqa: E402


def main(spark, sf: float, datasets=None):
    from repro.harness import fmt_table, table3_rows

    rows = table3_rows(spark, sf, datasets)
    print(f"\n# Table 3 — aggregate batch times (SF={sf})")
    print(fmt_table(rows))
    return rows


if __name__ == "__main__":
    run_job("table3", __doc__, main)
