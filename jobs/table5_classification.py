"""Reproduces paper Table 5: learning a classification tree (gini) over
TPC-DS predicting the preferred-customer flag — LMFAO vs materialize+CART.

Usage: python jobs/table5_classification.py [--sf 0.05]
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
from jobs._cli import run_job  # noqa: E402


def main(spark, sf: float):
    from repro.harness import fmt_table, tree_rows

    rows = tree_rows(spark, "tpcds", sf, kind="classification")
    print(f"\n# Table 5 — classification tree, tpcds (SF={sf})")
    print(fmt_table(rows))
    return rows


if __name__ == "__main__":
    run_job("table5", __doc__, main)
