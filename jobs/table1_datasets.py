"""Reproduces paper Table 1: characteristics of the four datasets.

Usage: python jobs/table1_datasets.py [--sf 0.05] [--datasets favorita ...]
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
from jobs._cli import run_job  # noqa: E402


def main(spark, sf: float, datasets=None):
    from repro.harness import fmt_table, table1_rows

    rows = table1_rows(spark, sf, datasets)
    print(f"\n# Table 1 — dataset characteristics (SF={sf})")
    print(fmt_table(rows))
    return rows


if __name__ == "__main__":
    run_job("table1", __doc__, main)
