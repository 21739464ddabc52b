"""Reproduces paper Table 2: application aggregates (A), intermediate
aggregates (I), views (V), view groups (G), and output size per aggregate
batch (CM / RT / MI / DC) and dataset.

Usage: python jobs/table2_batch_stats.py [--sf 0.05] [--datasets favorita ...]
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
from jobs._cli import run_job  # noqa: E402


def main(spark, sf: float, datasets=None):
    from repro.harness import fmt_table, table2_rows

    rows = table2_rows(spark, sf, datasets)
    print(f"\n# Table 2 — batch statistics (SF={sf})")
    print(fmt_table(rows))
    return rows


if __name__ == "__main__":
    run_job("table2", __doc__, main)
