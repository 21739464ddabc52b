"""Scale-trend companion to Tables 4/5: LMFAO over the input database vs the
materialize-then-learn pipeline on the same Spark substrate, as the Yelp
many-to-many join grows. Shows the paper's mechanism (join result >> inputs)
taking over with scale.

Usage: python jobs/table_scale_trend.py
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
from jobs._cli import run_job  # noqa: E402


def main(spark):
    from repro.harness import fmt_table, scale_trend_rows

    rows = scale_trend_rows(spark, "yelp")
    print("\n# Scale trend — covar batch, LMFAO vs materialize-then-Spark (Yelp)")
    print(fmt_table(rows))
    return rows


if __name__ == "__main__":
    run_job("scale-trend", __doc__, main)
