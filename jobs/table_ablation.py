"""Reproduces paper Figure 5 (as a table): impact of LMFAO's optimization
layers on covar-matrix computation — sharing (merge views), multi-root, and
group parallelism toggled cumulatively.

Usage: python jobs/table_ablation.py [--sf 0.05] [--datasets favorita retailer]
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
from jobs._cli import run_job  # noqa: E402


def main(spark, sf: float, datasets=None):
    from repro.harness import ablation_rows, fmt_table

    rows = ablation_rows(spark, sf, datasets)
    print(f"\n# Figure 5 (as table) — optimization-layer ablation, CM batch (SF={sf})")
    print(fmt_table(rows))
    return rows


if __name__ == "__main__":
    run_job("ablation", __doc__, main)
