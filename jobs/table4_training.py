"""Reproduces paper Table 4: learning ridge linear regression and regression
trees over Retailer and Favorita — LMFAO vs the materialize-then-learn
proxies (TensorFlow / MADlib / AC-DC; see DESIGN.md).

Usage: python jobs/table4_training.py [--sf 0.05]
"""
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))
from jobs._cli import run_job  # noqa: E402


def main(spark, sf: float, datasets=None):
    from repro.harness import fmt_table, linreg_rows, tree_rows

    datasets = datasets or ["retailer", "favorita"]
    all_rows = {}
    for name in datasets:
        lin = linreg_rows(spark, name, sf)
        print(f"\n# Table 4 — linear regression, {name} (SF={sf})")
        print(fmt_table(lin))
        tr = tree_rows(spark, name, sf, kind="regression")
        print(f"\n# Table 4 — regression tree, {name} (SF={sf})")
        print(fmt_table(tr))
        all_rows[name] = {"linreg": lin, "tree": tr}
    return all_rows


if __name__ == "__main__":
    run_job("table4", __doc__, main)
