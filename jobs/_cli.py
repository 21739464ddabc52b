"""Shared entry path for the job scripts (spark-submit compatible)."""
from __future__ import annotations

import argparse
import inspect


def run_job(app: str, description: str, main) -> None:
    """Parse the flags ``main`` takes (``--sf``, ``--datasets``), start Spark
    through the harness, run ``main`` and stop Spark, also when it raises."""
    from repro.harness import BENCH_SF, make_spark

    params = inspect.signature(main).parameters
    p = argparse.ArgumentParser(description=description)
    if "sf" in params:
        p.add_argument("--sf", type=float, default=BENCH_SF, help="scale factor")
    if "datasets" in params:
        p.add_argument("--datasets", nargs="*", default=None, help="dataset subset")
    args = p.parse_args()
    spark = make_spark(app)
    try:
        main(spark, **vars(args))
    finally:
        spark.stop()
