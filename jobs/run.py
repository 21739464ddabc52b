"""Regenerates one evaluation table of EXPERIMENTS.md and prints it.

Usage: python jobs/run.py TABLE [--sf 0.05] [--datasets favorita ...]

TABLE is a name of ``repro.harness.TABLES``. A table accepts ``--sf`` and
``--datasets`` only if its row builder takes them.
"""
import argparse
import inspect

from repro.harness import BENCH_SF, TABLES, fmt_table, make_spark


def main(argv=None, spark=None):
    """Parse ``argv``, build the table's rows and print them. A session
    started here is stopped on exit, also when the table raises; an
    injected ``spark`` is left running."""
    p = argparse.ArgumentParser(description=__doc__)
    tables = p.add_subparsers(dest="table", required=True)
    for name, (title, build) in TABLES.items():
        params = inspect.signature(build).parameters
        t = tables.add_parser(name)
        if "sf" in params:
            t.add_argument("--sf", type=float, default=BENCH_SF, help="scale factor")
        if "datasets" in params:
            t.add_argument("--datasets", nargs="*", help="dataset subset")
    args = vars(p.parse_args(argv))
    name = args.pop("table")
    title, build = TABLES[name]
    own = spark is None
    spark = spark or make_spark(name)
    try:
        rows = build(spark, **args)
    finally:
        if own:
            spark.stop()
    print(f"\n# {title.format(**args)}")
    print(fmt_table(rows))
    return rows


if __name__ == "__main__":
    main()
