import os
import sys

import pytest


@pytest.fixture(scope="session")
def spark():
    """One local-mode SparkSession for the whole test session, from the
    harness's session factory (``repro.harness.make_spark``), so tests run
    under the settings the jobs and the benchmark use.

    Automatic broadcast joins are off (threshold -1): the executor
    broadcasts each view's incoming views explicitly, and every other join
    (the baselines, the materialized join) takes the shuffle path.
    """
    from repro.harness import make_spark

    s = make_spark("repro")
    sc = s.sparkContext
    # One line in the test log that tells whether the driver-memory
    # default saw the real cgroup limit (see harness._driver_mem).
    print(
        f"[conftest] SPARK_DRIVER_MEM={sc.getConf().get('spark.driver.memory')} "
        f"(src={os.environ.get('_SPARK_DRIVER_MEM_SRC', 'env')}) "
        f"master={sc.master} defaultParallelism={sc.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()
