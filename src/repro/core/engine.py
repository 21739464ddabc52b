"""LMFAO engine facade: compile a batch of queries into a Plan, run it.

``compile`` runs the logical layers (find roots → aggregate pushdown → merge
views → group views) and returns a :class:`Plan` carrying the Table-2
statistics (application aggregates A, intermediate aggregates I, views V,
groups G). ``run`` executes the plan on Spark via the executor and returns
the query results collected to pandas (``run.pandas(q)``); every view is
collected by its own job, so nothing of the run stays in Spark.

Ablation knobs reproduce the paper's Figure-5 study:

- ``multi_root=False``   every query rooted at the single heaviest relation
- ``merge_views=False``  no view interning / aggregate dedup (AC/DC proxy)
- ``run(parallel=False)`` views run one at a time, in plan order
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame, SparkSession

from repro.core.group import Grouping, group_views
from repro.core.join_tree import JoinTree
from repro.core.query import Query
from repro.core.roots import choose_roots, single_root
from repro.core.views import ViewDef, ViewRegistry, decompose_query
from repro.core.executor import RunResult, execute


@dataclass
class Plan:
    """A compiled batch: the interned views, grouping, and chosen roots."""

    tree: JoinTree
    queries: list[Query]
    roots: dict[str, str]
    views: list[ViewDef]
    grouping: Grouping

    def stats(self) -> dict[str, int]:
        """Table-2 statistics for this batch.

        - ``A``: application aggregates (requested outputs)
        - ``I``: intermediate aggregates synthesized in directional views
        - ``V``: directional views (query-result views excluded, as the
          paper counts views along edges)
        - ``G``: view groups (including the groups evaluating query roots)
        """
        internal = [v for v in self.views if not v.is_query]
        return {
            "A": sum(q.n_aggregates for q in self.queries),
            "I": sum(len(v.atoms) for v in internal),
            "V": len(internal),
            "G": self.grouping.n_groups,
        }


class LMFAO:
    """The layered engine over one database + join tree.

    ``sizes`` (relation row counts) feed the root-choice tie-breaking, as the
    paper's cardinality-constraint input to the Join Tree layer.
    """

    def __init__(
        self,
        tree: JoinTree,
        sizes: dict[str, int] | None = None,
        *,
        multi_root: bool = True,
        merge_views: bool = True,
    ):
        self.tree = tree
        self.sizes = sizes or {}
        self.multi_root = multi_root
        self.merge_views = merge_views

    def compile(
        self, queries: list[Query], roots: dict[str, str] | None = None
    ) -> Plan:
        names = [q.name for q in queries]
        if len(set(names)) != len(names):
            raise ValueError("duplicate query names in batch")
        if roots is None:
            picker = choose_roots if self.multi_root else single_root
            roots = picker(self.tree, queries, self.sizes)
        registry = ViewRegistry(merge=self.merge_views)
        for q in queries:
            decompose_query(q, roots[q.name], self.tree, registry)
        grouping = group_views(registry.views)
        return Plan(self.tree, list(queries), roots, registry.views, grouping)

    def run(
        self,
        spark: SparkSession,
        relations: dict[str, DataFrame],
        plan: Plan,
        *,
        parallel: bool = True,
    ) -> RunResult:
        return execute(spark, relations, plan, parallel=parallel)


def result_size_mb(result: RunResult) -> float:
    """Size of the application aggregates (Table 2's "Size" column): 8 bytes
    per value over all collected query outputs."""
    total = sum(pdf.size * 8 for pdf in result.frames.values())
    return total / (1024 * 1024)
