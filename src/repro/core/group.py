"""Group Views layer + dependency graph of groups (paper §3.4, Figure 3).

Views going out of the same join-tree node with no (transitive) dependency
between them form a *view group* — the computational unit whose members can
be evaluated together once their incoming views exist. We assign each view a
group level: ``level(v) = 1 + max(level(dep))`` where the max ranges over the
groups of its incoming views. A group is then ``(source node, level)``; the
group dependency graph only points from lower to higher levels, so it is
acyclic by construction, and its topological *waves* (one per level) drive
the Parallelization layer: groups within a wave run concurrently.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.core.views import ViewDef


@dataclass
class Grouping:
    """Groups of view ids plus the wave schedule.

    ``groups[i]`` lists view ids (all sharing a source node and level);
    ``waves[l]`` lists the indices of groups at level ``l``;
    ``level_of[vid]`` is each view's level.
    """

    groups: list[list[int]]
    waves: list[list[int]]
    level_of: dict[int, int]

    @property
    def n_groups(self) -> int:
        return len(self.groups)


def group_views(views: list[ViewDef]) -> Grouping:
    """Cluster views into groups and schedule waves.

    ``views`` must be in dependency (construction) order: every view's
    incoming ids are smaller than its own id — true for ViewRegistry output.
    """
    level_of: dict[int, int] = {}
    for v in views:
        for w in v.incoming:
            if w >= v.vid:
                raise ValueError("views are not in dependency order")
        level_of[v.vid] = (
            1 + max(level_of[w] for w in v.incoming) if v.incoming else 0
        )

    group_index: dict[tuple[str, int], int] = {}
    groups: list[list[int]] = []
    for v in views:
        key = (v.source, level_of[v.vid])
        if key not in group_index:
            group_index[key] = len(groups)
            groups.append([])
        groups[group_index[key]].append(v.vid)

    max_level = max(level_of.values(), default=0)
    waves: list[list[int]] = [[] for _ in range(max_level + 1)]
    for (src, lvl), gi in group_index.items():
        waves[lvl].append(gi)
    return Grouping(groups, waves, level_of)
